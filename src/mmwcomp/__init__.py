"""Coverage and macro-diversity analysis for mmWave small-cell networks.

The package models close-in-reference path loss with lognormal shadowing,
fits model parameters to measured samples, converts a link budget into
cell-edge and cell-area outage probabilities, and emulates directional
beam-sweep measurements to estimate how reception improves when a user
can be served by several base stations at once.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .coverage import (CoverageQuery, LinkBudget, OutageRow,
                       edge_coverage_probability, edge_outage_probability,
                       outage_table, receiver_threshold_dbm,
                       region_outage_probability, useful_area_fraction)
from .diversity import (ConditionPolicy, DistanceStats, Drops, Node, Scenario,
                        SweepGrid, combination_count, distance_3d,
                        nearest_neighbor_order, nn_distance_stats,
                        reception_counts, reception_vs_serving_count,
                        simulate_drop)
from .fitting import (DirectionalScan, FitDiagnostics, FitError,
                      PathLossSample, ScanEntry, fit_ci,
                      group_samples_by_condition, residual_diagnostics,
                      synthesize_omni_path_loss_db)
from .propagation import (CiModel, Condition, ci_mean_path_loss_db,
                          frequency_hz, friis_received_power_dbm, fspl_db,
                          gain_from_aperture_dbi, gain_increase,
                          received_power_dbm, wavelength_m)
from .results import (CdfPoint, ModelCard, ReceptionRow, ResultBundle,
                      RunMetadata, build_cdf, emit_results, format_pct,
                      load_model_cards)
from .rng import substream
from .scenario_io import (ScenarioError, load_scenario, load_topology,
                          parse_scenario, read_masks_csv, read_samples_csv,
                          scenario_to_json, write_masks_csv, write_samples_csv)

__all__ = [
    "__version__",
    # propagation
    "CiModel", "Condition", "fspl_db", "ci_mean_path_loss_db",
    "received_power_dbm", "friis_received_power_dbm",
    "gain_increase", "gain_from_aperture_dbi", "frequency_hz", "wavelength_m",
    # fitting
    "PathLossSample", "ScanEntry", "DirectionalScan", "FitError",
    "FitDiagnostics", "fit_ci", "residual_diagnostics",
    "synthesize_omni_path_loss_db", "group_samples_by_condition",
    # coverage
    "LinkBudget", "CoverageQuery", "OutageRow", "receiver_threshold_dbm",
    "edge_coverage_probability", "edge_outage_probability",
    "useful_area_fraction", "region_outage_probability", "outage_table",
    # diversity
    "Node", "SweepGrid", "ConditionPolicy", "Scenario", "Drops",
    "DistanceStats", "distance_3d", "nearest_neighbor_order",
    "nn_distance_stats", "combination_count",
    "reception_counts", "simulate_drop", "reception_vs_serving_count",
    # io + results
    "ScenarioError", "parse_scenario", "load_scenario", "load_topology",
    "read_samples_csv", "write_samples_csv", "read_masks_csv",
    "write_masks_csv", "scenario_to_json", "RunMetadata", "ModelCard",
    "ReceptionRow", "CdfPoint", "ResultBundle", "format_pct",
    "build_cdf", "emit_results", "load_model_cards",
    # rng
    "substream",
]
