"""Coverage and macro-diversity analysis for mmWave small cells.

The package models close-in-reference path loss with lognormal shadowing,
fits model parameters to measured samples, converts a link budget into
cell-edge and cell-area outage probabilities, and emulates directional
beam-sweep measurements to estimate how reception improves when a user
can be served by several base stations at once.

Every public name is exported lazily (PEP 562): ``import mmwcomp`` loads
no submodule, and the first use of a name imports only the submodule that
defines it.  Every CLI command loads ``cli``'s top-level imports (closed
forms, records and readers); ``fit`` adds ``fitting``, ``enumerate`` and
``simulate`` add ``diversity``, and only ``simulate`` loads numpy.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "propagation": ("CiModel", "Condition", "fspl_db", "ci_mean_path_loss_db"),
    "fitting": ("PathLossSamples", "FitError", "fit_ci"),
    "coverage": ("LinkBudget", "OutageRow", "receiver_threshold_dbm",
                 "edge_outage_probability", "region_outage_probability",
                 "outage_table"),
    "diversity": ("Node", "SweepGrid", "Scenario", "MaskSet", "Drops",
                  "LinkStatistics", "distance_3d", "combination_count",
                  "reception_counts", "link_statistics", "simulate_drop",
                  "substream"),
    "scenario_io": ("ScenarioError", "parse_scenario", "load_scenario",
                    "load_topology", "read_samples_csv", "read_masks_csv",
                    "load_model_cards", "read_bundle"),
    "results": ("RunMetadata", "ModelCard", "ReceptionRow", "CdfPoint",
                "ResultBundle", "format_pct", "build_cdf", "bundle_csvs",
                "emit_results"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
