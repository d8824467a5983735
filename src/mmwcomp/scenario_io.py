"""File formats: scenario JSON, path-loss sample CSV, reception-mask CSV.

All parsers reject unknown keys and report errors with a dotted key path
(scenario JSON) or a 1-based line number (CSV) so a bad input file can be
fixed without reading tracebacks.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from pathlib import Path
from typing import Mapping, TextIO

from .coverage import LinkBudget
from .diversity import ConditionPolicy, LinkKey, Node, Scenario, SweepGrid
from .fitting import PathLossSample
from .params import (BS_HEIGHT_M, DEFAULT_P_LOS, DEFAULT_SEED,
                     DIRECTIONAL_CI_73GHZ, SOUNDER_LINK_BUDGET, UE_HEIGHT_M)
from .propagation import CiModel, Condition


SCENARIO_SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario or CSV input rejected; message carries the offending path."""


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _check_keys(obj: Mapping, allowed: set[str], path: str):
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}")


def _number(obj: Mapping, key: str, path: str, default=None):
    if key not in obj:
        if default is not None:
            return default
        _fail(path, f"missing required key {key!r}")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:  # an integer literal beyond the float range
        num = math.inf
    if not math.isfinite(num):
        _fail(f"{path}.{key}", f"expected a finite number, got {num!r}")
    return num


def _parse_node(obj, default_height: float, path: str) -> Node:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    _check_keys(obj, {"id", "x_m", "y_m", "height_m"}, path)
    node_id = obj.get("id")
    if not isinstance(node_id, str) or not node_id:
        _fail(f"{path}.id", "expected a non-empty string")
    coords = (_number(obj, "x_m", path), _number(obj, "y_m", path),
              _number(obj, "height_m", path, default=default_height))
    try:
        return Node(node_id, *coords)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_condition(raw, path: str) -> Condition:
    try:
        return Condition(raw)
    except ValueError:
        _fail(path, f"expected one of "
                    f"{[c.value for c in Condition]}, got {raw!r}")


def _parse_model(obj, cond: Condition, path: str) -> CiModel:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    _check_keys(obj, {"f_ghz", "ple", "sigma_db"}, path)
    params = (_number(obj, "f_ghz", path), _number(obj, "ple", path),
              _number(obj, "sigma_db", path))
    try:
        return CiModel(*params, cond)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_models(obj, path: str) -> dict[Condition, CiModel]:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    models = dict(DIRECTIONAL_CI_73GHZ)
    for key, sub in obj.items():
        cond = _parse_condition(key, path)
        models[cond] = _parse_model(sub, cond, f"{path}.{key}")
    return models


def _parse_budget(obj, path: str) -> LinkBudget:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    keys = ("pt_dbm", "gt_dbi", "gr_dbi", "bw_ghz", "max_pl_db",
            "snr_threshold_db")
    _check_keys(obj, set(keys), path)
    kwargs = {key: _number(obj, key, path,
                           default=getattr(SOUNDER_LINK_BUDGET, key))
              for key in keys}
    try:
        return LinkBudget(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_sweep(obj, path: str) -> SweepGrid:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    _check_keys(obj, {"tx_angles", "rx_azimuths", "rx_elevations",
                      "tx_step_deg", "rx_step_deg"}, path)
    base = SweepGrid()
    kwargs = {}
    for key in ("tx_angles", "rx_azimuths", "rx_elevations"):
        if key in obj:
            val = obj[key]
            if isinstance(val, bool) or not isinstance(val, int):
                _fail(f"{path}.{key}", f"expected an integer, got {val!r}")
            kwargs[key] = val
        else:
            kwargs[key] = getattr(base, key)
    for key in ("tx_step_deg", "rx_step_deg"):
        kwargs[key] = _number(obj, key, path, default=getattr(base, key))
    try:
        return SweepGrid(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_conditions(obj, path: str) -> dict[LinkKey, Condition]:
    if not isinstance(obj, dict):
        _fail(path, "expected an object mapping 'ue/bs' to a condition")
    explicit = {}
    for key, raw in obj.items():
        parts = key.split("/")
        if len(parts) != 2 or not all(parts):
            _fail(f"{path}.{key}", "link key must look like 'ue_id/bs_id'")
        cond = _parse_condition(raw, f"{path}.{key}")
        if cond not in (Condition.LOS, Condition.NLOS):
            _fail(f"{path}.{key}", "explicit link condition must be LOS or NLOS")
        explicit[(parts[0], parts[1])] = cond
    return explicit


def parse_scenario(obj) -> Scenario:
    """Build a Scenario from a decoded JSON object.

    Required keys: base_stations, ues.  Everything else has defaults:
    node heights 4.0 m (base stations) and 1.4 m (UEs), the 73.5 GHz
    directional CI models, the channel-sounder link budget, the standard
    sweep grid, p_los 11/36 and seed 73.
    """
    if not isinstance(obj, dict):
        _fail("scenario", "top level must be an object")
    _check_keys(obj, {"schema_version", "base_stations", "ues", "models",
                      "budget", "sweep", "conditions", "p_los", "seed"},
                "scenario")
    version = obj.get("schema_version", SCENARIO_SCHEMA_VERSION)
    if version != SCENARIO_SCHEMA_VERSION:
        _fail("scenario.schema_version",
              f"unsupported version {version!r} (supported: {SCENARIO_SCHEMA_VERSION})")
    for key in ("base_stations", "ues"):
        if key not in obj or not isinstance(obj[key], list) or not obj[key]:
            _fail(f"scenario.{key}", "expected a non-empty array")
    bss = tuple(_parse_node(n, BS_HEIGHT_M, f"scenario.base_stations[{i}]")
                for i, n in enumerate(obj["base_stations"]))
    ues = tuple(_parse_node(n, UE_HEIGHT_M, f"scenario.ues[{i}]")
                for i, n in enumerate(obj["ues"]))
    models = (_parse_models(obj["models"], "scenario.models")
              if "models" in obj else dict(DIRECTIONAL_CI_73GHZ))
    budget = (_parse_budget(obj["budget"], "scenario.budget")
              if "budget" in obj else SOUNDER_LINK_BUDGET)
    sweep = (_parse_sweep(obj["sweep"], "scenario.sweep")
             if "sweep" in obj else SweepGrid())
    explicit = (_parse_conditions(obj["conditions"], "scenario.conditions")
                if "conditions" in obj else {})
    p_los = _number(obj, "p_los", "scenario", default=DEFAULT_P_LOS)
    seed = obj.get("seed", DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int):
        _fail("scenario.seed", f"expected an integer, got {seed!r}")
    for (ue_id, bs_id) in explicit:
        if ue_id not in {n.id for n in ues}:
            _fail("scenario.conditions", f"unknown UE id {ue_id!r}")
        if bs_id not in {n.id for n in bss}:
            _fail("scenario.conditions", f"unknown base station id {bs_id!r}")
    try:
        policy = ConditionPolicy(explicit=explicit, p_los=p_los)
        return Scenario(bss, ues, policy, models, budget, sweep, seed)
    except ValueError as exc:
        _fail("scenario", str(exc))


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario JSON file."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scenario(obj)


SAMPLE_FIELDS = ("d_m", "pl_db", "condition", "polarization")


def read_samples_csv(source: str | Path | TextIO,
                     strict: bool = True) -> list[PathLossSample]:
    """Read path-loss samples from CSV with header ``d_m,pl_db,condition,polarization``.

    In strict mode any malformed row raises ScenarioError with its line
    number; in lenient mode malformed rows are skipped.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return read_samples_csv(fh, strict=strict)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ScenarioError("samples CSV: empty file") from None
    if tuple(h.strip() for h in header) != SAMPLE_FIELDS:
        raise ScenarioError(
            f"samples CSV line 1: header must be {','.join(SAMPLE_FIELDS)}")
    samples = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            if len(row) != len(SAMPLE_FIELDS):
                raise ValueError(f"expected {len(SAMPLE_FIELDS)} fields, got {len(row)}")
            d_m = float(row[0])
            pl_db = float(row[1])
            cond = Condition(row[2].strip())
            samples.append(PathLossSample(d_m, pl_db, cond, row[3].strip()))
        except ValueError as exc:
            if strict:
                raise ScenarioError(f"samples CSV line {lineno}: {exc}") from None
    if not samples:
        warnings.warn("samples CSV contains a header but no data rows",
                      stacklevel=2)
    return samples


def write_samples_csv(samples: list[PathLossSample], dest: str | Path | TextIO):
    """Write samples in the format ``read_samples_csv`` accepts."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as fh:
            write_samples_csv(samples, fh)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(SAMPLE_FIELDS)
    for s in samples:
        # repr round-trips floats exactly, so reload loses nothing.
        writer.writerow([repr(s.d_m), repr(s.pl_db),
                         s.condition.value, s.polarization])


MASK_FIELDS = ("rx_id", "tx_id", "mask")


def read_masks_csv(source: str | Path | TextIO,
                   n_directions: int = 72) -> dict[LinkKey, int]:
    """Read per-link reception masks: ``rx_id,tx_id,mask``.

    The mask is a string of 0/1 of length ``n_directions`` in
    elevation-major order (index = elevation * n_azimuths + azimuth);
    character i becomes bit i of the returned int bitset.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return read_masks_csv(fh, n_directions=n_directions)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ScenarioError("masks CSV: empty file") from None
    if tuple(h.strip() for h in header) != MASK_FIELDS:
        raise ScenarioError(
            f"masks CSV line 1: header must be {','.join(MASK_FIELDS)}")
    masks = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise ScenarioError(f"masks CSV line {lineno}: expected 3 fields")
        rx_id, tx_id, bits = (cell.strip() for cell in row)
        if len(bits) != n_directions or set(bits) - {"0", "1"}:
            raise ScenarioError(
                f"masks CSV line {lineno}: mask must be {n_directions} chars of 0/1")
        link = (rx_id, tx_id)
        if link in masks:
            raise ScenarioError(f"masks CSV line {lineno}: duplicate link {link}")
        masks[link] = int(bits[::-1], 2)
    return masks


def write_masks_csv(masks: Mapping[LinkKey, int], dest: str | Path | TextIO,
                    n_directions: int = 72):
    """Write masks in the format ``read_masks_csv`` accepts."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as fh:
            write_masks_csv(masks, fh, n_directions=n_directions)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(MASK_FIELDS)
    for link in sorted(masks):
        if masks[link] >> n_directions:
            raise ValueError(f"mask for link {link} exceeds {n_directions} bits")
        writer.writerow([link[0], link[1],
                         format(masks[link], f"0{n_directions}b")[::-1]])


def load_topology(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Read a serving-set JSON file: {ue_id: [bs_id, ...], ...}."""
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict) or not obj:
        raise ScenarioError(f"{path}: expected a non-empty object")
    topology = {}
    for ue_id, serving in obj.items():
        if (not isinstance(serving, list) or not serving
                or not all(isinstance(s, str) for s in serving)):
            raise ScenarioError(
                f"{path}: {ue_id}: expected a non-empty array of base station ids")
        if len(set(serving)) != len(serving):
            raise ScenarioError(f"{path}: {ue_id}: duplicate base station id")
        topology[ue_id] = tuple(serving)
    return topology


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize a scenario back to its JSON format (round-trippable)."""
    obj = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "base_stations": [{"id": n.id, "x_m": n.x_m, "y_m": n.y_m,
                           "height_m": n.height_m} for n in scenario.base_stations],
        "ues": [{"id": n.id, "x_m": n.x_m, "y_m": n.y_m, "height_m": n.height_m}
                for n in scenario.ues],
        "models": {cond.value: {"f_ghz": m.f_ghz, "ple": m.ple,
                                "sigma_db": m.sigma_db}
                   for cond, m in scenario.models.items()},
        "budget": {
            "pt_dbm": scenario.budget.pt_dbm,
            "gt_dbi": scenario.budget.gt_dbi,
            "gr_dbi": scenario.budget.gr_dbi,
            "bw_ghz": scenario.budget.bw_ghz,
            "max_pl_db": scenario.budget.max_pl_db,
            "snr_threshold_db": scenario.budget.snr_threshold_db,
        },
        "sweep": {
            "tx_angles": scenario.sweep.tx_angles,
            "rx_azimuths": scenario.sweep.rx_azimuths,
            "rx_elevations": scenario.sweep.rx_elevations,
            "tx_step_deg": scenario.sweep.tx_step_deg,
            "rx_step_deg": scenario.sweep.rx_step_deg,
        },
        "conditions": {f"{ue}/{bs}": cond.value
                       for (ue, bs), cond
                       in sorted(scenario.condition_policy.explicit.items())},
        "p_los": scenario.condition_policy.p_los,
        "seed": scenario.seed,
    }
    buf = io.StringIO()
    json.dump(obj, buf, indent=2, sort_keys=True)
    buf.write("\n")
    return buf.getvalue()
