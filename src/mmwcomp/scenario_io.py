"""Reading every input file: scenario, topology and model-card JSON,
path-loss sample and reception-mask CSV, and result bundles.

Files are read as UTF-8 whatever the locale.  JSON goes through one loader
(``_read_json``), text through one decoder (``_read_text``), CSV through one
row reader (``_csv_rows``), and every JSON record through one parser
(``_parse_record``) whose keys and kinds are the record class's own
fields and annotations (``field_kinds``); no table here restates them.
All parsers reject unknown keys, and every bad input raises ScenarioError
with the file (undecodable JSON), the file and a dotted key path (scenario
JSON, bundle metadata), the file and a card index (model cards) or a
1-based line number (CSV), so it can be fixed without reading tracebacks.

Path-loss samples are read row by row, in file order: each row is parsed
and checked once, its numbers by ``fitting.check_sample`` and then its
labels, so the first bad row names its line.  The checked co-polarized
rows become the columns of one ``PathLossSamples`` record per condition.
The CSV and topology readers load neither ``coverage`` nor ``params``;
only the scenario parser needs them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, TextIO

from .propagation import CiModel, Condition, field_kinds

if TYPE_CHECKING:
    from .diversity import LinkKey, Scenario
    from .fitting import PathLossSamples
    from .results import ModelCard, ResultBundle


SCENARIO_SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """An input file rejected; the message names the file, key path or line."""


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}" if path else msg)


def _read_json(path: str | Path):
    """Decode a JSON file read as UTF-8; any decoding failure names ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from None


def _read_text(path: str | Path, label: str) -> str:
    """The file at ``path`` decoded as UTF-8; a bad byte fails as
    ``<label> line N: ...`` with its 1-based line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioError(f"{label} line {line}: {exc}") from None


def _csv_rows(source: str | Path | TextIO, fields: tuple[str, ...],
              label: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, row)`` for each non-blank row below a ``fields`` header.

    A path is read by ``_read_text``.  Every non-blank row must have one
    field per header column.  Errors start with ``label`` and, past an
    empty file, give the 1-based line.
    """
    if isinstance(source, (str, Path)):
        source = io.StringIO(_read_text(source, label), newline="")
    reader = csv.reader(source)
    try:
        header = next(reader, None)
        if header is None:
            raise ScenarioError(f"{label}: empty file")
        if tuple(h.strip() for h in header) != fields:
            raise ScenarioError(
                f"{label} line 1: header must be {','.join(fields)}")
        for lineno, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            if len(row) != len(fields):
                raise ScenarioError(f"{label} line {lineno}: expected "
                                    f"{len(fields)} fields, got {len(row)}")
            yield lineno, row
    except csv.Error as exc:
        raise ScenarioError(f"{label} line {reader.line_num}: {exc}") from None


def _check_keys(obj: Mapping, allowed: set[str], path: str):
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}")


def _parse_condition(raw, path: str) -> Condition:
    try:
        return Condition(raw)
    except ValueError:
        _fail(path, f"expected one of "
                    f"{[c.value for c in Condition]}, got {raw!r}")


def _value(raw, kind: type, path: str):
    """``raw`` checked as ``kind``: a non-empty str, an int, a finite float
    (given as a JSON int or float) or a Condition label.  A bool is never a
    number."""
    if kind is Condition:
        return _parse_condition(raw, path)
    if kind is str:
        if not isinstance(raw, str) or not raw:
            _fail(path, "expected a non-empty string")
        return raw
    if kind is int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            _fail(path, f"expected an integer, got {raw!r}")
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        _fail(path, f"expected a number, got {raw!r}")
    try:
        num = float(raw)
    except OverflowError:  # an integer literal beyond the float range
        num = math.inf
    if not math.isfinite(num):
        _fail(path, f"expected a finite number, got {num!r}")
    return num


def _parse_record(cls, obj, path: str, defaults: Mapping | None = None):
    """``cls(**fields)`` from the JSON object ``obj``.

    Each field of ``cls`` is a key, read by ``_value`` as its
    ``field_kinds`` kind under the key path ``path.key`` (the bare key
    when ``path`` is empty).  A key absent from ``obj`` takes its value
    from ``defaults`` (``cls._field_defaults`` unless given) and is
    required when it has none there; a key whose default is ``None``, an
    ``X | None`` field, may also be ``null``.  Unknown keys and the
    record's own checks fail under ``path``.
    """
    defaults = cls._field_defaults if defaults is None else defaults
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    kinds = field_kinds(cls)
    _check_keys(obj, set(kinds), path)
    fields = {}
    for key, kind in kinds.items():
        if key in obj and not (obj[key] is None and key in defaults
                               and defaults[key] is None):
            fields[key] = _value(obj[key], kind,
                                 f"{path}.{key}" if path else key)
        elif key in defaults:
            fields[key] = defaults[key]
        else:
            _fail(path, f"missing required key {key!r}")
    try:
        return cls(**fields)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_models(obj, path: str, base: Mapping[Condition, CiModel]
                  ) -> dict[Condition, CiModel]:
    """``base`` with the models that ``obj`` gives, condition by condition."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    models = dict(base)
    for key, sub in obj.items():
        models[_parse_condition(key, path)] = _parse_record(
            CiModel, sub, f"{path}.{key}")
    return models


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

    The keys are ``schema_version`` and ``Scenario``'s fields, and a key
    left out takes its field's default, so only base_stations and ues are
    required.  A node's height defaults by role: 4.0 m for a base station
    and 1.4 m for a UE.  ``budget`` and ``sweep`` keys left out keep the
    default record's values, and ``models`` replaces the default models
    condition by condition.
    """
    from .diversity import Node, Scenario
    from .params import BS_HEIGHT_M, UE_HEIGHT_M
    if not isinstance(obj, dict):
        _fail("scenario", "top level must be an object")
    _check_keys(obj, {"schema_version", *Scenario._fields}, "scenario")
    version = _value(obj.get("schema_version", SCENARIO_SCHEMA_VERSION), int,
                     "scenario.schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        _fail("scenario.schema_version",
              f"unsupported version {version!r} (supported: {SCENARIO_SCHEMA_VERSION})")
    defaults = Scenario._field_defaults
    for key in Scenario._fields:  # the fields with no default: the nodes
        if key not in defaults and not (isinstance(obj.get(key), list)
                                        and obj[key]):
            _fail(f"scenario.{key}", "expected a non-empty array")
    heights = {"base_stations": BS_HEIGHT_M, "ues": UE_HEIGHT_M}
    fields = {}
    for key, kind in field_kinds(Scenario).items():
        path = f"scenario.{key}"
        if key not in obj:
            fields[key] = defaults[key]
        elif key in heights:
            fields[key] = tuple(_parse_record(Node, n, f"{path}[{i}]",
                                              {"height_m": heights[key]})
                                for i, n in enumerate(obj[key]))
        elif key == "models":
            fields[key] = _parse_models(obj[key], path, defaults[key])
        elif key == "conditions":
            fields[key] = _parse_conditions(obj[key], path)
        elif hasattr(kind, "_fields"):  # a record: budget, sweep
            fields[key] = _parse_record(kind, obj[key], path,
                                        defaults[key]._asdict())
        else:
            fields[key] = _value(obj[key], kind, path)
    if fields["seed"] < 0:
        _fail("scenario.seed", f"must be non-negative, got {fields['seed']}")
    try:
        return Scenario(**fields)
    except ValueError as exc:
        _fail("scenario", str(exc))


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario JSON file; every error names ``path`` first."""
    obj = _read_json(path)
    try:
        return parse_scenario(obj)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


SAMPLE_FIELDS = ("d_m", "pl_db", "condition", "polarization")
_CONDITION_OF = {c.value: c for c in Condition}
_SAMPLE_CONDITIONS = (Condition.LOS, Condition.NLOS)
_POLARIZATIONS = ("VV", "VH")


def read_samples_csv(source: str | Path | TextIO
                     ) -> dict[Condition, PathLossSamples]:
    """Read path-loss samples from CSV with header ``d_m,pl_db,condition,polarization``.

    Returns one ``PathLossSamples`` record per condition in the file, LOS
    before NLOS, holding that condition's co-polarized (VV) samples in file
    order.  Cross-polarized (VH) rows are checked but never kept, so a
    condition seen only in VH rows maps to ``PathLossSamples()``; a header
    with no data rows gives ``{}``.  Each row is parsed and checked as it
    is read, so the first malformed row raises ScenarioError with its line
    number.
    """
    from .fitting import PathLossSamples, check_sample
    groups = {}
    for lineno, (d_m, pl_db, label, polarization) in _csv_rows(
            source, SAMPLE_FIELDS, "samples CSV"):
        try:
            d_m, pl_db, label = float(d_m), float(pl_db), label.strip()
            # The dict lookup is the fast path; Condition(label) only runs
            # to raise its message for an unknown label.
            cond = _CONDITION_OF.get(label) or Condition(label)
            check_sample(d_m, pl_db)
            if cond not in _SAMPLE_CONDITIONS:
                raise ValueError(f"sample condition must be LOS or NLOS, "
                                 f"got {cond.value}")
            polarization = polarization.strip()
            if polarization not in _POLARIZATIONS:
                raise ValueError(f"polarization must be one of {_POLARIZATIONS}")
        except ValueError as exc:
            raise ScenarioError(f"samples CSV line {lineno}: {exc}") from None
        columns = groups.setdefault(cond, ([], []))
        if polarization == "VV":
            columns[0].append(d_m)
            columns[1].append(pl_db)
    # Every row is checked already, so the records are built unchecked.
    return {cond: PathLossSamples._make(map(tuple, groups[cond]))
            for cond in _SAMPLE_CONDITIONS if cond in groups}


MASK_FIELDS = ("rx_id", "tx_id", "mask")


def read_masks_csv(source: str | Path | TextIO
                   ) -> tuple[dict[LinkKey, int], int]:
    """Read per-link reception masks: ``rx_id,tx_id,mask``.

    Returns the masks and their width.  The first row's mask sets the
    width (72 directions for the standard sweep) and every other row must
    match it; a file without mask rows has width 0.  A mask is a string of
    0/1 in elevation-major order (index = elevation * n_azimuths +
    azimuth); character i becomes bit i of the returned int bitset.
    """
    masks: dict[LinkKey, int] = {}
    width = 0
    for lineno, row in _csv_rows(source, MASK_FIELDS, "masks CSV"):
        rx_id, tx_id, bits = (cell.strip() for cell in row)
        if not (rx_id and tx_id):
            raise ScenarioError(f"masks CSV line {lineno}: rx_id and tx_id "
                                "must be non-empty")
        width = width or len(bits)
        if not bits or len(bits) != width or set(bits) - {"0", "1"}:
            raise ScenarioError(f"masks CSV line {lineno}: mask must be "
                                f"{width or 'one or more'} chars of 0/1")
        link = (rx_id, tx_id)
        if link in masks:
            raise ScenarioError(f"masks CSV line {lineno}: duplicate link {link}")
        masks[link] = int(bits[::-1], 2)
    return masks, width


def load_topology(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Read a serving-set JSON file: {ue_id: [bs_id, ...], ...}."""
    obj = _read_json(path)
    if not isinstance(obj, dict) or not obj:
        raise ScenarioError(f"{path}: expected a non-empty object")
    topology = {}
    for ue_id, serving in obj.items():
        if not ue_id:
            raise ScenarioError(f"{path}: empty user id")
        if (not isinstance(serving, list) or not serving
                or not all(isinstance(s, str) for s in serving)):
            raise ScenarioError(
                f"{path}: {ue_id}: expected a non-empty array of base station ids")
        if "" in serving:
            raise ScenarioError(f"{path}: {ue_id}: empty base station id")
        if len(set(serving)) != len(serving):
            raise ScenarioError(f"{path}: {ue_id}: duplicate base station id")
        topology[ue_id] = tuple(serving)
    return topology


def load_model_cards(path: str | Path) -> list[ModelCard]:
    """Read back the model cards that ``emit_results`` wrote.

    As ``fit`` writes them, the array is non-empty and holds at most one
    card per condition.  Each card follows the scenario's number rules and
    ``ModelCard``'s checks.
    """
    from .results import ModelCard
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ScenarioError(f"{path}: expected an array of model cards")
    if not raw:
        raise ScenarioError(f"{path}: no model cards")
    cards = []
    for i, obj in enumerate(raw):
        try:
            card = _parse_record(ModelCard, obj, "")
            if any(c.condition is card.condition for c in cards):
                _fail("", f"duplicate condition {card.condition.value}")
        except ScenarioError as exc:
            raise ScenarioError(
                f"{path}: bad model card at index {i}: {exc}") from None
        cards.append(card)
    return cards


def read_bundle(path: str | Path) -> ResultBundle:
    """Read back a directory that ``emit_results`` wrote, each CSV file through
    ``results.BUNDLE_CSVS``: every cell must hold the text written for its value."""
    from .results import (BUNDLE_CSVS, METADATA_FILE, MODELS_FILE, ResultBundle,
                          RunMetadata)
    root = Path(path)
    meta_path, models = root / METADATA_FILE, root / MODELS_FILE
    if not meta_path.is_file():
        raise ScenarioError(f"{root}: not a result bundle (missing {METADATA_FILE})")
    raw = _read_json(meta_path)
    if not isinstance(raw, dict):
        raise ScenarioError(f"{meta_path}: expected a JSON object")
    try:
        meta = _parse_record(RunMetadata, raw, "")
    except ScenarioError as exc:
        raise ScenarioError(f"{meta_path}: {exc}") from None
    fields = {"model_cards": load_model_cards(models) if models.is_file() else ()}
    for field, name, cls, columns in BUNDLE_CSVS:
        prefix, _, suffix = name.partition("{}")
        tables = {p.name[len(prefix):len(p.name) - len(suffix)]:
                  _read_bundle_csv(p, cls, columns)
                  for p in sorted(root.glob(name.format("*")))}
        fields[field] = tables if field == "cdfs" else tables.get("", ())
    return ResultBundle(meta, **fields)


def _read_bundle_csv(path: Path, cls, columns) -> list:
    """The ``cls`` records of one bundle CSV file; a CDF's are checked."""
    from .results import CdfPoint, _validate_cdf
    rows = []
    for lineno, row in _csv_rows(path, tuple(c[0] for c in columns), str(path)):
        values = []
        for (head, fmt, parse), text in zip(columns, row):
            try:
                values.append(parse(text))
                canon = fmt(values[-1])
            except ValueError:
                canon = None
            if canon != text:
                need = "be a number" if canon is None else f"read {canon!r}"
                raise ScenarioError(f"{path} line {lineno}: {head} must {need}, "
                                    f"got {text!r}")
        try:
            rows.append(cls(*values))
        except ValueError as exc:
            raise ScenarioError(f"{path} line {lineno}: {exc}") from None
    if cls is CdfPoint:
        if not rows:
            raise ScenarioError(f"{path}: no CDF points below the header")
        try:
            _validate_cdf(path.name, rows)
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    return rows
