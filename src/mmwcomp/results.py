"""Result records, the bundle format and deterministic emission to disk.

``BUNDLE_CSVS`` describes a bundle's CSV files: ``bundle_csvs`` renders them
from it, and ``scenario_io.read_bundle`` reads them back through it.

Every writer here produces byte-identical output for identical inputs:
keys are sorted, line endings are "\\n", floats go through one shared
formatter, and no wall-clock time is recorded unless the caller supplies
a timestamp explicitly.

The records are ``typing.NamedTuple`` classes, as everywhere in the
package: they are immutable and unpack like tuples, and ``_replace``
copies one without re-running its checks.  Writers name each field, so a
record never reaches ``json`` as a bare list.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .coverage import OutageRow
from .propagation import CiModel, Condition, field_kinds, validated

_FLOAT_FMT = "%.12g"  # round-trips path-loss scale values to well under 1e-9


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def format_pct(fraction: float) -> str:
    """Render a probability as percent text.

    Values at or above 0.01 percent use one fixed decimal ("2.4"); smaller
    nonzero values switch to scientific notation with a one-decimal
    mantissa and an unpadded exponent ("6.9E-5").
    """
    if not math.isfinite(fraction):
        raise ValueError(f"fraction must be finite, got {fraction}")
    pct = fraction * 100.0
    if pct == 0.0 or abs(pct) >= 0.01:
        return f"{pct:.1f}"
    mantissa, exponent = f"{pct:.1E}".split("E")
    return f"{mantissa}E{int(exponent)}"


def _parse_pct(text: str) -> float:
    """The fraction that ``format_pct`` renders as ``text``.  Among subnormals
    ``float(text) / 100`` can be a step off: ``1.0E-320`` would give ``9.9E-321``."""
    x = float(text) / 100.0
    near = (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf))
    return next((y for y in near if format_pct(y) == text), x)


@validated
class RunMetadata(NamedTuple):
    """The command that wrote a bundle; ``simulate`` adds its seed and trials."""

    command: str
    package_version: str
    seed: int | None = None
    trials: int | None = None
    timestamp: str | None = None

    def _validate(self):
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials: must be >= 1, got {self.trials}")


@validated
class ModelCard(NamedTuple):
    """Fitted (or configured) CI model parameters plus fit context."""

    label: str
    f_ghz: float
    ple: float
    sigma_db: float
    condition: Condition
    n_samples: int | None = None

    def _validate(self):
        if not isinstance(self.condition, Condition):
            raise ValueError(f"condition: must be a Condition, "
                             f"got {self.condition!r}")
        if self.n_samples is not None and self.n_samples < 1:
            raise ValueError(f"n_samples: must be >= 1, got {self.n_samples}")
        self.to_model()  # the CI model's checks

    def to_model(self) -> CiModel:
        return CiModel(self.f_ghz, self.ple, self.sigma_db)


@validated
class ReceptionRow(NamedTuple):
    """All-angle reception probability for k serving base stations."""

    k: int
    probability: float
    n_combinations: int

    def _validate(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.n_combinations < 1:
            raise ValueError(f"n_combinations must be >= 1, got {self.n_combinations}")


class CdfPoint(NamedTuple):
    x: float
    p: float


@validated
class ResultBundle(NamedTuple):
    """Everything one run produced; validated on construction."""

    metadata: RunMetadata
    model_cards: Sequence[ModelCard] = ()
    outage_rows: Sequence[OutageRow] = ()
    reception_rows: Sequence[ReceptionRow] = ()
    cdfs: Mapping[str, Sequence[CdfPoint]] = MappingProxyType({})

    def _validate(self):
        for i, card in enumerate(self.model_cards):
            if any(c.condition is card.condition for c in self.model_cards[:i]):
                raise ValueError(f"model card at index {i}: duplicate condition "
                                 f"{card.condition.value}")
        for name, pts in self.cdfs.items():
            _validate_cdf(name, pts)


def _validate_cdf(name: str, pts: Sequence[CdfPoint]):
    if not pts:
        raise ValueError(f"CDF {name!r} is empty")
    last_x = -math.inf
    last_p = 0.0
    for pt in pts:
        if not math.isfinite(pt.x):
            raise ValueError(f"CDF {name!r} has a non-finite x value")
        if pt.x < last_x:
            raise ValueError(f"CDF {name!r} x values must be non-decreasing")
        if pt.p < last_p or pt.p > 1.0 + 1e-12:
            raise ValueError(f"CDF {name!r} probabilities must rise to at most 1")
        last_x, last_p = pt.x, pt.p
    if abs(last_p - 1.0) > 1e-9:
        raise ValueError(f"CDF {name!r} must end at probability 1, got {last_p}")


def build_cdf(values: Iterable[float]) -> list[CdfPoint]:
    """Empirical CDF over the finite entries of ``values``.

    Non-finite entries (undetectable links carry infinite path loss) are
    dropped before normalization, so the final point is exactly 1.
    """
    finite = sorted(v for v in values if math.isfinite(v))
    if not finite:
        raise ValueError("no finite values to build a CDF from")
    n = len(finite)
    return [CdfPoint(v, (i + 1) / n) for i, v in enumerate(finite)]


METADATA_FILE, MODELS_FILE = "metadata.json", "models.json"

# Each CSV file of a bundle, in file order: its ResultBundle field, name ("{}" is
# a CDF's name) and row record, and per field the header, text format and inverse.
BUNDLE_CSVS = (
    ("outage_rows", "outage.csv", OutageRow, (
        ("condition", format, str), ("distance_m", _fmt, float),
        ("p_out_edge_pct", format_pct, _parse_pct),
        ("p_out_region_pct", format_pct, _parse_pct))),
    ("reception_rows", "reception.csv", ReceptionRow, (
        ("k", format, int), ("p_reception_pct", format_pct, _parse_pct),
        ("n_combinations", format, int))),
    ("cdfs", "cdf_{}.csv", CdfPoint, (("x", _fmt, float), ("p", _fmt, float))),
)


def _model_card_obj(card: ModelCard) -> dict:
    """A card's JSON object, each field written by its kind; ``None`` is left out."""
    kinds = field_kinds(ModelCard)
    return {key: float(_fmt(v)) if kinds[key] is float
            else v.value if kinds[key] is Condition else v
            for key, v in card._asdict().items() if v is not None}


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def bundle_csvs(bundle: ResultBundle) -> Iterator[tuple[str, Sequence, str]]:
    """Each CSV file of ``bundle`` that has rows, in file order: its name,
    its rows and its text."""
    for field, name, _, columns in BUNDLE_CSVS:
        value = getattr(bundle, field)
        for key, rows in sorted(value.items()) if field == "cdfs" else [("", value)]:
            if rows:
                lines = [",".join(head for head, _, _ in columns)] + [
                    ",".join(fmt(v) for (_, fmt, _), v in zip(columns, row)) for row in rows]
                yield name.format(key), rows, "\n".join(lines) + "\n"


def emit_results(bundle: ResultBundle, out_dir: str | Path) -> list[Path]:
    """Write the bundle under ``out_dir``; returns the files written.

    Always writes metadata.json; models.json and each file of
    ``bundle_csvs`` appear only when the bundle has content for them.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [(METADATA_FILE, _dump_json(bundle.metadata._asdict()))]
    if bundle.model_cards:
        files.append((MODELS_FILE, _dump_json(
            [_model_card_obj(c) for c in bundle.model_cards])))
    files += [(name, text) for name, _, text in bundle_csvs(bundle)]
    for name, text in files:
        (out / name).write_bytes(text.encode("utf-8"))
    return [out / name for name, _ in files]
