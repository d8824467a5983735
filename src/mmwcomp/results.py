"""Result records and deterministic emission to disk.

Every writer here produces byte-identical output for identical inputs:
keys are sorted, line endings are "\\n", floats go through one shared
formatter, and no wall-clock time is recorded unless the caller supplies
a timestamp explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .coverage import OutageRow
from .propagation import CiModel, Condition

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


@dataclass(frozen=True)
class RunMetadata:
    command: str
    package_version: str
    seed: int | None = None
    trials: int | None = None
    timestamp: str | None = None


@dataclass(frozen=True)
class ModelCard:
    """Fitted (or configured) CI model parameters plus fit context."""

    label: str
    f_ghz: float
    ple: float
    sigma_db: float
    condition: Condition
    n_samples: int | None = None

    def to_model(self) -> CiModel:
        return CiModel(self.f_ghz, self.ple, self.sigma_db, self.condition)


@dataclass(frozen=True)
class ReceptionRow:
    """All-angle reception probability for k serving base stations."""

    k: int
    probability: float
    n_combinations: int


@dataclass(frozen=True)
class CdfPoint:
    x: float
    p: float


@dataclass
class ResultBundle:
    """Everything one run produced; validated on construction."""

    metadata: RunMetadata
    model_cards: Sequence[ModelCard] = ()
    outage_rows: Sequence[OutageRow] = ()
    reception_rows: Sequence[ReceptionRow] = ()
    cdfs: Mapping[str, Sequence[CdfPoint]] = field(default_factory=dict)

    def __post_init__(self):
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


def _metadata_obj(meta: RunMetadata) -> dict:
    return {
        "command": meta.command,
        "package_version": meta.package_version,
        "seed": meta.seed,
        "trials": meta.trials,
        "timestamp": meta.timestamp,
    }


def _model_card_obj(card: ModelCard) -> dict:
    obj = {
        "label": card.label,
        "f_ghz": float(_fmt(card.f_ghz)),
        "ple": float(_fmt(card.ple)),
        "sigma_db": float(_fmt(card.sigma_db)),
        "condition": card.condition.value,
    }
    if card.n_samples is not None:
        obj["n_samples"] = card.n_samples
    return obj


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_results(bundle: ResultBundle, out_dir: str | Path) -> list[Path]:
    """Write the bundle under ``out_dir``; returns the files written.

    Always writes metadata.json; models.json, outage.csv, reception.csv
    and cdf_<name>.csv appear only when the bundle has content for them.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name: str, text: str):
        path = out / name
        path.write_bytes(text.encode("utf-8"))
        written.append(path)

    write("metadata.json", _dump_json(_metadata_obj(bundle.metadata)))
    if bundle.model_cards:
        write("models.json",
              _dump_json([_model_card_obj(c) for c in bundle.model_cards]))
    if bundle.outage_rows:
        lines = ["condition,distance_m,p_out_edge_pct,p_out_region_pct"]
        for row in bundle.outage_rows:
            lines.append(f"{row.condition},{_fmt(row.distance_m)},"
                         f"{format_pct(row.p_out_edge)},"
                         f"{format_pct(row.p_out_region)}")
        write("outage.csv", "\n".join(lines) + "\n")
    if bundle.reception_rows:
        lines = ["k,p_reception_pct,n_combinations"]
        for row in bundle.reception_rows:
            lines.append(f"{row.k},{format_pct(row.probability)},"
                         f"{row.n_combinations}")
        write("reception.csv", "\n".join(lines) + "\n")
    for name in sorted(bundle.cdfs):
        lines = ["x,p"]
        for pt in bundle.cdfs[name]:
            lines.append(f"{_fmt(pt.x)},{_fmt(pt.p)}")
        write(f"cdf_{name}.csv", "\n".join(lines) + "\n")
    return written


def load_model_cards(path: str | Path) -> list[ModelCard]:
    """Read back a models.json written by ``emit_results``."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected an array of model cards")
    cards = []
    for i, obj in enumerate(raw):
        try:
            cards.append(ModelCard(
                label=obj["label"],
                f_ghz=float(obj["f_ghz"]),
                ple=float(obj["ple"]),
                sigma_db=float(obj["sigma_db"]),
                condition=Condition(obj["condition"]),
                n_samples=obj.get("n_samples"),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad model card at index {i}: {exc}") from None
    return cards
