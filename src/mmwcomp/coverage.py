"""Link-budget detection limit and lognormal-shadowing outage probabilities.

A budget is one detection limit, ``LinkBudget.max_pl_db``, which the drop
simulator detects against too.  For a cell of radius R served from its
center, with margin m = mean CI path loss at R minus that limit:

* cell-edge outage: probability that the shadow-faded path loss at R
  exceeds the limit, ``1 - (0.5 - 0.5 erf(m / (sigma sqrt(2))))``;
* region outage: one minus the useful-area fraction of the whole disk,
  using the classical closed form for lognormal shadowing over a power-law
  mean (the area integral of the edge expression).

Each kernel takes ``(model, budget, radius_m)`` and needs R >= 1 m, the
CI model's reference distance.  Both are noise-limited figures;
interference is out of scope.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

from .propagation import (CiModel, Condition, REFERENCE_DISTANCE_M,
                          ci_mean_path_loss_db, validated)

_SQRT2 = math.sqrt(2.0)
_LOG10_E = math.log10(math.e)


@validated
class LinkBudget(NamedTuple):
    """System link budget: one detection limit.

    ``max_pl_db`` is the largest detectable path loss with the TX/RX
    antennas in place; the paper's sounder reaches 175 dB at 1 GHz RF
    bandwidth.  Transmit power and antenna gains are not fields: no outage
    or detection depends on them, only :func:`receiver_threshold_dbm`,
    which takes them.
    """

    max_pl_db: float = 175.0

    def _validate(self):
        if not self.max_pl_db > 0:
            raise ValueError(f"max_pl_db must be positive, got {self.max_pl_db}")


@validated
class OutageRow(NamedTuple):
    """One row of an outage table (probabilities as fractions, not %)."""

    condition: str
    distance_m: float
    p_out_edge: float
    p_out_region: float

    def _validate(self):
        labels = [c.value for c in Condition]
        if self.condition not in labels:
            raise ValueError(f"condition must be one of {labels}, "
                             f"got {self.condition!r}")
        if not REFERENCE_DISTANCE_M <= self.distance_m < math.inf:
            raise ValueError(f"distance_m must be finite and >= "
                             f"{REFERENCE_DISTANCE_M} m, got {self.distance_m}")
        for name in ("p_out_edge", "p_out_region"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], "
                                 f"got {getattr(self, name)}")


def receiver_threshold_dbm(budget: LinkBudget, pt_dbm: float, gt_dbi: float,
                           gr_dbi: float) -> float:
    """Receiver detection threshold: the detection limit seen from a
    transmitter of power P_t with gains G_t and G_r,
    P_t + G_t + G_r - ``budget.max_pl_db``."""
    return pt_dbm + gt_dbi + gr_dbi - budget.max_pl_db


def _margin_db(model: CiModel, budget: LinkBudget, radius_m: float) -> float:
    """Mean path loss at the radius minus the detection limit."""
    return ci_mean_path_loss_db(model, radius_m) - budget.max_pl_db


def edge_outage_probability(model: CiModel, budget: LinkBudget,
                            radius_m: float) -> float:
    """Probability the shadow-faded path loss at distance R is not detected.

    1 - (0.5 - 0.5 erf(m / (sigma sqrt(2)))) for margin m; a zero sigma
    degenerates to a step function (0.5 exactly at m = 0).
    """
    m = _margin_db(model, budget, radius_m)
    sigma = model.sigma_db
    if sigma == 0.0:
        return 0.5 if m == 0.0 else float(m > 0.0)
    return 1.0 - (0.5 - 0.5 * math.erf(m / (sigma * _SQRT2)))


def region_outage_probability(model: CiModel, budget: LinkBudget,
                              radius_m: float) -> float:
    """Outage probability over the whole coverage disk of radius R.

    1 - F_u, with F_u the useful-area fraction for a power-law mean
    (10 n dB/decade), a = m / (sigma sqrt(2)) and b = 10 n log10(e) /
    (sigma sqrt(2)):

        F_u = 1/2 [1 - erf(a) + exp((1 - 2ab)/b^2) (1 - erf((1 - ab)/b))]

    A zero sigma leaves the share of the disk beyond the coverage radius,
    max(0, 1 - 10^(-m / (5 n))).  ``CiModel`` guarantees n > 0.
    """
    m = _margin_db(model, budget, radius_m)
    sigma = model.sigma_db
    if sigma == 0.0:
        # m <= 0 covers the whole disk; testing it first avoids overflow.
        return 0.0 if m <= 0.0 else 1.0 - 10.0 ** (-m / (5.0 * model.ple))
    a = m / (sigma * _SQRT2)
    b = 10.0 * model.ple * _LOG10_E / (sigma * _SQRT2)
    f_u = 0.5 * (1.0 - math.erf(a)
                 + math.exp((1.0 - 2.0 * a * b) / (b * b))
                 * (1.0 - math.erf((1.0 - a * b) / b)))
    # Cancellation in the erf terms can push the sum a few ulp outside [0, 1].
    return 1.0 - min(max(f_u, 0.0), 1.0)


def outage_table(models: Mapping[Condition, CiModel], budget: LinkBudget,
                 distances: Sequence[float] | Iterable[float]) -> list[OutageRow]:
    """Edge and region outage for each (condition, distance) pair.

    Rows follow the iteration order of ``models`` and ``distances``; the
    condition label is the enum value of the corresponding model key.
    """
    distances = list(distances)
    if not distances:
        raise ValueError("distances must be non-empty")
    rows = []
    for condition, model in models.items():
        for d in map(float, distances):
            rows.append(OutageRow(
                condition=Condition(condition).value,
                distance_m=d,
                p_out_edge=edge_outage_probability(model, budget, d),
                p_out_region=region_outage_probability(model, budget, d),
            ))
    return rows
