"""Link-budget thresholding and lognormal-shadowing outage probabilities.

Two coverage figures are computed for a cell of radius R served from its
center:

* cell-edge outage: probability that the shadow-faded received power at
  distance R falls below the receiver threshold, ``0.5 + 0.5 erf(...)``;
* region outage: one minus the useful-area fraction of the whole disk,
  using the classical closed form for lognormal shadowing over a power-law
  mean (the area integral of the edge expression).

Both are noise-limited figures; interference is out of scope.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

from .propagation import (CiModel, Condition, REFERENCE_DISTANCE_M,
                          ci_mean_path_loss_db, received_power_dbm, validated)

_SQRT2 = math.sqrt(2.0)
_LOG10_E = math.log10(math.e)


@validated
class LinkBudget(NamedTuple):
    """System link budget yielding a receiver detection threshold.

    ``max_pl_db`` is the maximum measurable path loss with the TX/RX
    antennas in place; ``snr_threshold_db`` is the detection SNR it was
    derived at (informational).  Bandwidth scales the threshold relative
    to 1 GHz.
    """

    pt_dbm: float
    gt_dbi: float
    gr_dbi: float
    bw_ghz: float = 1.0
    max_pl_db: float = 175.0
    snr_threshold_db: float = 5.0

    def _validate(self):
        if self.bw_ghz <= 0:
            raise ValueError(f"bw_ghz must be positive, got {self.bw_ghz}")
        if self.max_pl_db <= 0:
            raise ValueError(f"max_pl_db must be positive, got {self.max_pl_db}")


@validated
class CoverageQuery(NamedTuple):
    """One (model, budget, distance) coverage evaluation point."""

    model: CiModel
    budget: LinkBudget
    radius_m: float

    def _validate(self):
        if self.radius_m < REFERENCE_DISTANCE_M:
            raise ValueError(f"radius_m must be >= {REFERENCE_DISTANCE_M} m, "
                             f"got {self.radius_m}")


class OutageRow(NamedTuple):
    """One row of an outage table (probabilities as fractions, not %)."""

    condition: str
    distance_m: float
    p_out_edge: float
    p_out_region: float


def receiver_threshold_dbm(budget: LinkBudget) -> float:
    """Receiver detection threshold implied by the link budget.

    P_t + G_t + G_r - PL_max + 10 log10(BW / 1 GHz).
    """
    return (budget.pt_dbm + budget.gt_dbi + budget.gr_dbi - budget.max_pl_db
            + 10.0 * math.log10(budget.bw_ghz))


def _mean_received_dbm(q: CoverageQuery) -> float:
    pl = ci_mean_path_loss_db(q.model, q.radius_m)
    return received_power_dbm(q.budget.pt_dbm, q.budget.gt_dbi, q.budget.gr_dbi, pl)


def edge_coverage_probability(q: CoverageQuery) -> float:
    """Probability the received signal exceeds the threshold at distance R.

    With mean received power x_bar at R, threshold x0 and shadow fading
    sigma: 0.5 - 0.5 erf((x0 - x_bar) / (sigma sqrt(2))).  A zero sigma
    degenerates to a step function (0.5 exactly at x_bar = x0).
    """
    x0 = receiver_threshold_dbm(q.budget)
    x_bar = _mean_received_dbm(q)
    sigma = q.model.sigma_db
    if sigma == 0.0:
        if x_bar > x0:
            return 1.0
        return 0.5 if x_bar == x0 else 0.0
    return 0.5 - 0.5 * math.erf((x0 - x_bar) / (sigma * _SQRT2))


def edge_outage_probability(q: CoverageQuery) -> float:
    """Complement of :func:`edge_coverage_probability`."""
    return 1.0 - edge_coverage_probability(q)


def useful_area_fraction(q: CoverageQuery) -> float:
    """Fraction of the radius-R disk where received power exceeds threshold.

    Closed form for a power-law mean (10 n dB/decade) with lognormal
    shadowing, with a = (x0 - x_bar(R)) / (sigma sqrt(2)) and
    b = 10 n log10(e) / (sigma sqrt(2)):

        F_u = 1/2 [1 - erf(a) + exp((1 - 2ab)/b^2) (1 - erf((1 - ab)/b))]

    Requires sigma > 0 and n > 0.
    """
    sigma = q.model.sigma_db
    if sigma == 0.0:
        raise ValueError("useful-area closed form requires sigma_db > 0")
    if q.model.ple <= 0:
        raise ValueError("useful-area closed form requires ple > 0")
    x0 = receiver_threshold_dbm(q.budget)
    x_bar = _mean_received_dbm(q)
    a = (x0 - x_bar) / (sigma * _SQRT2)
    b = 10.0 * q.model.ple * _LOG10_E / (sigma * _SQRT2)
    f_u = 0.5 * (1.0 - math.erf(a)
                 + math.exp((1.0 - 2.0 * a * b) / (b * b))
                 * (1.0 - math.erf((1.0 - a * b) / b)))
    # Cancellation in the erf terms can push the sum a few ulp outside [0, 1].
    return min(max(f_u, 0.0), 1.0)


def region_outage_probability(q: CoverageQuery) -> float:
    """Outage probability over the whole coverage disk of radius R."""
    return 1.0 - useful_area_fraction(q)


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
        for d in distances:
            q = CoverageQuery(model=model, budget=budget, radius_m=float(d))
            rows.append(OutageRow(
                condition=Condition(condition).value,
                distance_m=float(d),
                p_out_edge=edge_outage_probability(q),
                p_out_region=region_outage_probability(q),
            ))
    return rows
