"""Scenario geometry, macro-diversity statistics and the drop simulator.

A scenario is a set of base stations and users on a plane with per-link
LOS/NLOS conditions, CI models per condition, a link budget and a beam
sweep grid.  The Monte Carlo drop simulator emulates a directional sweep:
for every link and every (TX sector angle, RX direction) combination it
draws a shadow-faded directional path loss, marks the combination
detectable when the draw stays within the budget's maximum measurable path
loss, synthesizes per-link omnidirectional path loss from the detectable
combinations, and reduces each link to a reception mask: an int bitset
with one bit per RX direction.  Trial t draws from the (seed, t)
sub-stream, for all L links in ``Scenario.links()`` order: L uniforms for
the conditions, one (L, T*R) standard normal block for the sweep (TX angle
major), then L best-beam normals when the scenario has an NLOS_BEST model.
All trials come back as one :class:`Drops` record with one column per link.

Reception-over-all-angles statistics for k serving base stations are then
combinatorial: a k-combination of serving stations covers a user when the
bitwise OR of its reception masks has every direction bit set.

Known limitation: directional draws across the angles of one link are
independent; no angular correlation model is applied.

numpy is imported on the first call of a function that builds arrays
(:func:`simulate_drop`, :func:`reception_vs_serving_count`,
:func:`nn_distance_stats`); the mask reducer and the serving-set counts are
pure Python, so importing this module does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .coverage import LinkBudget
from .params import DEFAULT_P_LOS, DEFAULT_SEED
from .propagation import CiModel, Condition, ci_mean_path_loss_db
from .rng import substream

if TYPE_CHECKING:
    import numpy as np

LinkKey = tuple[str, str]  # (ue_id, bs_id)


@dataclass(frozen=True)
class Node:
    """A base station or user position; height is antenna height AGL."""

    id: str
    x_m: float
    y_m: float
    height_m: float

    def __post_init__(self):
        if self.height_m <= 0:
            raise ValueError(f"height_m must be positive, got {self.height_m}")


@dataclass(frozen=True)
class SweepGrid:
    """Beam sweep geometry: TX sector angles by RX azimuth/elevation bins.

    Defaults: 15 TX pointing angles at 8 degree increments (a 120 degree
    sector; 17 for the extended 136 degree sector), 24 RX azimuths at 15
    degree increments covering the full plane, 3 RX elevation planes, for
    72 RX beamformed directions.
    """

    tx_angles: int = 15
    rx_azimuths: int = 24
    rx_elevations: int = 3
    tx_step_deg: float = 8.0
    rx_step_deg: float = 15.0

    def __post_init__(self):
        if self.tx_angles < 1 or self.rx_azimuths < 1 or self.rx_elevations < 1:
            raise ValueError("sweep grid counts must be >= 1")
        if abs(self.rx_azimuths * self.rx_step_deg - 360.0) > 1e-9:
            raise ValueError("RX azimuth bins must tile the full 360 degree plane")

    @property
    def n_rx_directions(self) -> int:
        return self.rx_azimuths * self.rx_elevations


@dataclass(frozen=True)
class ConditionPolicy:
    """Per-link condition assignment.

    Explicit entries take precedence; remaining links draw LOS with
    probability ``p_los`` (Bernoulli, one uniform per link per trial).
    """

    explicit: Mapping[LinkKey, Condition] = field(default_factory=dict)
    p_los: float = DEFAULT_P_LOS

    def __post_init__(self):
        if not 0.0 <= self.p_los <= 1.0:
            raise ValueError(f"p_los must be in [0, 1], got {self.p_los}")
        for link, cond in self.explicit.items():
            if cond not in (Condition.LOS, Condition.NLOS):
                raise ValueError(
                    f"explicit condition for link {link} must be LOS or NLOS")

    def resolve_los(self, links: Sequence[LinkKey],
                    rng: np.random.Generator) -> np.ndarray:
        """LOS flags for ``links``: one uniform per link, explicit entries win."""
        los = rng.random(len(links)) < self.p_los
        for i, link in enumerate(links):
            if link in self.explicit:
                los[i] = self.explicit[link] is Condition.LOS
        return los


@dataclass(frozen=True)
class Scenario:
    """A drop-simulation scenario; see the module docstring."""

    base_stations: tuple[Node, ...]
    ues: tuple[Node, ...]
    condition_policy: ConditionPolicy
    models: Mapping[Condition, CiModel]
    budget: LinkBudget
    sweep: SweepGrid = SweepGrid()
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not self.base_stations:
            raise ValueError("scenario needs at least one base station")
        if not self.ues:
            raise ValueError("scenario needs at least one UE")
        for nodes, label in ((self.base_stations, "base station"), (self.ues, "UE")):
            ids = [n.id for n in nodes]
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate {label} id")
        for cond in (Condition.LOS, Condition.NLOS):
            if cond not in self.models:
                raise ValueError(f"missing CI model for condition {cond.value}")

    def links(self) -> list[tuple[Node, Node]]:
        """All (UE, BS) pairs in deterministic id order."""
        ues = sorted(self.ues, key=lambda n: n.id)
        bss = sorted(self.base_stations, key=lambda n: n.id)
        return [(ue, bs) for ue in ues for bs in bss]

    def topology(self) -> dict[str, tuple[str, ...]]:
        """Serving sets: every base station serves every UE."""
        bs_ids = tuple(sorted(bs.id for bs in self.base_stations))
        return {ue.id: bs_ids for ue in sorted(self.ues, key=lambda n: n.id)}


@dataclass(frozen=True, eq=False)
class Drops:
    """Monte Carlo drops: row t is trial t, column i is link ``links[i]``.

    ``links`` follows ``Scenario.links()``: UE-major, base stations by id.
    ``los`` and ``omni_pl_db`` are (trials, L) arrays; the omni path loss
    is +inf where no angle pair was detected.  ``masks[t][i]`` is an int
    bitset over the RX direction grid: bit ``el * n_azimuths + az`` is set
    when that RX direction received signal from at least one TX sector
    angle (elevation-major ordering).
    """

    links: tuple[LinkKey, ...]
    los: np.ndarray
    omni_pl_db: np.ndarray
    masks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DistanceStats:
    mean_m: float
    median_m: float
    std_m: float
    min_m: float
    max_m: float


def distance_3d(a: Node, b: Node) -> float:
    """3D Euclidean separation including the height difference."""
    return math.sqrt((a.x_m - b.x_m) ** 2 + (a.y_m - b.y_m) ** 2
                     + (a.height_m - b.height_m) ** 2)


def nearest_neighbor_order(ue: Node, scenario: Scenario) -> list[str]:
    """Base station ids by ascending 3D distance; ties by ascending id."""
    return [bs.id for bs in sorted(scenario.base_stations,
                                   key=lambda bs: (distance_3d(ue, bs), bs.id))]


def nn_distance_stats(scenario: Scenario,
                      max_rank: int | None = None) -> dict[int, DistanceStats]:
    """Across-UE statistics of the k-th nearest base station distance.

    Returns a map rank (1-based) -> stats; standard deviation is the
    population value.  Values are unrounded, rounding is left to display.
    """
    import numpy as np
    n_bs = len(scenario.base_stations)
    if max_rank is None:
        max_rank = n_bs
    if not 1 <= max_rank <= n_bs:
        raise ValueError(f"max_rank must be in [1, {n_bs}], got {max_rank}")
    by_rank: dict[int, list[float]] = {r: [] for r in range(1, max_rank + 1)}
    for ue in scenario.ues:
        dists = sorted(distance_3d(ue, bs) for bs in scenario.base_stations)
        for r in range(1, max_rank + 1):
            by_rank[r].append(dists[r - 1])
    out = {}
    for r, vals in by_rank.items():
        arr = np.array(vals)
        out[r] = DistanceStats(
            mean_m=float(arr.mean()),
            median_m=float(np.median(arr)),
            std_m=float(arr.std()),
            min_m=float(arr.min()),
            max_m=float(arr.max()),
        )
    return out


def combination_count(topology: Mapping[str, Iterable[str]], k: int) -> int:
    """Number of k-subsets over all UEs' serving sets."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum(math.comb(len(set(s)), k) for s in topology.values())


def reception_counts(masks: Mapping[LinkKey, int],
                     topology: Mapping[str, Iterable[str]], k_max: int,
                     n_directions: int) -> dict[int, tuple[int, int]]:
    """Full-coverage and total k-subset counts for k = 1..k_max.

    Returns k -> (subsets whose masks OR to all ``n_directions`` bits,
    subsets) for every k that some serving set reaches.  Level k extends
    each level k-1 union with every later serving station, so each subset
    costs one OR and the pass stops at ``min(k_max, |serving|)`` per UE.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    full = (1 << n_directions) - 1
    counts: dict[int, tuple[int, int]] = {}
    for ue_id in sorted(topology):
        serving = sorted(set(topology[ue_id]))
        try:
            m = [masks[(ue_id, b)] for b in serving]
        except KeyError as exc:
            raise ValueError(
                f"missing reception mask for link {exc.args[0]}") from None
        level = [(0, 0)]  # (union, index of the next station to add)
        for k in range(1, min(k_max, len(m)) + 1):
            level = [(union | m[j], j + 1)
                     for union, nxt in level for j in range(nxt, len(m))]
            hits, n = counts.get(k, (0, 0))
            counts[k] = (hits + sum(u == full for u, _ in level), n + len(level))
    return counts


def simulate_drop(scenario: Scenario, trials: int) -> Drops:
    """Run ``trials`` independent drops of the beam-sweep emulation.

    Trial t draws from the (seed, t) sub-stream in the layout the module
    docstring gives, so any prefix of trials is identical regardless of the
    total trial count, and trials can be distributed without changing results.
    """
    import numpy as np
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    links = scenario.links()
    keys = tuple((ue.id, bs.id) for ue, bs in links)
    d = np.array([distance_3d(ue, bs) for ue, bs in links])
    los_model, nlos_model, best_model = (scenario.models.get(c) for c in (
        Condition.LOS, Condition.NLOS, Condition.NLOS_BEST))
    mean_los, mean_nlos, mean_best = (
        None if m is None else ci_mean_path_loss_db(m, d)
        for m in (los_model, nlos_model, best_model))
    n_links, n_tx = len(keys), scenario.sweep.tx_angles
    los_all = np.empty((trials, n_links), dtype=bool)
    omni_all = np.empty((trials, n_links))
    masks = []
    for t in range(trials):
        rng = substream(scenario.seed, t)
        los = los_all[t] = scenario.condition_policy.resolve_los(keys, rng)
        pl = rng.standard_normal((n_links, n_tx * scenario.sweep.n_rx_directions))
        pl *= np.where(los, los_model.sigma_db, nlos_model.sigma_db)[:, None]
        pl += np.where(los, mean_los, mean_nlos)[:, None]
        if best_model is not None:
            # The single best-aligned angle pair follows its own statistics;
            # on NLOS links it replaces the lowest arbitrary-angle draw.
            best = mean_best + best_model.sigma_db * rng.standard_normal(n_links)
            nlos = np.flatnonzero(~los)
            pl[nlos, pl[nlos].argmin(axis=1)] = best[nlos]
        detect = pl <= scenario.budget.max_pl_db
        packed = np.packbits(detect.reshape(n_links, n_tx, -1).any(axis=1),
                             axis=1, bitorder="little")
        # Linear power exp(-PL ln10 / 10) summed over detected pairs; with
        # none detected the sum is 0 and the omni path loss +inf.
        pl *= -math.log(10.0) / 10.0
        np.exp(pl, out=pl)
        pl *= detect
        with np.errstate(divide="ignore"):
            omni_all[t] = -10.0 * np.log10(pl.sum(axis=1))
        masks.append(tuple(int.from_bytes(row.tobytes(), "little")
                           for row in packed))
    return Drops(keys, los_all, omni_all, tuple(masks))


def reception_vs_serving_count(scenario: Scenario, drops: Drops,
                               k_max: int) -> dict[int, float]:
    """Mean all-angle reception probability for k = 1..k_max serving stations.

    Each trial's probability is its full-coverage share of k-subsets; the
    result is the mean over the trials of ``drops`` of this scenario.
    """
    import numpy as np
    n_bs = len(scenario.base_stations)
    if not 1 <= k_max <= n_bs:
        raise ValueError(f"k_max must be in [1, {n_bs}], got {k_max}")
    topology = scenario.topology()
    per_trial = [reception_counts(dict(zip(drops.links, row)), topology, k_max,
                                  scenario.sweep.n_rx_directions)
                 for row in drops.masks]
    return {k: float(np.mean([c[k][0] / c[k][1] for c in per_trial]))
            for k in range(1, k_max + 1)}
