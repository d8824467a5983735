"""Scenario geometry, macro-diversity statistics and the drop simulator.

A scenario is one flat record whose fields are the scenario file's keys:
base stations and users on a plane, CI models per condition, a link
budget, a beam sweep grid, the links pinned LOS or NLOS, the LOS
probability of every other link and a seed.  The Monte Carlo drop
simulator emulates a directional sweep: for every link and every (TX
sector angle, RX direction) combination it draws a shadow-faded
directional path loss, marks the combination detectable when the draw
stays within ``budget.max_pl_db``, the detection limit the outage kernels
of :mod:`.coverage` also use, synthesizes per-link omnidirectional path
loss as the linear power sum over the detectable combinations, and
reduces each link to a reception mask: an int bitset with one bit per RX
direction.  That sum is the package's only omni synthesis; over n
detected combinations it lies between the lowest directional loss and
10 log10(n) dB below it.

Every stochastic routine in the package draws from a generator that
:func:`substream` returns, so the whole output of a run is a pure function
of the configured seed.  Trial t draws from the (seed, t) sub-stream, for
all L links in ``Scenario.links()`` order: L uniforms for the conditions,
one (L, T*R) standard normal block for the sweep (TX angle major), then L
best-pair normals when a condition has a best-pair model.
:func:`link_statistics` is the one statement of what those draws mean for
each link.  A trial only draws; the rest runs once per batch of trials.
All trials come back as one :class:`Drops` record: omni path loss and each
link's masks, one :class:`MaskSet` lane per trial; its docstring states the
lane layout.

The records here are ``typing.NamedTuple`` classes: they are immutable and
unpack like tuples, and ``_replace`` copies one without re-running its
checks.  :class:`Drops` compares by identity, since its fields are arrays.

:func:`simulate_drop` draws its trials in contiguous chunks, one per
usable CPU, each on a worker thread and into its own rows of one set of
output arrays.  Because every trial owns its sub-stream, the output is
byte-identical for any split; nothing needs setting.

Reception-over-all-angles statistics for k serving base stations are then
combinatorial: a k-combination of serving stations covers a user when the
bitwise OR of its reception masks has every direction bit set.  One
miss-set kernel counts those combinations in every lane of its packed
masks at once and returns one total per k.  :func:`reception_counts`, the
one reception reducer, calls it once per distinct serving set of a
:class:`MaskSet`; :func:`combination_count` gives the k-subsets of each lane.

Known limitation: directional draws across the angles of one link are
independent; no angular correlation model is applied.

numpy is imported only when :func:`simulate_drop` or :func:`substream`
runs; the statistics, the miss-set kernel, :func:`reception_counts` and the
serving-set counts are pure Python, so importing this module does not load
numpy.
"""

from __future__ import annotations

import math
import os
import threading
from types import MappingProxyType
from typing import (TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple,
                    Sequence)

from .coverage import LinkBudget
from .params import (DEFAULT_P_LOS, DEFAULT_SEED, DIRECTIONAL_CI_73GHZ,
                     SOUNDER_LINK_BUDGET)
from .propagation import (REFERENCE_DISTANCE_M, CiModel, Condition,
                          ci_mean_path_loss_db, validated)

if TYPE_CHECKING:
    import numpy as np

LinkKey = tuple[str, str]  # (ue_id, bs_id)

# Batches of trials are post-processed together, their normal blocks
# filling about this many bytes of float64.
_BATCH_BYTES = 2 << 20


@validated
class Node(NamedTuple):
    """A base station or user position; height is antenna height AGL."""

    id: str
    x_m: float
    y_m: float
    height_m: float

    def _validate(self):
        if "/" in self.id:
            raise ValueError(f"id must not contain '/', got {self.id!r}")
        if not self.height_m > 0:
            raise ValueError(f"height_m must be positive, got {self.height_m}")


@validated
class SweepGrid(NamedTuple):
    """Beam sweep geometry: TX sector angles by RX azimuth/elevation bins.

    Defaults: 15 TX pointing angles at 8 degree increments (a 120 degree
    sector; 17 for the extended 136 degree sector), 24 RX azimuths at 15
    degree (360 / 24) increments covering the full plane, 3 RX elevation
    planes: 72 RX directions.  The steps are not fields: no output uses them.
    """

    tx_angles: int = 15
    rx_azimuths: int = 24
    rx_elevations: int = 3

    def _validate(self):
        counts = (self.tx_angles, self.rx_azimuths, self.rx_elevations)
        if not all(type(c) is int and c >= 1 for c in counts):  # bool is not int
            raise ValueError(f"sweep grid counts must be integers >= 1, "
                             f"got {counts}")

    @property
    def n_rx_directions(self) -> int:
        return self.rx_azimuths * self.rx_elevations


@validated
class Scenario(NamedTuple):
    """A drop-simulation scenario; see the module docstring.

    Its fields are the scenario file's keys, and every field after ``ues``
    has the file's default.  ``conditions`` pins links, keyed
    ``(ue_id, bs_id)``, to LOS or NLOS; every other link draws LOS with
    probability ``p_los`` (Bernoulli, one uniform per link per trial).
    """

    base_stations: tuple[Node, ...]
    ues: tuple[Node, ...]
    models: Mapping[Condition, CiModel] = MappingProxyType(DIRECTIONAL_CI_73GHZ)
    budget: LinkBudget = SOUNDER_LINK_BUDGET
    sweep: SweepGrid = SweepGrid()
    conditions: Mapping[LinkKey, Condition] = MappingProxyType({})
    p_los: float = DEFAULT_P_LOS
    seed: int = DEFAULT_SEED

    def _validate(self):
        if not self.base_stations:
            raise ValueError("scenario needs at least one base station")
        if not self.ues:
            raise ValueError("scenario needs at least one UE")
        ue_ids = {n.id for n in self.ues}
        bs_ids = {n.id for n in self.base_stations}
        for (ue_id, bs_id), cond in self.conditions.items():
            if ue_id not in ue_ids:
                raise ValueError(f"conditions: unknown UE id {ue_id!r}")
            if bs_id not in bs_ids:
                raise ValueError(f"conditions: unknown base station id {bs_id!r}")
            if cond not in (Condition.LOS, Condition.NLOS):
                raise ValueError(f"conditions: link {ue_id}/{bs_id} must be "
                                 "LOS or NLOS")
        if not 0.0 <= self.p_los <= 1.0:
            raise ValueError(f"p_los must be in [0, 1], got {self.p_los}")
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


@validated
class MaskSet(NamedTuple):
    """Reception masks: ``bits`` maps each link ``(ue_id, bs_id)`` to one int
    packing ``lanes`` masks of ``n_directions`` bits; bit i of a mask is RX
    direction i.  Over n directions a lane is ``lane_bytes(n) = n // 8 + 1``
    bytes, so a spare guard bit sits above every mask, and lane l starts at
    bit ``l * 8 * lane_bytes(n)``.  Measured masks (``read_masks_csv``) have
    one lane, and ``Drops.masks`` one per trial.
    """

    bits: Mapping[LinkKey, int]
    n_directions: int
    lanes: int = 1

    def _validate(self):
        n, lanes = self.n_directions, self.lanes
        if not lanes >= 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        fits = _lane_ones(lanes, lane_bytes(n)) * ((1 << n) - 1)
        for link, m in self.bits.items():
            if m & ~fits:
                raise ValueError(f"reception mask for link {link} does not "
                                 f"fit {lanes} lane(s) of {n} bits")

    def lane(self, t: int) -> MaskSet:
        """Lane t of every mask, as a one-lane mask set."""
        if not 0 <= t < self.lanes:
            raise IndexError(f"lane {t} is outside [0, {self.lanes})")
        n = self.n_directions
        shift, full = t * 8 * lane_bytes(n), (1 << n) - 1
        return MaskSet._make(({link: (m >> shift) & full
                               for link, m in self.bits.items()}, n, 1))


class Drops(NamedTuple):
    """Monte Carlo drops: row t of ``omni_pl_db`` and lane t of ``masks``
    are trial t.

    ``masks`` holds the links in ``Scenario.links()`` order (UE-major, base
    stations by id), and column i of the (trials, L) array ``omni_pl_db``
    is link i, +inf where no angle pair was detected.  A mask's bit
    ``el * n_azimuths + az`` is set when that RX direction received signal
    from at least one TX sector angle (elevation-major ordering).  Only
    :func:`simulate_drop` builds this record, so it alone loads numpy.
    """

    omni_pl_db: np.ndarray
    masks: MaskSet

    # Identity, not field-wise, comparison: the fields are arrays.
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def distance_3d(a: Node, b: Node) -> float:
    """3D Euclidean separation including the height difference; ``inf``
    when its square overflows."""
    try:
        return math.sqrt((a.x_m - b.x_m) ** 2 + (a.y_m - b.y_m) ** 2
                         + (a.height_m - b.height_m) ** 2)
    except OverflowError:  # float ** raises where * would give inf
        return math.inf


def combination_count(topology: Mapping[str, Iterable[str]], k: int) -> int:
    """Number of k-subsets over all UEs' serving sets."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum(math.comb(len(set(s)), k) for s in topology.values())


def lane_bytes(n_directions: int) -> int:
    """Bytes per lane of a packed mask: room for n bits and a spare guard bit."""
    return n_directions // 8 + 1


def _lane_ones(lanes: int, width: int) -> int:
    """An int with bit 0 of each of ``lanes`` lanes of ``width`` bytes set."""
    return int.from_bytes(b"\1".ljust(width, b"\0") * lanes, "little")


def _miss_set_hits(columns: Sequence[int], one: int, n: int,
                   top: int) -> list[int]:
    """Full-coverage counts of the k-subsets of ``columns``, summed over lanes.

    Each column is one station's masks packed in lanes, ``one`` has bit 0
    of every lane set, and every lane holds n direction bits with room for
    a guard bit above them.  Returns, for k = 1..top, the number of
    (k-subset, lane) pairs whose masks cover all n directions in that lane.
    ``level[s]`` counts the s-subsets by miss set, the directions none of
    them covers.  Station j moves each level s-1 entry to level s with its
    bits cleared, for s in descending order so that j joins each subset
    once.  Equal miss sets share an entry, and full unions all land on miss
    set 0, so the work grows with the distinct partial unions, not with the
    subsets.  Adding ``full`` to a miss set carries into a lane's guard bit
    exactly when that lane misses a direction, so each of an entry's subsets
    hits in as many lanes as the sum leaves guard bits unset.
    """
    full = one * ((1 << n) - 1)
    guard = one << n
    level: list[dict[int, int]] = [{full: 1}] + [{} for _ in range(top)]
    for j, mj in enumerate(columns):
        clear = ~mj
        for s in range(min(top, j + 1), 0, -1):
            nxt = level[s]
            for miss, c in level[s - 1].items():
                miss &= clear
                nxt[miss] = nxt.get(miss, 0) + c
    return [sum(c * (((miss + full) & guard) ^ guard).bit_count()
                for miss, c in level[k].items())
            for k in range(1, top + 1)]


def reception_counts(mask_set: MaskSet, topology: Mapping[str, Iterable[str]],
                     k_max: int) -> dict[int, int]:
    """Full-coverage k-subset counts for k = 1..k_max.

    Returns k -> the (k-subset, lane) pairs of ``mask_set`` whose masks OR
    to all its directions, summed over UEs, for every k that some serving
    set reaches; each lane has ``combination_count`` k-subsets.  UEs with
    the same serving set share one miss-set kernel call, each UE's lanes
    above the previous UE's.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    masks, n, lanes = mask_set
    groups: dict[tuple[str, ...], list[str]] = {}
    for ue_id in sorted(topology):
        serving = tuple(sorted(set(topology[ue_id])))
        for b in serving:
            if (ue_id, b) not in masks:
                raise ValueError(f"missing reception mask for link {(ue_id, b)}")
        groups.setdefault(serving, []).append(ue_id)
    counts: dict[int, int] = {}
    lb = lane_bytes(n)
    block = 8 * lanes * lb
    for serving, ues in groups.items():
        columns = [sum(masks[(u, b)] << (i * block) for i, u in enumerate(ues))
                   for b in serving]
        hits = _miss_set_hits(columns, _lane_ones(len(ues) * lanes, lb), n,
                              min(k_max, len(serving)))
        for k, h in enumerate(hits, 1):
            counts[k] = counts.get(k, 0) + h
    return counts


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for stream ``key`` under ``seed``.

    ``substream(seed)`` is the root stream; ``substream(seed, t)`` is the
    stream for trial ``t``.  Streams with different keys never overlap.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    import numpy as np
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _map_trials(fn: Callable[[int, int], object], trials: int) -> None:
    """``fn(lo, hi)`` over contiguous trial chunks, one per usable CPU.

    Chunk i covers trials ``[trials*i//w, trials*(i+1)//w)`` with
    ``w = min(trials, usable CPUs)``, each on its own thread while the caller
    joins them; numpy's normal fills and ufuncs release the GIL, so the
    chunks draw in parallel.  ``fn`` returns nothing: each chunk writes its
    own rows of arrays that the caller allocated.  Once every thread has
    finished, the exception of the lowest-numbered failing chunk is raised.
    The threads are daemons, so an interrupt in the caller's join does not
    wait for their chunks to end.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    w = min(trials, cpus)
    bounds = [trials * i // w for i in range(w + 1)]
    errors: list[BaseException | None] = [None] * w

    def run(i: int) -> None:
        try:
            fn(bounds[i], bounds[i + 1])
        except BaseException as exc:  # raised again in the caller
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(w)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc


class LinkStatistics(NamedTuple):
    """The one statement of the simulator's statistics, per link.

    ``keys`` are the links in ``Scenario.links()`` order; entry i of a
    per-link tuple is link i.  Link i is LOS in a trial when its uniform
    lies below ``p_los[i]``: the scenario's ``p_los``, or 1 or 0 when pinned.
    The other fields have a row per condition, row 0 LOS and row 1 NLOS.
    Row r's sweep draws have per-link means ``mean_db[r]`` and deviation
    ``sigma_db[r]``.  Its best-aligned pair draws from ``best_mean_db[r]``
    and ``best_sigma_db[r]``: NLOS_BEST's on NLOS, if given, else ``None``.
    """

    keys: tuple[LinkKey, ...]
    p_los: tuple[float, ...]
    mean_db: tuple[tuple[float, ...], ...]
    sigma_db: tuple[float, ...]
    best_mean_db: tuple[tuple[float, ...] | None, ...]
    best_sigma_db: tuple[float | None, ...]


def link_statistics(scenario: Scenario) -> LinkStatistics:
    """The scenario's :class:`LinkStatistics`; a link shorter than 1 m, or
    too long for a finite length, raises ValueError."""
    links = scenario.links()
    keys = tuple((ue.id, bs.id) for ue, bs in links)
    d = [distance_3d(ue, bs) for ue, bs in links]
    for (ue_id, bs_id), x in zip(keys, d):
        if x < REFERENCE_DISTANCE_M:
            raise ValueError(f"link {ue_id}/{bs_id} is shorter than the CI "
                             f"model's {REFERENCE_DISTANCE_M} m reference")
        if not math.isfinite(x):
            raise ValueError(f"link {ue_id}/{bs_id} is too long for its "
                             "length to be a finite float")
    models = scenario.models
    rows = ((models[Condition.LOS], None),
            (models[Condition.NLOS], models.get(Condition.NLOS_BEST)))
    # A pin compares with ==, as the plain string "LOS" is a valid pin.
    return LinkStatistics(
        keys, tuple(float(scenario.conditions[key] == Condition.LOS)
                    if key in scenario.conditions else scenario.p_los
                    for key in keys),
        tuple(tuple(ci_mean_path_loss_db(m, x) for x in d) for m, _ in rows),
        tuple(m.sigma_db for m, _ in rows),
        tuple(None if b is None else
              tuple(ci_mean_path_loss_db(b, x) for x in d) for _, b in rows),
        tuple(None if b is None else b.sigma_db for _, b in rows))


def simulate_drop(scenario: Scenario, trials: int) -> Drops:
    """Run ``trials`` independent drops of the beam-sweep emulation.

    Trial t draws from the (seed, t) sub-stream in the layout the module
    docstring gives, so any prefix of trials is identical whatever the total
    and trials can be distributed without changing results.  Each trial only
    draws; batches of trials (normals of about ``_BATCH_BYTES``) then scale
    and shift each link's sweep by its row of :func:`link_statistics`, put
    in the row's best-pair draw, if any, and detect, pack and sum.
    A link shorter than 1 m, or too long for a finite length, raises ValueError.
    """
    import numpy as np
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    stats = link_statistics(scenario)
    p_los, sigma = np.array(stats.p_los), np.array(stats.sigma_db)
    mean = np.array(stats.mean_db)
    best = [(r, np.array(m), s) for r, (m, s) in enumerate(zip(
        stats.best_mean_db, stats.best_sigma_db)) if m is not None]
    limit = scenario.budget.max_pl_db
    sweep = scenario.sweep
    n_links, n_tx, n_rx = len(stats.keys), sweep.tx_angles, sweep.n_rx_directions
    n_pairs, width = n_tx * n_rx, lane_bytes(n_rx)
    batch = max(1, _BATCH_BYTES // (8 * n_links * n_pairs))

    omni = np.empty((trials, n_links))
    packed = np.zeros((trials, n_links, width), dtype=np.uint8)

    def chunk(lo: int, hi: int) -> None:
        size = min(batch, hi - lo)
        uniforms = np.empty((size, n_links))
        best_z = np.empty((size, n_links))
        block = np.empty((size, n_links, n_pairs))
        for b0 in range(lo, hi, batch):
            b1 = min(hi, b0 + batch)
            for i, t in enumerate(range(b0, b1)):
                rng = substream(scenario.seed, t)
                rng.random(out=uniforms[i])
                rng.standard_normal(out=block[i])
                if best:
                    rng.standard_normal(out=best_z[i])
            pl = block[:b1 - b0]
            los = uniforms[:b1 - b0] < p_los
            row = (~los).view(np.uint8)  # each (trial, link)'s table row
            pl *= sigma[row][..., None]
            pl += mean[row, range(n_links)][..., None]
            for r, best_mean, best_sigma in best:
                # A row's best-aligned angle pair follows its own statistics;
                # it replaces the lowest arbitrary-angle draw on that row's links.
                tt, ll = np.nonzero(row == r)
                pl[tt, ll, pl.argmin(axis=2)[tt, ll]] = (
                    best_mean[ll] + best_sigma * best_z[tt, ll])
            detect = pl <= limit
            covered = detect.reshape(b1 - b0, n_links, n_tx, n_rx).any(axis=2)
            packed[b0:b1, :, :(n_rx + 7) // 8] = np.packbits(
                covered, axis=2, bitorder="little")
            # Linear power exp(-PL ln10 / 10) summed over detected pairs; with
            # none detected the sum is 0 and the omni path loss +inf.
            pl *= -math.log(10.0) / 10.0
            np.exp(pl, out=pl)
            pl *= detect
            with np.errstate(divide="ignore"):
                omni[b0:b1] = -10.0 * np.log10(pl.sum(axis=2))

    _map_trials(chunk, trials)
    bits = {key: int.from_bytes(packed[:, i].tobytes(), "little")
            for i, key in enumerate(stats.keys)}
    return Drops(omni, MaskSet(bits, n_rx, trials))
