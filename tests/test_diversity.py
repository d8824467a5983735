"""Geometry, serving-set combinatorics and the drop simulator."""

import contextlib
import itertools
import math
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from mmwcomp import (CiModel, Condition, LinkBudget, MaskSet, Node,
                     PathLossSamples, Scenario, SweepGrid, ci_mean_path_loss_db,
                     combination_count, distance_3d,
                     edge_outage_probability, fit_ci, link_statistics,
                     reception_counts, simulate_drop, substream)
from mmwcomp import diversity
from mmwcomp.cli import _reception_rows
from mmwcomp.diversity import _map_trials
from mmwcomp.params import CAMPAIGN_SERVING_SETS, SOUNDER_LINK_BUDGET

LOS = CiModel(73.5, 2.0, 1.9)
NLOS = CiModel(73.5, 4.6, 11.4)
NLOS_BEST = CiModel(73.5, 2.9, 11.0)
MODELS = {Condition.LOS: LOS, Condition.NLOS: NLOS,
          Condition.NLOS_BEST: NLOS_BEST}


def bs(i, x, y):
    return Node(f"B{i}", x, y, 4.0)


def ue(i, x, y):
    return Node(f"U{i}", x, y, 1.4)


def scenario(bss, ues, models=MODELS, budget=SOUNDER_LINK_BUDGET, seed=73,
             sweep=SweepGrid(), **pins):
    """A Scenario; ``pins`` gives its ``conditions`` and ``p_los``, if any."""
    return Scenario(tuple(bss), tuple(ues), models, budget, sweep, seed=seed,
                    **pins)


def masks_by_trial(drops, n):
    """``drops.masks`` as one tuple per trial, indexed [t][i]: lane t of
    each link's packed mask over n RX directions.

    Also checks that the mask set has n directions and a lane per trial,
    and that every packed mask is exactly its lanes, so no bit lies
    outside the n direction bits of a trial's lane.
    """
    masks = drops.masks
    assert (masks.n_directions, masks.lanes) == (n, drops.omni_pl_db.shape[0])
    assert MaskSet(*masks) == masks  # building the record checks the fit
    return tuple(tuple(masks.lane(t).bits.values())
                 for t in range(masks.lanes))


def test_distance_3d_vertical_only():
    assert distance_3d(bs(1, 5.0, 5.0), ue(1, 5.0, 5.0)) == pytest.approx(
        2.6, abs=1e-12)


def test_distance_3d_with_horizontal_offset():
    assert distance_3d(bs(1, 0.0, 0.0), ue(1, 60.0, 0.0)) == pytest.approx(
        60.05630691276313, abs=1e-10)


def test_distance_3d_symmetric():
    a, b = bs(1, 3.0, -7.0), ue(1, 50.0, 12.0)
    assert distance_3d(a, b) == distance_3d(b, a)


def test_sweep_grid_defaults():
    grid = SweepGrid()
    assert grid.n_rx_directions == 72
    assert grid.tx_angles == 15


def test_sweep_grid_extended_sector():
    assert SweepGrid(tx_angles=17).n_rx_directions == 72


FULL = (1 << 72) - 1


def fixture_masks():
    """Campaign-topology masks with exactly 20 full-reception links."""
    links = [(u, b) for u in sorted(CAMPAIGN_SERVING_SETS)
             for b in sorted(CAMPAIGN_SERVING_SETS[u])]
    return MaskSet({link: FULL if i < 20 else FULL & ~(1 << (i % 72))
                    for i, link in enumerate(links)}, 72)


def probabilities(masks, topology, k_max):
    """k -> the full-coverage share of every lane's k-subsets, as the CLI
    writes it."""
    return {row.k: row.probability
            for row in _reception_rows(masks, topology, k_max)}


def test_reception_all_true_masks():
    masks = MaskSet(dict.fromkeys(fixture_masks().bits, FULL), 72)
    assert probabilities(masks, CAMPAIGN_SERVING_SETS, 5) == {
        k: 1.0 for k in range(1, 6)}


def test_reception_union_semantics():
    half_a = (1 << 36) - 1
    half_b = FULL ^ half_a
    topology = {"U1": ("B1", "B2")}
    masks = {("U1", "B1"): half_a, ("U1", "B2"): half_b}
    assert probabilities(MaskSet(masks, 72), topology, 2) == {1: 0.0, 2: 1.0}


def test_reception_counts_fixture_table():
    counts = reception_counts(fixture_masks(), CAMPAIGN_SERVING_SETS, 9)
    assert [combination_count(CAMPAIGN_SERVING_SETS, k)
            for k in sorted(counts)] == [36, 54, 42, 17, 3]
    assert counts[1] == 20


def drop_masks_with_stray_bit(bit):
    """The masks of a 2-trial drop from B1 and B2 to U1 on the 3 x 4 sweep,
    built again with ``bit`` also set in U1/B2's mask."""
    sc = scenario([bs(1, 10.0, 0.0), bs(2, 0.0, 10.0)], [ue(1, 0.0, 0.0)],
                  sweep=SMALL_SWEEP)
    bits = dict(simulate_drop(sc, 2).masks.bits)
    bits[("U1", "B2")] |= bit
    return MaskSet(bits, SMALL_R, 2)


# Library calls that raise ValueError, each with its exact message.
REJECTIONS = {
    "combination_count_k_0": (
        lambda: combination_count({"U1": ("B1",)}, 0), "k must be >= 1, got 0"),
    "reception_k_max_0": (
        lambda: reception_counts(fixture_masks(), CAMPAIGN_SERVING_SETS, 0),
        "k_max must be >= 1, got 0"),
    "reception_missing_mask": (
        lambda: reception_counts(MaskSet({("U1", "B1"): FULL}, 72),
                                 {"U1": ("B1", "B2")}, 1),
        "missing reception mask for link ('U1', 'B2')"),
    # A one-byte lane over 4 directions: bit 4 is lane 0's guard bit and
    # bit 16 would be a third trial's lane.
    "drop_mask_guard_bit": (
        lambda: drop_masks_with_stray_bit(1 << 4),
        "reception mask for link ('U1', 'B2') does not fit 2 lane(s) of 4 bits"),
    "drop_mask_third_lane": (
        lambda: drop_masks_with_stray_bit(1 << 16),
        "reception mask for link ('U1', 'B2') does not fit 2 lane(s) of 4 bits"),
    "simulate_0_trials": (
        lambda: simulate_drop(scenario([bs(1, 10.0, 0.0)], [ue(1, 0.0, 0.0)]),
                              0),
        "trials must be >= 1, got 0"),
    "substream_negative_seed": (
        lambda: substream(-1, 0), "seed must be non-negative, got -1"),
}


@pytest.mark.parametrize("call, message", list(REJECTIONS.values()),
                         ids=list(REJECTIONS))
def test_library_rejects(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("entry", [lambda sc: simulate_drop(sc, 2),
                                   link_statistics],
                         ids=["simulate_drop", "link_statistics"])
def test_simulate_drop_names_link_of_bad_length(entry):
    # The length rule holds for library callers too, not only for the CLI:
    # a 1e200 m link's squared length overflows, and 0.1 m is below the CI
    # model's reference distance.
    for x, message in ((1e200, "is too long for its length to be a finite "
                               "float"),
                       (0.1, "is shorter than the CI model's 1.0 m "
                             "reference")):
        sc = scenario([Node("B1", x, 0.0, 1.4)], [ue(1, 0.0, 0.0)])
        test_library_rejects(lambda: entry(sc), f"link U1/B1 {message}")


# Shadowing-free models and a 120 dB limit, which every LOS draw meets and
# no NLOS draw does on links of 30-125 m, with no best-beam replacement: a
# link's mask is full exactly when the link is LOS in that trial.
SIGMA0_MODELS = {Condition.LOS: CiModel(73.5, 2.0, 0.0),
                 Condition.NLOS: CiModel(73.5, 4.6, 0.0)}


def condition_scenario(bss, ues, conditions, p_los):
    return scenario(bss, ues, models=SIGMA0_MODELS, conditions=conditions,
                    p_los=p_los,
                    budget=LinkBudget(max_pl_db=120.0),
                    sweep=SMALL_SWEEP)


def los_by_trial(drops):
    """Each trial's LOS flags, [t][i], read from a ``condition_scenario``
    drop: every mask is full (LOS) or empty (NLOS)."""
    full = (1 << SMALL_R) - 1
    rows = masks_by_trial(drops, SMALL_R)
    assert {m for row in rows for m in row} <= {0, full}
    return [[m == full for m in row] for row in rows]


def documented_draws(sc, t):
    """Trial t's LOS flags and (L, T*R) sweep path losses, rebuilt from its
    sub-stream in the documented layout: L uniforms, the (L, T*R) normal
    block, then one best-pair normal per link if there is an NLOS_BEST model.

    A link is LOS when pinned so or when its uniform is below ``p_los``.
    Its sweep is the LOS or NLOS model's mean plus sigma times its normals;
    on an NLOS link with an NLOS_BEST model the lowest of them becomes the
    best-pair draw.
    """
    links = sc.links()
    best = sc.models.get(Condition.NLOS_BEST)
    rng = substream(sc.seed, t)
    uniforms = rng.random(len(links))
    normals = rng.standard_normal(
        (len(links), sc.sweep.tx_angles * sc.sweep.n_rx_directions))
    best_normals = rng.standard_normal(len(links)) if best else None
    los, pl = np.empty(len(links), bool), np.empty_like(normals)
    for i, (u, b) in enumerate(links):
        cond = sc.conditions.get((u.id, b.id))
        los[i] = (uniforms[i] < sc.p_los if cond is None
                  else cond is Condition.LOS)
        model = sc.models[Condition.LOS if los[i] else Condition.NLOS]
        d = distance_3d(u, b)
        pl[i] = oracles.ci_mean_db(model.ple, d) + model.sigma_db * normals[i]
        if best and not los[i]:
            pl[i, np.argmin(pl[i])] = (oracles.ci_mean_db(best.ple, d)
                                       + best.sigma_db * best_normals[i])
    return los, pl


def test_condition_policy_explicit_and_bernoulli():
    explicit = {("U1", "B1"): Condition.LOS, ("U1", "B3"): Condition.NLOS}
    bss = [bs(i, 30.0 * i, 0.0) for i in range(1, 4)]
    for p_los, expected in ((0.0, [True, False, False]),
                            (1.0, [True, True, False])):
        sc = condition_scenario(bss, [ue(1, 0.0, 0.0)], explicit, p_los)
        assert los_by_trial(simulate_drop(sc, 2)) == [expected] * 2
    # One uniform per link, explicit or not: the free middle link reads the
    # second uniform of each trial's sub-stream.
    sc = condition_scenario(bss, [ue(1, 0.0, 0.0)], explicit, 0.5)
    los = np.array(los_by_trial(simulate_drop(sc, 40)))
    free = [bool(substream(sc.seed, t).random(3)[1] < 0.5) for t in range(40)]
    assert los[:, 1].tolist() == free and 0 < sum(free) < 40
    assert los[:, 0].all() and not los[:, 2].any()
    assert np.array_equal(
        los, np.array([documented_draws(sc, t)[0] for t in range(40)]))


ONE_RX = {"rx_azimuths": 1, "rx_elevations": 1}


def sigma0_omni_db(ple, x, pairs=1):
    """The omni loss of ``pairs`` detected pairs, each at the CI mean of a
    link from a station at (x, 0) to a UE at the origin.  Equal-power pairs
    power-sum below the mean: one pair equals its directional loss, two
    gain 3.0103 dB."""
    d = distance_3d(bs(1, x, 0.0), ue(1, 0.0, 0.0))
    return oracles.ci_mean_db(ple, d) - 10.0 * math.log10(pairs)


# Shadowing-free drops of stations at (x, 0) to one UE at the origin:
# models, stations, pins, sweep, trials, then each link's detected RX
# directions and omni loss in every trial.  The 200 m NLOS mean of 175.6 dB
# exceeds the 175 dB budget at every angle; a 136.5 dB best-angle draw
# replaces one of them and is the only detected pair.  Scenario accepts a
# pin that equals Condition.LOS, such as the plain string "LOS", so the
# simulator must read that pin as LOS too.
SIGMA0_DROPS = {
    "los_1_pair": (SIGMA0_MODELS, [bs(1, 10.0, 0.0)], {"p_los": 1.0},
                   SweepGrid(tx_angles=1, **ONE_RX), 1, 1,
                   sigma0_omni_db(2.0, 10.0)),
    "los_2_pairs": (SIGMA0_MODELS, [bs(1, 10.0, 0.0)], {"p_los": 1.0},
                    SweepGrid(tx_angles=2, **ONE_RX), 1, 1,
                    sigma0_omni_db(2.0, 10.0, 2)),
    "los_15x72_pairs": (SIGMA0_MODELS, [bs(1, 10.0, 0.0)], {"p_los": 1.0},
                        SweepGrid(), 1, 72,
                        sigma0_omni_db(2.0, 10.0, 15 * 72)),
    "nlos_beyond_range": (SIGMA0_MODELS, [bs(1, 200.0, 0.0)], {"p_los": 0.0},
                          SweepGrid(), 1, 0, math.inf),
    "nlos_best_single_angle": (
        {**SIGMA0_MODELS, Condition.NLOS_BEST: CiModel(73.5, 2.9, 0.0)},
        [bs(1, 200.0, 0.0)], {"p_los": 0.0}, SweepGrid(), 1, 1,
        sigma0_omni_db(2.9, 200.0)),
    "pin_los": (SIGMA0_MODELS, [bs(1, 30.0, 0.0)],
                {"conditions": {("U1", "B1"): Condition.LOS}},
                SweepGrid(1, 1, 1), 1, 1, sigma0_omni_db(2.0, 30.0)),
    "pin_los_str": (SIGMA0_MODELS, [bs(1, 30.0, 0.0)],
                    {"conditions": {("U1", "B1"): "LOS"}},
                    SweepGrid(1, 1, 1), 1, 1, sigma0_omni_db(2.0, 30.0)),
    "two_stations_always_detectable": (
        {Condition.LOS: CiModel(73.5, 2.0, 0.0),
         Condition.NLOS: CiModel(73.5, 2.0, 0.0)},
        [bs(1, 10.0, 0.0), bs(2, 0.0, 10.0)], {}, SweepGrid(), 2, 72,
        sigma0_omni_db(2.0, 10.0, 15 * 72)),
}


@pytest.mark.parametrize("models, bss, pins, sweep, trials, seen, omni",
                         list(SIGMA0_DROPS.values()), ids=list(SIGMA0_DROPS))
def test_simulate_sigma0_drop_is_exact(models, bss, pins, sweep, trials, seen,
                                       omni):
    sc = scenario(bss, [ue(1, 0.0, 0.0)], models=models, sweep=sweep, **pins)
    drops = simulate_drop(sc, trials)
    assert list(drops.masks.bits) == [("U1", b.id) for b in bss]
    n = sweep.n_rx_directions
    assert [[m.bit_count() for m in row]
            for row in masks_by_trial(drops, n)] == [[seen] * len(bss)] * trials
    assert drops.omni_pl_db.tolist() == [
        [pytest.approx(omni, abs=1e-9)] * len(bss)] * trials
    assert mean_reception(sc, drops, len(bss)) == dict.fromkeys(
        range(1, len(bss) + 1), float(seen == n))


@pytest.mark.parametrize("p_los, condition", [
    (1.0, Condition.LOS), (0.0, Condition.NLOS_BEST)], ids=["LOS", "NLOS_BEST"])
def test_simulated_mean_is_the_closed_form_mean(p_los, condition):
    # With sigma 0 and one angle pair, a link's only draw is its mean: the
    # LOS mean, or on an NLOS link the best-pair mean that replaces it.  A
    # limit at ci_mean_path_loss_db's value detects it and one ulp below
    # does not, so simulate and coverage use the same bits per distance.
    flat = {c: m._replace(sigma_db=0.0) for c, m in MODELS.items()}
    sweep = SweepGrid(tx_angles=1, **ONE_RX)
    for x in np.linspace(1.0, 500.0, 400).tolist():
        b1, u1 = bs(1, 0.0, 0.0), ue(1, x, 0.0)
        mean = ci_mean_path_loss_db(flat[condition], distance_3d(u1, b1))
        for limit, seen in ((mean, 1), (math.nextafter(mean, 0.0), 0)):
            sc = scenario([b1], [u1], models=flat, sweep=sweep,
                          p_los=p_los,
                          budget=SOUNDER_LINK_BUDGET._replace(max_pl_db=limit))
            assert sc.budget.max_pl_db == limit
            masks = simulate_drop(sc, 1).masks
            assert masks == MaskSet({("U1", "B1"): seen}, 1), (x, limit)


def test_simulated_omni_fits_lower_ple_than_directional():
    # Power-summing many directional looks lowers the effective path loss,
    # so a CI fit over the omni losses sits below the directional slope.
    ues = [ue(i, 20.0 + 180.0 * i / 19, 0.0) for i in range(20)]
    sc = scenario([bs(1, 0.0, 0.0)], ues, p_los=0.0)
    drops = simulate_drop(sc, 10)
    d = {(u.id, b.id): distance_3d(u, b) for u, b in sc.links()}
    samples = PathLossSamples(*zip(*[
        (d[link], pl)
        for row in drops.omni_pl_db.tolist()
        for link, pl in zip(drops.masks.bits, row) if math.isfinite(pl)]))
    assert fit_ci(samples, 73.5).ple < NLOS.ple


def test_simulate_seed_changes_output():
    sc1 = scenario([bs(1, 40.0, 0.0)], [ue(1, 10.0, 10.0)], seed=1)
    sc2 = scenario([bs(1, 40.0, 0.0)], [ue(1, 10.0, 10.0)], seed=2)
    assert not np.array_equal(simulate_drop(sc1, 1).omni_pl_db,
                              simulate_drop(sc2, 1).omni_pl_db)


def test_best_n_sorted_and_order_invariant_to_bs_input_order():
    bss = [bs(1, 40.0, 0.0), bs(2, 0.0, 90.0), bs(3, -60.0, 10.0)]
    sc_fwd = scenario(bss, [ue(1, 5.0, 5.0)])
    sc_rev = scenario(list(reversed(bss)), [ue(1, 5.0, 5.0)])
    fwd = simulate_drop(sc_fwd, 1)
    rev = simulate_drop(sc_rev, 1)
    assert (list(fwd.masks.bits) == list(rev.masks.bits)
            == [("U1", "B1"), ("U1", "B2"), ("U1", "B3")])
    assert np.array_equal(fwd.omni_pl_db, rev.omni_pl_db)
    assert fwd.masks == rev.masks
    losses = np.sort(fwd.omni_pl_db.reshape(-1, 3), axis=1)[0].tolist()
    assert losses == sorted(fwd.omni_pl_db[0].tolist())


def mean_reception(sc, drops, k_max):
    """Full-coverage share of all trials' k-subsets, as ``simulate`` writes
    it, from one reduction with a lane per trial."""
    return probabilities(drops.masks, sc.topology(), k_max)


def test_reception_vs_k_monotone_under_shadowing():
    sc = scenario([bs(1, 150.0, 0.0), bs(2, 0.0, 160.0), bs(3, -170.0, 0.0)],
                  [ue(1, 0.0, 0.0), ue(2, 30.0, 30.0)],
                  p_los=0.0)
    probs = mean_reception(sc, simulate_drop(sc, 30), 3)
    assert probs[1] <= probs[2] + 1e-12
    assert probs[2] <= probs[3] + 1e-12
    assert 0.0 <= probs[1] and probs[3] <= 1.0


def test_reception_vs_k_bounds():
    sc = scenario([bs(1, 10.0, 0.0)], [ue(1, 0.0, 0.0)])
    # No serving set reaches k = 2, so only k = 1 is counted.
    assert mean_reception(sc, simulate_drop(sc, 1), 2).keys() == {1}


# Analytic oracles for the simulator.  A small sweep grid (T = 3 TX angles,
# R = 4 RX directions) keeps trials cheap; four UEs on a circle around one
# base station give four independent, identically distributed links per
# trial, so k=1 reception is a mean of 4 * trials Bernoulli outcomes.
SMALL_T, SMALL_R = 3, 4
SMALL_SWEEP = SweepGrid(tx_angles=SMALL_T, rx_azimuths=SMALL_R,
                        rx_elevations=1)
ORACLE_TRIALS = 1000


def ring_scenario(radius_m, models, p_los, max_pl_db):
    ues = [ue(i, radius_m * math.cos(i), radius_m * math.sin(i))
           for i in range(4)]
    budget = LinkBudget(max_pl_db=max_pl_db)
    return scenario([bs(1, 0.0, 0.0)], ues, models=models, p_los=p_los,
                    budget=budget, sweep=SMALL_SWEEP)


def assert_k1_within_5se(sc, expected):
    probs = mean_reception(sc, simulate_drop(sc, ORACLE_TRIALS), 1)
    se = math.sqrt(expected * (1.0 - expected) / (4 * ORACLE_TRIALS))
    assert abs(probs[1] - expected) <= 5.0 * se, (probs[1], expected, se)


def test_los_k1_reception_matches_closed_form():
    radius, max_pl = 100.0, 110.0
    # The ring's links span ``radius`` across and 4.0 - 1.4 m in height.
    d = math.hypot(radius, 2.6)
    expected = oracles.los_full_reception(
        max_pl, oracles.ci_mean_db(LOS.ple, d), LOS.sigma_db, SMALL_T, SMALL_R)
    assert 0.2 < expected < 0.8
    assert_k1_within_5se(ring_scenario(radius, MODELS, 1.0, max_pl), expected)


@pytest.mark.parametrize("max_pl_db", [150.0, 130.0])
def test_simulate_k1_reception_matches_edge_coverage(max_pl_db):
    # With one TX angle and one RX direction a link is received exactly when
    # its single draw stays within the detection limit, so simulate's k=1
    # reception estimates coverage's 1 - edge outage at the link distance.
    station, user = bs(1, 0.0, 0.0), ue(1, 30.0, 0.0)
    sc = scenario([station], [user],
                  models={Condition.LOS: LOS, Condition.NLOS: NLOS},
                  conditions={("U1", "B1"): Condition.NLOS},
                  budget=LinkBudget(max_pl_db=max_pl_db),
                  sweep=SweepGrid(tx_angles=1, rx_azimuths=1,
                                  rx_elevations=1))
    trials = 4000
    expected = 1.0 - edge_outage_probability(NLOS, sc.budget,
                                             distance_3d(user, station))
    assert 0.2 < expected < 0.9
    got = mean_reception(sc, simulate_drop(sc, trials), 1)[1]
    se = math.sqrt(expected * (1.0 - expected) / trials)
    assert abs(got - expected) <= 5.0 * se, (got, expected, se)


@pytest.mark.parametrize("best", [NLOS_BEST,
                                  CiModel(73.5, 6.0, 1.0)])
def test_nlos_best_beam_k1_reception_matches_order_statistic(best):
    # The second best-beam model is never detected, so replacing the lowest
    # draw removes it: reception falls well below the no-replacement value.
    radius, max_pl = 40.0, 145.0
    d = math.hypot(radius, 2.6)
    mean = oracles.ci_mean_db(NLOS.ple, d)
    expected = oracles.nlos_full_reception(
        max_pl, mean, NLOS.sigma_db, oracles.ci_mean_db(best.ple, d),
        best.sigma_db, SMALL_T, SMALL_R)
    no_best = oracles.los_full_reception(max_pl, mean, NLOS.sigma_db, SMALL_T,
                                         SMALL_R)
    assert 0.2 < expected < 0.8
    if best is not NLOS_BEST:
        assert no_best - expected > 0.1
    models = {Condition.LOS: LOS, Condition.NLOS: NLOS, Condition.NLOS_BEST: best}
    assert_k1_within_5se(ring_scenario(radius, models, 0.0, max_pl),
                         expected)


def test_omni_within_budget_iff_mask_nonzero():
    budget = LinkBudget(max_pl_db=120.0)
    sc = scenario([bs(1, 40.0, 0.0), bs(2, 0.0, 90.0), bs(3, -30.0, -20.0)],
                  [ue(1, 10.0, 10.0), ue(2, -20.0, 40.0)],
                  p_los=0.5, budget=budget,
                  sweep=SMALL_SWEEP)
    seen = set()
    drops = simulate_drop(sc, 200)
    for row, omni_row in zip(masks_by_trial(drops, SMALL_R),
                             drops.omni_pl_db.tolist()):
        for mask, omni in zip(row, omni_row):
            if mask:
                assert omni <= budget.max_pl_db + 1e-9
            else:
                assert math.isinf(omni) and omni > 0
            seen.add(bool(mask))
    assert seen == {True, False}


def test_los_share_of_random_links_matches_p_los():
    p_los, trials = 0.3, 300
    explicit = {("U1", "B1"): Condition.LOS, ("U2", "B3"): Condition.NLOS}
    sc = condition_scenario([bs(i, 30.0 * i, 0.0) for i in range(1, 4)],
                            [ue(i, 0.0, 20.0 * i) for i in range(1, 5)],
                            explicit, p_los)
    n_los = n = 0
    drops = simulate_drop(sc, trials)
    for link, los in zip(drops.masks.bits,
                         np.array(los_by_trial(drops)).T.tolist()):
        if link in explicit:
            assert los == [explicit[link] is Condition.LOS] * trials
        else:
            n_los += sum(los)
            n += trials
    assert n == 10 * trials
    se = math.sqrt(p_los * (1.0 - p_los) / n)
    assert abs(n_los / n - p_los) <= 5.0 * se


def test_golden_trial_zero():
    # Pins the per-trial stream layout: one uniform per link, the (L, T*R)
    # normal block, then one best-beam normal per link.  A change here must
    # be a deliberate change of the realised simulate values.
    conditions = {("U1", "B1"): Condition.NLOS, ("U1", "B2"): Condition.LOS,
                  ("U2", "B1"): Condition.LOS}
    sc = scenario([bs(1, 0.0, 0.0), bs(2, 120.0, 0.0)],
                  [ue(1, 20.0, 0.0), ue(2, 100.0, 10.0)],
                  conditions=conditions, p_los=0.5,
                  budget=LinkBudget(max_pl_db=108.0),
                  seed=75)
    drops = simulate_drop(sc, 1)
    # One trial: each link's packed mask is its lane-0 mask alone.
    assert list(drops.masks.bits.items()) == [
        (("U1", "B1"), 0xe811344061c655c47a),
        (("U1", "B2"), 0xd7ffffffffffffffbf),
        (("U2", "B1"), 0xffdffddfffffefcffe),
        (("U2", "B2"), 0x1044006a430000aad1)]
    expected_omni = [86.26707598711603, 84.13904572926874,
                     84.68460688675947, 88.6393954055026]
    assert drops.omni_pl_db[0].tolist() == pytest.approx(expected_omni,
                                                         abs=1e-9)


_SIGMAS = st.just(0.0) | st.floats(0.5, 12.0)


@st.composite
def policy_scenarios(draw):
    """Up to 3 links on the 3 x 4 sweep, with or without NLOS_BEST, each link
    pinned LOS, pinned NLOS or drawn."""
    n_bs = draw(st.integers(1, 3))
    n_ue = draw(st.integers(1, 3 // n_bs))
    xy = st.floats(-150.0, 150.0)
    bss = [bs(i, draw(xy), draw(xy)) for i in range(n_bs)]
    ues = [ue(i, draw(xy), draw(xy)) for i in range(n_ue)]
    models = {Condition.LOS: CiModel(73.5, draw(st.floats(1.5, 3.0)),
                                     draw(_SIGMAS)),
              Condition.NLOS: CiModel(73.5, draw(st.floats(2.5, 5.0)),
                                      draw(_SIGMAS))}
    if draw(st.booleans()):
        models[Condition.NLOS_BEST] = CiModel(
            73.5, draw(st.floats(2.0, 4.0)), draw(_SIGMAS))
    pins = st.sampled_from([None, Condition.LOS, Condition.NLOS])
    explicit = {(u.id, b.id): c for u in ues for b in bss
                if (c := draw(pins)) is not None}
    p_los = draw(st.floats(0.0, 1.0))
    budget = LinkBudget(max_pl_db=draw(st.floats(80.0, 140.0)))
    return scenario(bss, ues, models=models, conditions=explicit, p_los=p_los,
                    budget=budget, seed=draw(st.integers(0, 2**32)),
                    sweep=SMALL_SWEEP)


# 3 BS x 2 UE on a 3 x 4 x 2 sweep: the links span 150-220 m, where NLOS
# detection is partial.
PARTIAL_DETECTION = scenario(
    [bs(1, 160.0, 0.0), bs(2, 0.0, 230.0), bs(3, -190.0, 40.0)],
    [ue(1, 10.0, 10.0), ue(2, -30.0, 60.0)],
    sweep=SweepGrid(tx_angles=3, rx_azimuths=4, rx_elevations=2))


def check_draw_policy(sc, trials):
    """Rebuild every trial's draws as ``documented_draws`` gives them and
    check each link's mask and omni loss against them.  The omni loss is
    the power sum over the n detected pairs, so it lies between the best
    pair and the best pair minus 10 log10(n).  Returns the number of links
    whose detection was partial (1 < n < T·R)."""
    sweep = sc.sweep
    n_pairs = sweep.tx_angles * sweep.n_rx_directions
    drops = simulate_drop(sc, trials)
    masks = masks_by_trial(drops, sweep.n_rx_directions)
    bounded = 0
    for t in range(trials):
        for i, pl in enumerate(documented_draws(sc, t)[1]):
            detect = pl <= sc.budget.max_pl_db
            covered = detect.reshape(sweep.tx_angles, -1).any(axis=0)
            assert masks[t][i] == sum(1 << int(r)
                                      for r in np.flatnonzero(covered))
            got, n = drops.omni_pl_db[t, i], int(detect.sum())
            if n == 0:
                assert got == math.inf, (t, i, got)
                continue
            omni = -10.0 * math.log10(np.sum(10.0 ** (-pl[detect] / 10.0)))
            assert abs(got - omni) <= 1e-9, (t, i, got, omni)
            best = pl[detect].min()
            assert best - 10.0 * math.log10(n) - 1e-9 <= got <= best + 1e-9
            bounded += 1 < n < n_pairs
    return bounded


@given(policy_scenarios(), st.integers(1, 2))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_draw_policy_matches_documented_rules(sc, trials):
    check_draw_policy(sc, trials)


def test_simulate_omni_bounded_by_best_detected_pair():
    assert check_draw_policy(PARTIAL_DETECTION, 6) >= 5


# Exact k >= 2 reception.  Without an NLOS_BEST model every RX direction of
# a link is covered independently, with q = 1 - (1 - p)^T, so a k-subset S
# receives with [1 - prod_S (1 - q)]^R given the conditions of S; random
# conditions are summed out over the 2^B LOS/NLOS patterns of a user's
# links.  The Monte Carlo bound uses the exact pairwise joint reception
# [1 - m_S - m_S' + m_{S u S'}]^R, with m the per-direction miss product.
DENSE_MODELS = {Condition.LOS: CiModel(73.5, 2.0, 6.0),
                Condition.NLOS: CiModel(73.5, 3.0, 9.0)}
DENSE_TRIALS = 400
DENSE_BSS = [bs(i, 25.0 * i * math.cos(i), 25.0 * i * math.sin(i))
             for i in range(1, 7)]
DENSE_UES = [ue(i, 10.0 * i, -5.0 * i) for i in range(1, 4)]


def dense_scenario(pins, max_pl_db):
    return scenario(DENSE_BSS, DENSE_UES, models=DENSE_MODELS, **pins,
                    budget=LinkBudget(max_pl_db=max_pl_db),
                    seed=7, sweep=SMALL_SWEEP)


def exact_reception(sc, k, trials):
    """Exact k-subset reception of ``sc`` and the standard error of its
    ``trials``-trial estimate: (mean over users and subsets, SE)."""
    bss = sorted(sc.base_stations, key=lambda n: n.id)
    n_bs = len(bss)
    # Row a: bit j of a, read as link j's LOS flag in condition pattern a,
    # or as whether link j belongs to the link set with bitmask a.
    los_state = (np.arange(1 << n_bs)[:, None] >> np.arange(n_bs)) & 1
    member = los_state.astype(bool)
    bits = np.array([sum(1 << j for j in s)
                     for s in itertools.combinations(range(n_bs), k)])
    union = bits[:, None] | bits[None, :]
    means, variances = [], []
    for u in sorted(sc.ues, key=lambda n: n.id):
        miss = np.empty((2, n_bs))    # [NLOS, LOS] per-direction miss
        weight = np.empty((2, n_bs))  # [NLOS, LOS] condition probability
        for j, b in enumerate(bss):
            for state, cond in enumerate((Condition.NLOS, Condition.LOS)):
                model = sc.models[cond]
                mean = oracles.ci_mean_db(model.ple, distance_3d(u, b))
                p = special.ndtr((sc.budget.max_pl_db - mean) / model.sigma_db)
                miss[state, j] = (1.0 - p) ** sc.sweep.tx_angles
            pinned = sc.conditions.get((u.id, b.id))
            p_los = (sc.p_los if pinned is None
                     else float(pinned is Condition.LOS))
            weight[:, j] = 1.0 - p_los, p_los
        pattern_p = np.prod(weight[los_state, np.arange(n_bs)], axis=1)
        link_miss = miss[los_state, np.arange(n_bs)]
        set_miss = np.prod(np.where(member[None], link_miss[:, None, :], 1.0),
                           axis=2)  # (pattern, link set)
        m = set_miss[:, bits]
        r = sc.sweep.n_rx_directions
        full = pattern_p @ (1.0 - m) ** r
        both = np.einsum("p,pij->ij", pattern_p, np.maximum(
            1.0 - m[:, :, None] - m[:, None, :] + set_miss[:, union], 0.0) ** r)
        means.append(full.mean())
        variances.append(both.mean() - full.mean() ** 2)
    n_ue = len(means)
    return (float(np.mean(means)),
            math.sqrt(max(sum(variances), 0.0) / trials) / n_ue)


_DENSE_KEYS = [(u.id, b.id) for u in DENSE_UES for b in DENSE_BSS]


@pytest.mark.parametrize("pins,max_pl_db", [
    ({"p_los": 1.0}, 100.0),
    ({"conditions": {key: Condition.LOS if i % 3 == 0 else Condition.NLOS
                     for i, key in enumerate(_DENSE_KEYS)}}, 108.0),
    ({"p_los": 0.4}, 110.0),
], ids=["pinned_los", "pinned_mixed", "bernoulli"])
def test_k_subset_reception_matches_exact_oracle(pins, max_pl_db):
    sc = dense_scenario(pins, max_pl_db)
    probs = mean_reception(sc, simulate_drop(sc, DENSE_TRIALS), 6)
    for k in range(2, 7):
        expected, se = exact_reception(sc, k, DENSE_TRIALS)
        assert 0.2 < expected < 0.9995, (k, expected)
        assert abs(probs[k] - expected) <= 5.0 * se + 1e-12, (k, probs[k],
                                                             expected, se)


def _with_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def mixed_scenario():
    """3 BS x 2 UE with pinned and drawn conditions and NLOS_BEST."""
    sc = scenario([bs(1, 40.0, 0.0), bs(2, 0.0, 90.0), bs(3, -60.0, 10.0)],
                  [ue(1, 10.0, 10.0), ue(2, -20.0, 40.0)],
                  conditions={("U1", "B1"): Condition.LOS,
                              ("U2", "B3"): Condition.NLOS}, p_los=0.5,
                  budget=LinkBudget(max_pl_db=130.0),
                  sweep=SMALL_SWEEP)
    assert Condition.NLOS_BEST in sc.models
    return sc


def test_link_statistics_state_each_link():
    sc = mixed_scenario()
    stats = link_statistics(sc)
    links = sc.links()
    assert stats.keys == tuple((u.id, b.id) for u, b in links)
    # Pinned LOS, pinned NLOS, and p_los on every drawn link.
    assert stats.p_los == tuple(
        {("U1", "B1"): 1.0, ("U2", "B3"): 0.0}.get(key, 0.5)
        for key in stats.keys)
    for r, cond in enumerate((Condition.LOS, Condition.NLOS)):
        model = sc.models[cond]
        assert stats.mean_db[r] == tuple(
            ci_mean_path_loss_db(model, distance_3d(u, b)) for u, b in links)
        assert stats.sigma_db[r] == model.sigma_db
    best = sc.models[Condition.NLOS_BEST]
    assert (stats.best_mean_db[0], stats.best_sigma_db[0]) == (None, None)
    assert stats.best_mean_db[1] == tuple(
        ci_mean_path_loss_db(best, distance_3d(u, b)) for u, b in links)
    assert stats.best_sigma_db[1] == best.sigma_db
    no_best = link_statistics(sc._replace(models={Condition.LOS: LOS,
                                                  Condition.NLOS: NLOS}))
    assert no_best.best_mean_db == no_best.best_sigma_db == (None, None)
    assert no_best.mean_db == stats.mean_db


def _batches_of(n):
    """Batches of n trials of ``mixed_scenario``, so the last batch of a
    chunk may be short."""
    trial_bytes = 8 * len(mixed_scenario().links()) * SMALL_T * SMALL_R
    return lambda monkeypatch: monkeypatch.setattr(
        diversity, "_BATCH_BYTES", n * trial_bytes)


def _no_affinity(monkeypatch):
    # Where os has no sched_getaffinity, the chunks follow os.cpu_count().
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)


def _daemon(monkeypatch):
    # Daemonic processes, such as multiprocessing.Pool workers, may not
    # start children of their own; the trial chunks run on threads there too.
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)


# Splits of the trials: trials, usable CPUs and any other patch.
SPLITS = {
    **{f"{t}_trials_{c}_cpus": (t, c, None)
       for t in (1, 2, 3, 5, 7) for c in (1, 2, 3)},
    **{f"7_trials_{c}_cpus_batches_of_{n}": (7, c, _batches_of(n))
       for n in (1, 2, 3) for c in (1, 2)},
    "9_trials_8_cpus": (9, 8, None),
    "5_trials_3_cpus_without_affinity": (5, 3, _no_affinity),
    "3_trials_2_cpus_daemon": (3, 2, _daemon),
}


@pytest.mark.parametrize("trials, cpus, patch", list(SPLITS.values()),
                         ids=list(SPLITS))
def test_simulate_output_independent_of_trial_split(monkeypatch, trials, cpus,
                                                    patch):
    # Trial t's output is the same whatever the trial count, chunks and
    # batches: a prefix of one reference run.  The chunks share the output
    # arrays, switching threads every microsecond, so a chunk writing
    # outside its own rows would show.
    sc = mixed_scenario()
    _with_cpus(monkeypatch, 1)
    reference = simulate_drop(sc, 9)
    _with_cpus(monkeypatch, cpus)
    if patch:
        patch(monkeypatch)
    chunks = []
    map_trials = diversity._map_trials
    monkeypatch.setattr(diversity, "_map_trials", lambda fn, n: map_trials(
        lambda lo, hi: chunks.append((lo, hi)) or fn(lo, hi), n))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _no_threads_left(), _deadline(60):
            drops = simulate_drop(sc, trials)
    finally:
        sys.setswitchinterval(interval)
    w = min(trials, cpus)
    assert sorted(chunks) == [(trials * i // w, trials * (i + 1) // w)
                              for i in range(w)]
    assert drops.omni_pl_db.tobytes() == reference.omni_pl_db[:trials].tobytes()
    assert (masks_by_trial(drops, SMALL_R)
            == masks_by_trial(reference, SMALL_R)[:trials])


THREE_BSS = [bs(1, 40.0, 0.0), bs(2, 0.0, 90.0), bs(3, -60.0, 10.0)]
THREE_UES = [ue(1, 10.0, 10.0), ue(2, -20.0, 40.0), ue(3, 30.0, -50.0)]


@pytest.mark.parametrize("bss, ues, topology, max_pl_db, trials, k_max", [
    (THREE_BSS, THREE_UES, None, 130.0, 9, 3),
    # U1 and U3 share a serving set and one kernel call; U2's set differs.
    (THREE_BSS, THREE_UES, {"U1": ("B1", "B2", "B3"), "U2": ("B3", "B2"),
                            "U3": ("B3", "B1", "B2")}, 130.0, 9, 3),
    # Up to 2 * C(10, 5) = 504 hits per trial, more than one byte holds.
    ([bs(i, 20.0 * i * math.cos(i), 20.0 * i * math.sin(i))
      for i in range(1, 11)], [ue(1, 0.0, 0.0), ue(2, 15.0, 5.0)], None,
     125.0, 5, 5),
], ids=["3bs_3ue", "3bs_shared_serving_sets", "10bs_counts_over_a_byte"])
def test_stacked_reduction_matches_per_trial_counts(monkeypatch, bss, ues,
                                                     topology, max_pl_db,
                                                     trials, k_max):
    sc = scenario(bss, ues, conditions={("U1", "B1"): Condition.LOS,
                                        ("U2", "B3"): Condition.NLOS},
                  p_los=0.6, sweep=SMALL_SWEEP,
                  budget=LinkBudget(max_pl_db=max_pl_db))
    assert Condition.NLOS_BEST in sc.models
    topology = topology or sc.topology()
    los = np.array([documented_draws(sc, t)[0] for t in range(trials)])
    assert los.any() and not los.all()
    for cpus in (1, 2, 3):
        _with_cpus(monkeypatch, cpus)
        drops = simulate_drop(sc, trials)
        per_trial = [reception_counts(drops.masks.lane(t), topology, k_max)
                     for t in range(trials)]
        stacked = reception_counts(drops.masks, topology, k_max)
        assert stacked == {k: sum(c[k] for c in per_trial)
                           for k in range(1, k_max + 1)}
        share = list(probabilities(drops.masks, topology, k_max).values())
        assert 0.0 < share[0] < share[k_max - 2] < 1.0


@contextlib.contextmanager
def _deadline(seconds):
    def hung(signum, frame):
        raise TimeoutError("trial workers did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _no_threads_left():
    """Asserts that the block leaves as many threads running as it found."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def _reception_chunks(bad_trial):
    """A chunk function over 7 trials whose trial ``bad_trial`` lacks a mask."""
    sc = scenario([bs(1, 40.0, 0.0), bs(2, 0.0, 90.0)], [ue(1, 10.0, 10.0)],
                  sweep=SMALL_SWEEP)
    drops = simulate_drop(sc, 7)
    lanes = [drops.masks.lane(t) for t in range(7)]
    bad = lanes[bad_trial]
    lanes[bad_trial] = bad._replace(bits=dict(list(bad.bits.items())[:-1]))

    def chunk(lo, hi):
        return [reception_counts(m, sc.topology(), 2) for m in lanes[lo:hi]]
    return chunk


def _second_chunk_fails_last():
    """A chunk function over 5 trials on 3 CPUs whose chunks 1 and 2 fail,
    chunk 2 first."""
    def chunk(lo, hi):
        if lo == 1:
            time.sleep(0.05)
            raise KeyError(lo)
        if lo == 3:
            raise ValueError(lo)
    return chunk


# Failing chunks: usable CPUs, trials, the chunk function's maker, and the
# error and message that reach the caller.
CHUNK_ERRORS = {
    "last_chunk": (2, 7, lambda: _reception_chunks(6), ValueError,
                   "missing reception mask"),
    "first_chunk": (2, 7, lambda: _reception_chunks(0), ValueError,
                    "missing reception mask"),
    "two_chunks": (3, 5, _second_chunk_fails_last, KeyError, None),
}


@pytest.mark.parametrize("cpus, trials, make_chunk, error, match",
                         list(CHUNK_ERRORS.values()), ids=list(CHUNK_ERRORS))
def test_lowest_failing_chunk_raises_after_every_chunk_ends(
        monkeypatch, cpus, trials, make_chunk, error, match):
    _with_cpus(monkeypatch, cpus)
    chunk, ended = make_chunk(), []

    def run(lo, hi):
        try:
            chunk(lo, hi)
        finally:
            ended.append(lo)

    with _no_threads_left(), _deadline(60):
        with pytest.raises(error, match=match):
            _map_trials(run, trials)
    assert sorted(ended) == [trials * i // cpus for i in range(cpus)]
