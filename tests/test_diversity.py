"""Geometry, serving-set combinatorics and the drop simulator."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special

from mmwcomp import (CiModel, Condition, ConditionPolicy, LinkBudget, Node,
                     Scenario, SweepGrid, combination_count, distance_3d,
                     nearest_neighbor_order, nn_distance_stats,
                     reception_counts, reception_vs_serving_count,
                     simulate_drop, substream)
from mmwcomp.params import CAMPAIGN_SERVING_SETS, SOUNDER_LINK_BUDGET

LOS = CiModel(73.5, 2.0, 1.9, Condition.LOS)
NLOS = CiModel(73.5, 4.6, 11.4, Condition.NLOS)
NLOS_BEST = CiModel(73.5, 2.9, 11.0, Condition.NLOS_BEST)
MODELS = {Condition.LOS: LOS, Condition.NLOS: NLOS,
          Condition.NLOS_BEST: NLOS_BEST}


def bs(i, x, y):
    return Node(f"B{i}", x, y, 4.0)


def ue(i, x, y):
    return Node(f"U{i}", x, y, 1.4)


def scenario(bss, ues, models=MODELS, policy=None, budget=SOUNDER_LINK_BUDGET,
             seed=73, sweep=SweepGrid()):
    return Scenario(tuple(bss), tuple(ues), policy or ConditionPolicy(),
                    models, budget, sweep, seed)


def all_nlos():
    return ConditionPolicy(p_los=0.0)


def test_distance_3d_vertical_only():
    assert distance_3d(bs(1, 5.0, 5.0), ue(1, 5.0, 5.0)) == pytest.approx(
        2.6, abs=1e-12)


def test_distance_3d_with_horizontal_offset():
    assert distance_3d(bs(1, 0.0, 0.0), ue(1, 60.0, 0.0)) == pytest.approx(
        60.05630691276313, abs=1e-10)


def test_distance_3d_symmetric():
    a, b = bs(1, 3.0, -7.0), ue(1, 50.0, 12.0)
    assert distance_3d(a, b) == distance_3d(b, a)


def test_node_height_validation():
    with pytest.raises(ValueError):
        Node("B1", 0.0, 0.0, 0.0)


def test_sweep_grid_defaults():
    grid = SweepGrid()
    assert grid.n_rx_directions == 72
    assert grid.tx_angles == 15


def test_sweep_grid_extended_sector():
    assert SweepGrid(tx_angles=17).n_rx_directions == 72


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(rx_azimuths=24, rx_step_deg=10.0)  # 240 != 360
    with pytest.raises(ValueError):
        SweepGrid(tx_angles=0)


def test_nearest_neighbor_order():
    sc = scenario([bs(1, 80.0, 0.0), bs(2, 21.0, 0.0), bs(3, 50.0, 0.0)],
                  [ue(1, 0.0, 0.0)])
    assert nearest_neighbor_order(sc.ues[0], sc) == ["B2", "B3", "B1"]


def test_nearest_neighbor_tie_by_id():
    sc = scenario([bs(2, 30.0, 0.0), bs(1, -30.0, 0.0)], [ue(1, 0.0, 0.0)])
    assert nearest_neighbor_order(sc.ues[0], sc) == ["B1", "B2"]


def test_nn_stats_two_ues():
    sc = scenario([bs(1, 0.0, 0.0)],
                  [ue(1, 0.0, 0.0), ue(2, 0.0, 0.0)])
    # Place the UEs so their single-BS distances are exactly 40 and 80 m.
    h = 2.6
    d1, d2 = 40.0, 80.0
    sc = scenario([bs(1, 0.0, 0.0)],
                  [Node("U1", math.sqrt(d1**2 - h**2), 0.0, 1.4),
                   Node("U2", math.sqrt(d2**2 - h**2), 0.0, 1.4)])
    stats = nn_distance_stats(sc)[1]
    assert stats.mean_m == pytest.approx(60.0, abs=1e-9)
    assert stats.median_m == pytest.approx(60.0, abs=1e-9)
    assert stats.std_m == pytest.approx(20.0, abs=1e-9)  # population std
    assert stats.min_m == pytest.approx(40.0, abs=1e-9)
    assert stats.max_m == pytest.approx(80.0, abs=1e-9)


def test_nn_stats_equidistant():
    sc = scenario([bs(1, 0.0, 0.0)],
                  [ue(1, 30.0, 0.0), ue(2, -30.0, 0.0), ue(3, 0.0, 30.0)])
    stats = nn_distance_stats(sc)[1]
    assert stats.std_m == pytest.approx(0.0, abs=1e-12)
    assert stats.mean_m == pytest.approx(stats.median_m, abs=1e-12)


def test_nn_stats_rank_bounds():
    sc = scenario([bs(1, 0.0, 0.0), bs(2, 50.0, 0.0)], [ue(1, 10.0, 0.0)])
    with pytest.raises(ValueError):
        nn_distance_stats(sc, max_rank=3)
    assert set(nn_distance_stats(sc, max_rank=2)) == {1, 2}


def test_campaign_combination_counts():
    counts = [combination_count(CAMPAIGN_SERVING_SETS, k) for k in range(1, 6)]
    assert counts == [36, 54, 42, 17, 3]


def test_combinations_against_brute_force():
    topology = {"U1": ("B1", "B2", "B3", "B4"), "U2": ("B2", "B5"),
                "U3": ("B1",)}
    for k in range(1, 5):
        brute = [sub for s in topology.values()
                 for sub in itertools.combinations(s, k)]
        assert combination_count(topology, k) == len(brute)


def test_combinations_k_too_large_is_empty():
    assert combination_count({"U1": ("B1", "B2")}, 3) == 0


def test_combinations_k_validation():
    with pytest.raises(ValueError):
        combination_count({"U1": ("B1",)}, 0)


FULL = (1 << 72) - 1


def holed_mask(hole=0):
    return FULL & ~(1 << hole)


def fixture_masks(n_full=20):
    """Campaign-topology masks with exactly n_full full-reception links."""
    links = [(u, b) for u in sorted(CAMPAIGN_SERVING_SETS)
             for b in sorted(CAMPAIGN_SERVING_SETS[u])]
    return {link: FULL if i < n_full else holed_mask(i % 72)
            for i, link in enumerate(links)}


def probabilities(masks, topology, k_max, n_directions=72):
    counts = reception_counts(masks, topology, k_max, n_directions)
    return {k: hits / n for k, (hits, n) in counts.items()}


def test_k1_reception_fixture():
    p = probabilities(fixture_masks(20), CAMPAIGN_SERVING_SETS, 1)[1]
    assert 100.0 * p == pytest.approx(100.0 * 20 / 36, abs=1e-9)


def test_reception_all_true_masks():
    masks = dict.fromkeys(fixture_masks(), FULL)
    assert probabilities(masks, CAMPAIGN_SERVING_SETS, 5) == {
        k: 1.0 for k in range(1, 6)}


def test_reception_union_semantics():
    half_a = (1 << 36) - 1
    half_b = FULL ^ half_a
    topology = {"U1": ("B1", "B2")}
    masks = {("U1", "B1"): half_a, ("U1", "B2"): half_b}
    assert probabilities(masks, topology, 2) == {1: 0.0, 2: 1.0}


def test_reception_missing_record():
    topology = {"U1": ("B1", "B2")}
    with pytest.raises(ValueError, match="missing reception mask"):
        reception_counts({("U1", "B1"): FULL}, topology, 1, 72)


def test_reception_k_max_validation():
    with pytest.raises(ValueError):
        reception_counts(fixture_masks(), CAMPAIGN_SERVING_SETS, 0, 72)


def test_reception_monotone_in_k_on_fixture():
    probs = probabilities(fixture_masks(20), CAMPAIGN_SERVING_SETS, 5)
    assert all(probs[k + 1] >= probs[k] - 1e-12 for k in range(1, 5))


def test_reception_counts_fixture_table():
    counts = reception_counts(fixture_masks(20), CAMPAIGN_SERVING_SETS, 9, 72)
    assert [counts[k][1] for k in sorted(counts)] == [36, 54, 42, 17, 3]
    assert counts[1] == (20, 36)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario([], [ue(1, 0.0, 0.0)])
    with pytest.raises(ValueError):
        scenario([bs(1, 0.0, 0.0)], [])
    with pytest.raises(ValueError):
        scenario([bs(1, 0.0, 0.0), bs(1, 9.0, 0.0)], [ue(1, 0.0, 0.0)])
    with pytest.raises(ValueError):
        scenario([bs(1, 0.0, 0.0)], [ue(1, 0.0, 0.0)],
                 models={Condition.LOS: LOS})


def test_condition_policy_explicit_and_bernoulli():
    explicit = {("U1", "B1"): Condition.LOS, ("U1", "B3"): Condition.NLOS}
    links = [("U1", "B1"), ("U1", "B2"), ("U1", "B3")]
    never = ConditionPolicy(explicit=explicit, p_los=0.0)
    assert never.resolve_los(links, substream(1, 0)).tolist() == [
        True, False, False]
    sure = ConditionPolicy(explicit=explicit, p_los=1.0)
    assert sure.resolve_los(links, substream(1, 0)).tolist() == [
        True, True, False]
    # One uniform per link, explicit or not.
    rng = substream(1, 0)
    never.resolve_los(links, rng)
    assert rng.random() == substream(1, 0).random(4)[3]
    with pytest.raises(ValueError):
        ConditionPolicy(p_los=1.5)
    with pytest.raises(ValueError):
        ConditionPolicy(explicit={("U1", "B1"): Condition.NLOS_BEST})


def test_simulate_sigma0_los_all_detectable():
    models = {Condition.LOS: CiModel(73.5, 2.0, 0.0, Condition.LOS),
              Condition.NLOS: CiModel(73.5, 4.6, 0.0, Condition.NLOS)}
    sc = scenario([bs(1, 10.0, 0.0)], [ue(1, 0.0, 0.0)], models=models,
                  policy=ConditionPolicy(p_los=1.0))
    drops = simulate_drop(sc, 1)
    assert drops.links == (("U1", "B1"),)
    assert drops.masks == ((FULL,),)
    d = distance_3d(sc.ues[0], sc.base_stations[0])
    mean_pl = 69.7257467816839 + 20.0 * math.log10(d)
    # 15 x 72 equal-power detectable angles power-sum below the mean PL.
    expect = mean_pl - 10.0 * math.log10(15 * 72)
    assert drops.omni_pl_db[0, 0] == pytest.approx(expect, abs=1e-9)


def test_simulate_sigma0_nlos_beyond_range_all_false():
    # Without a best-angle model the 200 m NLOS mean of 175.6 dB exceeds
    # the 175 dB budget at every angle.
    models = {Condition.LOS: CiModel(73.5, 2.0, 0.0, Condition.LOS),
              Condition.NLOS: CiModel(73.5, 4.6, 0.0, Condition.NLOS)}
    sc = scenario([bs(1, 200.0, 0.0)], [ue(1, 0.0, 0.0)], models=models,
                  policy=all_nlos())
    drops = simulate_drop(sc, 1)
    assert drops.masks == ((0,),)
    assert math.isinf(drops.omni_pl_db[0, 0])


def test_simulate_sigma0_nlos_best_single_angle():
    # The deterministic best-angle draw (136.5 dB at ~200 m) survives the
    # budget while every arbitrary-angle entry fails: exactly one angle
    # pair detectable, and the omni PL equals it.
    models = {Condition.LOS: CiModel(73.5, 2.0, 0.0, Condition.LOS),
              Condition.NLOS: CiModel(73.5, 4.6, 0.0, Condition.NLOS),
              Condition.NLOS_BEST: CiModel(73.5, 2.9, 0.0, Condition.NLOS_BEST)}
    sc = scenario([bs(1, 200.0, 0.0)], [ue(1, 0.0, 0.0)], models=models,
                  policy=all_nlos())
    drops = simulate_drop(sc, 1)
    assert drops.masks[0][0].bit_count() == 1
    d = distance_3d(sc.ues[0], sc.base_stations[0])
    best_pl = 69.7257467816839 + 29.0 * math.log10(d)
    assert drops.omni_pl_db[0, 0] == pytest.approx(best_pl, abs=1e-9)


def test_simulate_deterministic_and_prefix_stable():
    sc = scenario([bs(1, 40.0, 0.0), bs(2, 0.0, 90.0)],
                  [ue(1, 10.0, 10.0), ue(2, -20.0, 40.0)])
    a = simulate_drop(sc, 3)
    b = simulate_drop(sc, 3)
    c = simulate_drop(sc, 5)
    assert a.omni_pl_db.shape == a.los.shape == (3, 4)
    assert np.array_equal(a.omni_pl_db, b.omni_pl_db)
    assert np.array_equal(a.omni_pl_db, c.omni_pl_db[:3])
    assert a.masks == b.masks == c.masks[:3]
    assert np.array_equal(a.los, c.los[:3])


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
    assert fwd.links == rev.links == (("U1", "B1"), ("U1", "B2"), ("U1", "B3"))
    assert np.array_equal(fwd.omni_pl_db, rev.omni_pl_db)
    assert fwd.masks == rev.masks
    losses = np.sort(fwd.omni_pl_db.reshape(-1, 3), axis=1)[0].tolist()
    assert losses == sorted(fwd.omni_pl_db[0].tolist())


def test_reception_vs_k_always_detectable():
    models = {Condition.LOS: CiModel(73.5, 2.0, 0.0, Condition.LOS),
              Condition.NLOS: CiModel(73.5, 2.0, 0.0, Condition.NLOS)}
    sc = scenario([bs(1, 10.0, 0.0), bs(2, 0.0, 10.0)], [ue(1, 0.0, 0.0)],
                  models=models)
    probs = reception_vs_serving_count(sc, simulate_drop(sc, 2), 2)
    assert probs == {1: 1.0, 2: 1.0}


def test_reception_vs_k_monotone_under_shadowing():
    sc = scenario([bs(1, 150.0, 0.0), bs(2, 0.0, 160.0), bs(3, -170.0, 0.0)],
                  [ue(1, 0.0, 0.0), ue(2, 30.0, 30.0)],
                  policy=all_nlos())
    probs = reception_vs_serving_count(sc, simulate_drop(sc, 30), 3)
    assert probs[1] <= probs[2] + 1e-12
    assert probs[2] <= probs[3] + 1e-12
    assert 0.0 <= probs[1] and probs[3] <= 1.0


def test_reception_vs_k_bounds():
    sc = scenario([bs(1, 10.0, 0.0)], [ue(1, 0.0, 0.0)])
    with pytest.raises(ValueError):
        reception_vs_serving_count(sc, simulate_drop(sc, 1), 2)
    with pytest.raises(ValueError):
        simulate_drop(sc, 0)


# Analytic oracles for the simulator.  A small sweep grid (T = 3 TX angles,
# R = 4 RX directions) keeps trials cheap; four UEs on a circle around one
# base station give four independent, identically distributed links per
# trial, so k=1 reception is a mean of 4 * trials Bernoulli outcomes.
SMALL_T, SMALL_R = 3, 4
SMALL_SWEEP = SweepGrid(tx_angles=SMALL_T, rx_azimuths=SMALL_R,
                        rx_elevations=1, rx_step_deg=90.0)
ORACLE_TRIALS = 1000
CI_1M_DB = 32.4 + 20.0 * math.log10(73.5)


def ring_scenario(radius_m, models, policy, max_pl_db):
    ues = [ue(i, radius_m * math.cos(i), radius_m * math.sin(i))
           for i in range(4)]
    budget = LinkBudget(14.9, 27.0, 20.0, max_pl_db=max_pl_db)
    return scenario([bs(1, 0.0, 0.0)], ues, models=models, policy=policy,
                    budget=budget, sweep=SMALL_SWEEP)


def assert_k1_within_5se(sc, expected):
    probs = reception_vs_serving_count(sc, simulate_drop(sc, ORACLE_TRIALS), 1)
    se = math.sqrt(expected * (1.0 - expected) / (4 * ORACLE_TRIALS))
    assert abs(probs[1] - expected) <= 5.0 * se, (probs[1], expected, se)


def ci_mean_db(ple, radius_m):
    """CI mean at horizontal ``radius_m`` between 4.0 m and 1.4 m antennas."""
    return CI_1M_DB + 10.0 * ple * math.log10(math.hypot(radius_m, 2.6))


def test_los_k1_reception_matches_closed_form():
    radius, max_pl = 100.0, 110.0
    p = special.ndtr((max_pl - ci_mean_db(LOS.ple, radius)) / LOS.sigma_db)
    expected = (1.0 - (1.0 - p) ** SMALL_T) ** SMALL_R
    assert 0.2 < expected < 0.8
    assert_k1_within_5se(ring_scenario(radius, MODELS, ConditionPolicy(p_los=1.0),
                                       max_pl), expected)


def nlos_best_full_reception(mean, sigma, best_mean, best_sigma, max_pl):
    """P(full reception) when the lowest of T*R iid N(mean, sigma) draws is
    replaced by an independent N(best_mean, best_sigma) draw (R >= 2).

    Conditioned on the minimum M = m <= max_pl, the other draws are iid
    given > m: a direction is missed by each with r = S(max_pl) / S(m),
    and the minimum's own direction also by the best-beam draw.  With
    M > max_pl only the best-beam draw can be detected, which cannot cover
    R >= 2 directions.
    """
    n = SMALL_T * SMALL_R
    s_max = special.ndtr((mean - max_pl) / sigma)
    q_best = special.ndtr((max_pl - best_mean) / best_sigma)

    def integrand(x):  # x = (m - mean) / sigma
        s_m = special.ndtr(-x)
        r = s_max / s_m
        density = n * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return (density * s_m ** (n - 1) * (1.0 - r ** SMALL_T) ** (SMALL_R - 1)
                * (1.0 - r ** (SMALL_T - 1) * (1.0 - q_best)))

    val, _ = integrate.quad(integrand, -12.0, (max_pl - mean) / sigma,
                            epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


@pytest.mark.parametrize("best", [NLOS_BEST,
                                  CiModel(73.5, 6.0, 1.0, Condition.NLOS_BEST)])
def test_nlos_best_beam_k1_reception_matches_order_statistic(best):
    # The second best-beam model is never detected, so replacing the lowest
    # draw removes it: reception falls well below the no-replacement value.
    radius, max_pl = 40.0, 145.0
    mean = ci_mean_db(NLOS.ple, radius)
    expected = nlos_best_full_reception(
        mean, NLOS.sigma_db, ci_mean_db(best.ple, radius), best.sigma_db, max_pl)
    no_best = (1.0 - special.ndtr((mean - max_pl) / NLOS.sigma_db) ** SMALL_T
               ) ** SMALL_R
    assert 0.2 < expected < 0.8
    if best is not NLOS_BEST:
        assert no_best - expected > 0.1
    models = {Condition.LOS: LOS, Condition.NLOS: NLOS, Condition.NLOS_BEST: best}
    assert_k1_within_5se(ring_scenario(radius, models, all_nlos(), max_pl),
                         expected)


def test_omni_within_budget_iff_mask_nonzero():
    budget = LinkBudget(14.9, 27.0, 20.0, max_pl_db=120.0)
    sc = scenario([bs(1, 40.0, 0.0), bs(2, 0.0, 90.0), bs(3, -30.0, -20.0)],
                  [ue(1, 10.0, 10.0), ue(2, -20.0, 40.0)],
                  policy=ConditionPolicy(p_los=0.5), budget=budget,
                  sweep=SMALL_SWEEP)
    seen = set()
    drops = simulate_drop(sc, 200)
    for row, omni_row in zip(drops.masks, drops.omni_pl_db.tolist()):
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
    sc = scenario([bs(i, 30.0 * i, 0.0) for i in range(1, 4)],
                  [ue(i, 0.0, 20.0 * i) for i in range(1, 5)],
                  policy=ConditionPolicy(explicit=explicit, p_los=p_los),
                  sweep=SMALL_SWEEP)
    n_los = n = 0
    drops = simulate_drop(sc, trials)
    for link, los in zip(drops.links, drops.los.T.tolist()):
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
    policy = ConditionPolicy(explicit={("U1", "B1"): Condition.NLOS,
                                       ("U1", "B2"): Condition.LOS,
                                       ("U2", "B1"): Condition.LOS},
                             p_los=0.5)
    sc = scenario([bs(1, 0.0, 0.0), bs(2, 120.0, 0.0)],
                  [ue(1, 20.0, 0.0), ue(2, 100.0, 10.0)], policy=policy,
                  budget=LinkBudget(14.9, 27.0, 20.0, max_pl_db=108.0),
                  seed=75)
    drops = simulate_drop(sc, 1)
    assert drops.links == (("U1", "B1"), ("U1", "B2"), ("U2", "B1"),
                           ("U2", "B2"))
    assert drops.los.tolist() == [[False, True, True, False]]
    assert drops.masks == ((0xe811344061c655c47a, 0xd7ffffffffffffffbf,
                            0xffdffddfffffefcffe, 0x1044006a430000aad1),)
    expected_omni = [86.26707598711603, 84.13904572926874,
                     84.68460688675947, 88.6393954055026]
    assert drops.omni_pl_db[0].tolist() == pytest.approx(expected_omni,
                                                         abs=1e-9)
