"""Property-based checks over the numeric core."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwcomp import (CiModel, Condition, CoverageQuery, DirectionalScan,
                     LinkBudget, ScanEntry, build_cdf, ci_mean_path_loss_db,
                     combination_count, edge_outage_probability, format_pct,
                     friis_received_power_dbm, fspl_db, reception_counts,
                     region_outage_probability, substream,
                     synthesize_omni_path_loss_db)

freqs = st.floats(min_value=0.5, max_value=200.0)
dists = st.floats(min_value=1.0, max_value=1000.0)
ples = st.floats(min_value=1.5, max_value=5.0)
sigmas = st.floats(min_value=1.0, max_value=12.0)
radii = st.floats(min_value=10.0, max_value=500.0)

BUDGET = LinkBudget(14.9, 27.0, 20.0)


@given(freqs, dists)
def test_friis_log_linear_agreement(f, d):
    pt, gt, gr = 10.0, 15.0, 5.0
    log_form = friis_received_power_dbm(pt, gt, gr, f, d)
    pr_mw = (10.0 ** ((pt + gt + gr) / 10.0)) / 10.0 ** (fspl_db(f, d) / 10.0)
    assert abs(log_form - 10.0 * math.log10(pr_mw)) < 1e-9


@given(freqs, dists)
def test_fspl_decade_rule(f, d):
    assert fspl_db(f, 10.0 * d) - fspl_db(f, d) == pytest.approx(20.0,
                                                                 abs=1e-9)


@given(freqs, ples, sigmas)
def test_ci_anchored_at_reference(f, ple, sigma):
    model = CiModel(f, ple, sigma, Condition.NLOS)
    assert ci_mean_path_loss_db(model, 1.0) == pytest.approx(fspl_db(f, 1.0),
                                                             abs=1e-9)


@given(freqs, ples, dists, dists)
def test_ci_mean_monotone_in_distance(f, ple, d1, d2):
    model = CiModel(f, ple, 5.0, Condition.NLOS)
    lo, hi = sorted((d1, d2))
    assert ci_mean_path_loss_db(model, lo) <= ci_mean_path_loss_db(model, hi) + 1e-12


@given(ples, sigmas, radii)
def test_region_outage_no_greater_than_edge(ple, sigma, radius):
    q = CoverageQuery(model=CiModel(73.5, ple, sigma, Condition.NLOS),
                      budget=BUDGET, radius_m=radius)
    edge = edge_outage_probability(q)
    region = region_outage_probability(q)
    assert 0.0 <= region <= edge + 1e-12
    assert edge <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_format_pct_parses_back(fraction):
    text = format_pct(fraction)
    assert abs(float(text) - 100.0 * fraction) <= 0.05 + 1e-9


@given(st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=1,
                max_size=50))
def test_build_cdf_well_formed(values):
    pts = build_cdf(values)
    assert pts[-1].p == pytest.approx(1.0, abs=1e-12)
    for a, b in zip(pts, pts[1:]):
        assert a.x <= b.x and a.p <= b.p


@given(st.lists(st.floats(min_value=-130.0, max_value=-60.0), min_size=1,
                max_size=40))
def test_omni_bounded_by_best_directional(prs):
    pt, gt, gr = 14.9, 27.0, 20.0
    entries = tuple(ScanEntry(i // 24, i % 24, 0, p) for i, p in enumerate(prs))
    omni = synthesize_omni_path_loss_db(DirectionalScan("L", entries), gt, gr, pt)
    best = min(pt + gt + gr - p for p in prs)
    # Power summing can only help, and by at most 10*log10(n).
    assert omni <= best + 1e-9
    assert omni >= best - 10.0 * math.log10(len(prs)) - 1e-9


serving_sets = st.sets(st.sampled_from(["B1", "B2", "B3", "B4", "B5"]),
                       min_size=1, max_size=5)


@given(st.dictionaries(st.sampled_from(["U1", "U2", "U3"]), serving_sets,
                       min_size=1, max_size=3),
       st.integers(min_value=1, max_value=5))
def test_combination_count_formula(topology, k):
    topology = {u: tuple(sorted(s)) for u, s in topology.items()}
    brute = {(u, sub) for u, s in topology.items()
             for sub in itertools.combinations(s, k)}
    assert combination_count(topology, k) == len(brute)


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=5))
def test_reception_monotone_per_ue(masks):
    # Single-UE topology with 4-direction masks: a larger serving
    # combination can only add mask coverage, so the reception fraction is
    # non-decreasing in k.
    topology = {"U1": tuple(f"B{i}" for i in range(len(masks)))}
    links = {("U1", f"B{i}"): m for i, m in enumerate(masks)}
    counts = reception_counts(links, topology, len(masks), 4)
    probs = [hits / n for _, (hits, n) in sorted(counts.items())]
    for a, b in zip(probs, probs[1:]):
        assert b >= a - 1e-12


def brute_force_reception_counts(masks, topology, k, n_directions):
    """(full-coverage subsets, subsets) of size k by explicit OR."""
    full = (1 << n_directions) - 1
    hits = n = 0
    for ue, serving in topology.items():
        for subset in itertools.combinations(serving, k):
            union = 0
            for bs in subset:
                union |= masks[(ue, bs)]
            hits += union == full
            n += 1
    return hits, n


@given(st.one_of(st.integers(min_value=1, max_value=12), st.just(72)),
       st.data())
def test_reception_counts_match_brute_force(n_directions, data):
    full = (1 << n_directions) - 1
    # Masks biased towards dense coverage so that unions reach full often.
    mask = st.one_of(st.integers(0, full), st.just(full),
                     st.builds(lambda a, b: a | b, st.integers(0, full),
                               st.integers(0, full)))
    stations = [f"B{i}" for i in range(8)]
    topology = data.draw(st.dictionaries(
        st.sampled_from(["U1", "U2", "U3"]),
        st.lists(st.sampled_from(stations), min_size=1, max_size=8,
                 unique=True).map(tuple),
        min_size=1, max_size=3))
    masks = {(ue, bs): data.draw(mask) for ue, serving in topology.items()
             for bs in serving}
    k_max = max(len(s) for s in topology.values())
    counts = reception_counts(masks, topology, k_max, n_directions)
    assert sorted(counts) == list(range(1, k_max + 1))
    for k in range(1, k_max + 1):
        assert counts[k] == brute_force_reception_counts(
            masks, topology, k, n_directions)


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 100))
@settings(max_examples=25)
def test_substream_deterministic(seed, key):
    a = substream(seed, key).integers(0, 2**63, size=4)
    b = substream(seed, key).integers(0, 2**63, size=4)
    assert list(a) == list(b)
