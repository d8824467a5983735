"""Property-based checks over the numeric core."""

import itertools

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwcomp import (CiModel, LinkBudget, MaskSet, build_cdf,
                     ci_mean_path_loss_db, combination_count,
                     edge_outage_probability, format_pct, fspl_db,
                     reception_counts, region_outage_probability, substream)
from mmwcomp.cli import _reception_rows
from mmwcomp.diversity import _miss_set_hits, lane_bytes
from mmwcomp.results import _parse_pct

freqs = st.floats(min_value=0.5, max_value=200.0)
dists = st.floats(min_value=1.0, max_value=1000.0)
ples = st.floats(min_value=1.5, max_value=5.0)
sigmas = st.floats(min_value=1.0, max_value=12.0)
radii = st.floats(min_value=10.0, max_value=500.0)

BUDGET = LinkBudget()


@given(freqs, dists)
def test_fspl_decade_rule(f, d):
    assert fspl_db(f, 10.0 * d) - fspl_db(f, d) == pytest.approx(20.0,
                                                                 abs=1e-9)


@given(freqs, ples, sigmas)
def test_ci_anchored_at_reference(f, ple, sigma):
    model = CiModel(f, ple, sigma)
    assert ci_mean_path_loss_db(model, 1.0) == pytest.approx(fspl_db(f, 1.0),
                                                             abs=1e-9)


@given(freqs, ples, dists, dists)
def test_ci_mean_monotone_in_distance(f, ple, d1, d2):
    model = CiModel(f, ple, 5.0)
    lo, hi = sorted((d1, d2))
    assert ci_mean_path_loss_db(model, lo) <= ci_mean_path_loss_db(model, hi) + 1e-12


@given(ples, sigmas, radii)
def test_region_outage_no_greater_than_edge(ple, sigma, radius):
    model = CiModel(73.5, ple, sigma)
    edge = edge_outage_probability(model, BUDGET, radius)
    region = region_outage_probability(model, BUDGET, radius)
    assert 0.0 <= region <= edge + 1e-12
    assert edge <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0))
@example(1.04e-322)  # float(text) / 100 is one step below: 9.9E-321
@example(5e-324)
@example(0.99e-4)
def test_format_pct_parses_back(fraction):
    text = format_pct(fraction)
    assert abs(float(text) - 100.0 * fraction) <= 0.05 + 1e-9
    assert format_pct(_parse_pct(text)) == text


@given(st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=1,
                max_size=50))
def test_build_cdf_well_formed(values):
    pts = build_cdf(values)
    assert pts[-1].p == pytest.approx(1.0, abs=1e-12)
    for a, b in zip(pts, pts[1:]):
        assert a.x <= b.x and a.p <= b.p


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
    probs = [row.probability
             for row in _reception_rows(MaskSet(links, 4), topology,
                                        len(masks))]
    for a, b in zip(probs, probs[1:]):
        assert b >= a - 1e-12


@given(st.one_of(st.integers(min_value=1, max_value=12), st.just(72)),
       st.integers(1, 3), st.data())
def test_reception_counts_match_brute_force(n_directions, lanes, data):
    full = (1 << n_directions) - 1
    # Masks biased towards dense coverage so that unions reach full often.
    mask = st.one_of(st.integers(0, full), st.just(full),
                     st.builds(lambda a, b: a | b, st.integers(0, full),
                               st.integers(0, full)))
    stations = [f"B{i}" for i in range(10)]
    # A fixed set drawn often, in any order, so that UEs share serving sets;
    # three UEs sharing all ten stations count more hits per lane than one
    # byte holds.
    serving = st.one_of(
        st.permutations(stations[:3]).map(tuple),
        st.just(tuple(stations)),
        st.lists(st.sampled_from(stations), min_size=1, max_size=10,
                 unique=True).map(tuple))
    topology = data.draw(st.dictionaries(
        st.sampled_from(["U1", "U2", "U3"]), serving, min_size=1, max_size=3))
    links = [(ue, bs) for ue, s in topology.items() for bs in s]
    per_lane = [{link: data.draw(mask) for link in links}
                for _ in range(lanes)]
    width = 8 * lane_bytes(n_directions)
    masks = {link: sum(m[link] << (lane * width)
                       for lane, m in enumerate(per_lane)) for link in links}
    k_max = max(len(s) for s in topology.values())
    counts = reception_counts(MaskSet(masks, n_directions, lanes), topology,
                              k_max)
    one_lane = [reception_counts(MaskSet(m, n_directions), topology, k_max)
                for m in per_lane]
    assert sorted(counts) == list(range(1, k_max + 1))
    for k in range(1, k_max + 1):
        brute = [oracles.union_reception(topology, m, n_directions, k)
                 for m in per_lane]
        assert [c[k] for c in one_lane] == [hits for hits, _ in brute]
        assert counts[k] == sum(c[k] for c in one_lane)
        assert combination_count(topology, k) == brute[0][1]


def test_reception_counts_match_brute_force_on_twelve_stations():
    # 12 stations at k <= 6 with duplicate, empty and full masks, so that
    # many subsets share a miss set and full unions collapse early.
    n_directions = 10
    full = (1 << n_directions) - 1
    base = [0b1111100000, 0b0000011111, 0b1010101010, 0b0101010101,
            0b1100110011, 0b0011001100, 0b1110001110]
    serving = {
        "U1": base + [base[0], base[2], 0, full, 0b0001110001],
        "U2": [full, full, 0, 0] + base[:6] + [base[6], 0b1000000001],
        "U3": [0b1 << i for i in range(n_directions)] + [full ^ 1, 1],
    }
    topology = {ue: tuple(f"B{i:02d}" for i in range(12)) for ue in serving}
    masks = {(ue, f"B{i:02d}"): m for ue, ms in serving.items()
             for i, m in enumerate(ms)}
    counts = reception_counts(MaskSet(masks, n_directions), topology, 6)
    assert sorted(counts) == list(range(1, 7))
    for k in range(1, 7):
        hits, n = oracles.union_reception(topology, masks, n_directions, k)
        assert counts[k] == hits and combination_count(topology, k) == n, k
    assert all(0 < counts[k] < combination_count(topology, k)
               for k in range(2, 7))


@given(st.sampled_from([1, 7, 8, 9, 64, 72]), st.integers(1, 9),
       st.integers(1, 6), st.data())
def test_lane_kernel_counts_every_lane_like_brute_force(n, lanes, n_bs, data):
    # n spans the lane-width edges: n = 7 fills a one-byte lane below its
    # guard bit, n = 8 and n = 64 need a further byte, n = 72 is the grid.
    full = (1 << n) - 1
    mask = st.one_of(st.just(0), st.just(full),
                     st.integers(0, n - 1).map(lambda i: full & ~(1 << i)))
    per_lane = [[data.draw(mask) for _ in range(n_bs)] for _ in range(lanes)]
    top = data.draw(st.integers(1, n_bs))
    width = 8 * lane_bytes(n)
    columns = [sum(ms[j] << (lane * width) for lane, ms in enumerate(per_lane))
               for j in range(n_bs)]
    one = sum(1 << (lane * width) for lane in range(lanes))
    hits = _miss_set_hits(columns, one, n, top)
    assert len(hits) == top
    one_lane = [_miss_set_hits(ms, 1, n, top) for ms in per_lane]
    assert hits == [sum(lane_hits) for lane_hits in zip(*one_lane)]
    topology = {"U1": [f"B{j}" for j in range(n_bs)]}
    for ms, lane_hits in zip(per_lane, one_lane):
        for k, got in enumerate(lane_hits, 1):
            expected, _ = oracles.union_reception(
                topology, {("U1", f"B{j}"): m for j, m in enumerate(ms)}, n, k)
            assert got == expected


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 100))
@settings(max_examples=25)
def test_substream_deterministic(seed, key):
    a, b, c = (substream(seed, k).integers(0, 2**63, size=4)
               for k in (key, key, key + 1))
    assert list(a) == list(b)
    assert list(a) != list(c)
