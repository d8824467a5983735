"""Threshold, cell-edge and region outage math."""

import math

import pytest
from scipy import integrate

from mmwcomp import (CiModel, Condition, CoverageQuery, LinkBudget,
                     edge_coverage_probability, edge_outage_probability,
                     outage_table, receiver_threshold_dbm,
                     region_outage_probability, useful_area_fraction)

SOUNDER = LinkBudget(pt_dbm=14.9, gt_dbi=27.0, gr_dbi=20.0)
NLOS = CiModel(73.5, 4.6, 11.4, Condition.NLOS)


def q(model, radius, budget=SOUNDER):
    return CoverageQuery(model=model, budget=budget, radius_m=radius)


def test_receiver_threshold():
    assert receiver_threshold_dbm(SOUNDER) == pytest.approx(-113.1, abs=1e-9)


def test_receiver_threshold_scales_with_bandwidth():
    tenth = LinkBudget(14.9, 27.0, 20.0, bw_ghz=0.1)
    assert receiver_threshold_dbm(tenth) == pytest.approx(-123.1, abs=1e-9)


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(14.9, 27.0, 20.0, bw_ghz=0.0)
    with pytest.raises(ValueError):
        LinkBudget(14.9, 27.0, 20.0, max_pl_db=-1.0)


def test_query_validation():
    with pytest.raises(ValueError):
        q(NLOS, 0.5)


def test_edge_outage_nlos_values():
    expect = {63.0: 2.4186, 78.0: 5.4820, 87.0: 7.9498, 100.0: 12.2129,
              200.0: 52.0048}
    for d, pct in expect.items():
        assert 100.0 * edge_outage_probability(q(NLOS, d)) == pytest.approx(
            pct, abs=1e-3)


def test_region_outage_nlos_values():
    expect = {63.0: 0.7420, 78.0: 1.8365, 87.0: 2.7910, 100.0: 4.5603,
              200.0: 27.0790}
    for d, pct in expect.items():
        assert 100.0 * region_outage_probability(q(NLOS, d)) == pytest.approx(
            pct, abs=1e-3)


def test_edge_coverage_plus_outage_is_one():
    for d in (10.0, 63.0, 200.0, 400.0):
        query = q(NLOS, d)
        total = edge_coverage_probability(query) + edge_outage_probability(query)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_edge_half_at_mean_equal_threshold():
    # Mean PL at the radius exactly equals the tolerable maximum.
    model = CiModel(73.5, 4.6, 11.4, Condition.NLOS)
    d = 10.0 ** ((SOUNDER.max_pl_db - 69.7257467816839) / 46.0)
    assert edge_coverage_probability(q(model, d)) == pytest.approx(0.5, abs=1e-9)


def test_edge_zero_sigma_step():
    near = CiModel(73.5, 4.6, 0.0, Condition.NLOS)
    assert edge_coverage_probability(q(near, 63.0)) == 1.0   # 152.5 < 175
    assert edge_coverage_probability(q(near, 200.0)) == 0.0  # 175.6 > 175
    d_crit = 10.0 ** ((SOUNDER.max_pl_db - 69.7257467816839) / 46.0)
    assert edge_coverage_probability(q(near, d_crit)) == 0.5


def test_region_outage_below_edge_outage():
    # Averaging over the disk includes interior points with more margin.
    for model in (NLOS, CiModel(73.5, 2.9, 11.0, Condition.NLOS_BEST)):
        for d in (30.0, 63.0, 100.0, 200.0, 400.0):
            query = q(model, d)
            assert region_outage_probability(query) < edge_outage_probability(
                query)


def test_useful_area_requires_positive_sigma_and_ple():
    with pytest.raises(ValueError):
        useful_area_fraction(q(CiModel(73.5, 4.6, 0.0, Condition.NLOS), 63.0))
    with pytest.raises(ValueError):
        useful_area_fraction(q(CiModel(73.5, -1.0, 11.4, Condition.NLOS), 63.0))


def quadrature_region_outage(query: CoverageQuery, panels=20_000) -> float:
    """Independent oracle: integrate 2r/R^2 times edge outage over the disk."""
    model, budget, radius = query.model, query.budget, query.radius_m

    def integrand(r):
        point = CoverageQuery(model=model, budget=budget, radius_m=r)
        return 2.0 * r / radius**2 * edge_outage_probability(point)

    grid = [1.0 + (radius - 1.0) * i / panels
            for i in range(panels + 1)]
    return integrate.simpson([integrand(r) for r in grid], x=grid)


def test_region_closed_form_matches_quadrature_spot_checks():
    for ple, sigma, radius in ((4.6, 11.4, 63.0), (2.9, 11.0, 200.0),
                               (1.5, 1.0, 10.0), (5.0, 12.0, 500.0)):
        query = q(CiModel(73.5, ple, sigma, Condition.NLOS), radius)
        assert region_outage_probability(query) == pytest.approx(
            quadrature_region_outage(query), abs=1e-4)


def test_outage_table_shape_and_order():
    models = {Condition.LOS: CiModel(73.5, 2.0, 1.9, Condition.LOS),
              Condition.NLOS: NLOS}
    rows = outage_table(models, SOUNDER, [63.0, 100.0])
    assert [(r.condition, r.distance_m) for r in rows] == [
        ("LOS", 63.0), ("LOS", 100.0), ("NLOS", 63.0), ("NLOS", 100.0)]
    for row in rows:
        assert 0.0 <= row.p_out_region <= row.p_out_edge <= 1.0


def test_outage_table_rejects_empty_distances():
    with pytest.raises(ValueError):
        outage_table({Condition.NLOS: NLOS}, SOUNDER, [])
