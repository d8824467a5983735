"""Threshold, cell-edge and region outage math."""

import math

import pytest
from scipy import integrate

from mmwcomp import (CiModel, Condition, LinkBudget, edge_outage_probability,
                     fspl_db, max_detectable_pl_db, outage_table,
                     receiver_threshold_dbm, region_outage_probability)

SOUNDER = LinkBudget()
HORNS = (14.9, 27.0, 20.0)  # the sounder's P_t, G_t and G_r
NLOS = CiModel(73.5, 4.6, 11.4)


def test_receiver_threshold():
    assert receiver_threshold_dbm(SOUNDER, *HORNS) == pytest.approx(-113.1,
                                                                    abs=1e-9)


def test_receiver_threshold_scales_with_bandwidth():
    tenth = LinkBudget(bw_ghz=0.1)
    assert receiver_threshold_dbm(tenth, *HORNS) == pytest.approx(-123.1,
                                                                  abs=1e-9)


def test_detection_limit_drops_with_bandwidth():
    assert max_detectable_pl_db(SOUNDER) == 175.0
    for bw, limit in ((0.1, 185.0), (10.0, 165.0), (100.0, 155.0)):
        budget = LinkBudget(bw_ghz=bw)
        assert max_detectable_pl_db(budget) == pytest.approx(limit, abs=1e-12)


def test_receiver_threshold_is_detection_limit_seen_from_transmitter():
    # Plain budget arithmetic: P_t + G_t + G_r minus the detection limit,
    # the received power where free-space loss meets that limit.
    assert receiver_threshold_dbm(LinkBudget(max_pl_db=100.0),
                                  10.0, 3.0, 2.0) == -85.0
    budget = LinkBudget(bw_ghz=4.0)
    d = 10.0 ** ((max_detectable_pl_db(budget) - fspl_db(73.5, 1.0)) / 20.0)
    assert sum(HORNS) - fspl_db(73.5, d) == pytest.approx(
        receiver_threshold_dbm(budget, *HORNS), abs=1e-9)


def test_outage_depends_on_budget_only_through_detection_limit():
    # A 10x wider bandwidth is the same as a 10 dB lower maximum path loss.
    wide = LinkBudget(bw_ghz=10.0)
    budget = LinkBudget(max_pl_db=165.0)
    for d in (30.0, 100.0, 200.0):
        for fn in (edge_outage_probability, region_outage_probability):
            assert fn(NLOS, budget, d) == pytest.approx(
                fn(NLOS, wide, d), abs=1e-12)


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(bw_ghz=0.0)
    with pytest.raises(ValueError):
        LinkBudget(max_pl_db=-1.0)


def test_query_validation():
    # A radius below the 1 m reference distance, or NaN, is rejected.
    for fn in (edge_outage_probability, region_outage_probability):
        for radius in (0.5, math.nan):
            with pytest.raises(ValueError, match="defined for d >= 1.0 m"):
                fn(NLOS, SOUNDER, radius)
    with pytest.raises(ValueError, match="defined for d >= 1.0 m"):
        outage_table({Condition.NLOS: NLOS}, SOUNDER, [63.0, 0.5])


def test_edge_outage_nlos_values():
    expect = {63.0: 2.4186, 78.0: 5.4820, 87.0: 7.9498, 100.0: 12.2129,
              200.0: 52.0048}
    for d, pct in expect.items():
        assert 100.0 * edge_outage_probability(
            NLOS, SOUNDER, d) == pytest.approx(pct, abs=1e-3)


def test_region_outage_nlos_values():
    expect = {63.0: 0.7420, 78.0: 1.8365, 87.0: 2.7910, 100.0: 4.5603,
              200.0: 27.0790}
    for d, pct in expect.items():
        assert 100.0 * region_outage_probability(
            NLOS, SOUNDER, d) == pytest.approx(pct, abs=1e-3)


def test_edge_half_at_mean_equal_threshold():
    # Mean PL at the radius exactly equals the tolerable maximum.
    model = CiModel(73.5, 4.6, 11.4)
    d = 10.0 ** ((SOUNDER.max_pl_db - 69.7257467816839) / 46.0)
    assert edge_outage_probability(model, SOUNDER, d) == pytest.approx(
        0.5, abs=1e-9)


def test_edge_zero_sigma_step():
    near = CiModel(73.5, 4.6, 0.0)
    assert edge_outage_probability(near, SOUNDER, 63.0) == 0.0   # 152.5 < 175
    assert edge_outage_probability(near, SOUNDER, 200.0) == 1.0  # 175.6 > 175
    d_crit = 10.0 ** ((SOUNDER.max_pl_db - 69.7257467816839) / 46.0)
    assert edge_outage_probability(near, SOUNDER, d_crit) == 0.5


def test_region_outage_below_edge_outage():
    # Averaging over the disk includes interior points with more margin.
    for model in (NLOS, CiModel(73.5, 2.9, 11.0)):
        for d in (30.0, 63.0, 100.0, 200.0, 400.0):
            assert (region_outage_probability(model, SOUNDER, d)
                    < edge_outage_probability(model, SOUNDER, d))


def test_region_outage_requires_positive_ple():
    # The useful-area closed form needs n > 0; CiModel rejects any other
    # exponent, so no call can reach the kernel with one.
    for ple in (-1.0, 0.0, math.inf, math.nan):
        for sigma in (11.4, 0.0):
            with pytest.raises(ValueError,
                               match=f"ple must be positive and finite, "
                                     f"got {ple}"):
                CiModel(73.5, ple, sigma)


def test_region_outage_zero_sigma_is_disk_share_beyond_coverage_radius():
    # Without shadowing a point is in outage beyond the radius where the
    # mean path loss meets the 175 dB limit: d_crit = 10^((175 - FSPL) / 46).
    near = CiModel(73.5, 4.6, 0.0)
    d_crit = 10.0 ** ((SOUNDER.max_pl_db - 69.7257467816839) / 46.0)
    for d in (63.0, d_crit):
        assert region_outage_probability(near, SOUNDER, d) == 0.0
    for d in (200.0, 400.0):
        assert region_outage_probability(near, SOUNDER, d) == pytest.approx(
            1.0 - (d_crit / d) ** 2, rel=1e-9)
    # ... and it is the limit of the shadowed closed form as sigma -> 0.
    assert region_outage_probability(near, SOUNDER, 200.0) == pytest.approx(
        region_outage_probability(near._replace(sigma_db=0.005), SOUNDER,
                                  200.0),
        abs=1e-6)
    # A huge negative margin must not overflow the power.
    flat = CiModel(73.5, 0.01, 0.0)
    assert region_outage_probability(flat, LinkBudget(max_pl_db=1000.0),
                                     10.0) == 0.0


def quadrature_region_outage(model, budget, radius, panels=20_000) -> float:
    """Independent oracle: integrate 2r/R^2 times edge outage over the disk."""

    def integrand(r):
        return 2.0 * r / radius**2 * edge_outage_probability(model, budget, r)

    grid = [1.0 + (radius - 1.0) * i / panels
            for i in range(panels + 1)]
    return integrate.simpson([integrand(r) for r in grid], x=grid)


def test_region_closed_form_matches_quadrature_spot_checks():
    for ple, sigma, radius in ((4.6, 11.4, 63.0), (2.9, 11.0, 200.0),
                               (1.5, 1.0, 10.0), (5.0, 12.0, 500.0)):
        query = (CiModel(73.5, ple, sigma), SOUNDER, radius)
        assert region_outage_probability(*query) == pytest.approx(
            quadrature_region_outage(*query), abs=1e-4)


def test_outage_table_shape_and_order():
    models = {Condition.LOS: CiModel(73.5, 2.0, 1.9),
              Condition.NLOS: NLOS}
    rows = outage_table(models, SOUNDER, [63.0, 100.0])
    assert [(r.condition, r.distance_m) for r in rows] == [
        ("LOS", 63.0), ("LOS", 100.0), ("NLOS", 63.0), ("NLOS", 100.0)]
    for row in rows:
        assert 0.0 <= row.p_out_region <= row.p_out_edge <= 1.0


def test_outage_table_rejects_empty_distances():
    with pytest.raises(ValueError):
        outage_table({Condition.NLOS: NLOS}, SOUNDER, [])
