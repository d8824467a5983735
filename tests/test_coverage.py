"""Threshold, cell-edge and region outage math."""

import math

import oracles
import pytest

from mmwcomp import (CiModel, Condition, LinkBudget, edge_outage_probability,
                     fspl_db, outage_table, receiver_threshold_dbm,
                     region_outage_probability)

SOUNDER = LinkBudget()
HORNS = (14.9, 27.0, 20.0)  # the sounder's P_t, G_t and G_r
NLOS = CiModel(73.5, 4.6, 11.4)
NEAR = CiModel(73.5, 4.6, 0.0)  # NLOS without shadowing
# The radius where the NLOS mean path loss meets the 175 dB limit.
D_CRIT = 10.0 ** ((SOUNDER.max_pl_db - 69.7257467816839) / 46.0)


def test_receiver_threshold():
    assert receiver_threshold_dbm(SOUNDER, *HORNS) == pytest.approx(-113.1,
                                                                    abs=1e-9)


def test_receiver_threshold_is_detection_limit_seen_from_transmitter():
    # Plain budget arithmetic: P_t + G_t + G_r minus the detection limit,
    # the received power where free-space loss meets that limit.
    assert receiver_threshold_dbm(LinkBudget(max_pl_db=100.0),
                                  10.0, 3.0, 2.0) == -85.0
    budget = LinkBudget(max_pl_db=175.0 - 10.0 * math.log10(4.0))  # at 4 GHz
    d = 10.0 ** ((budget.max_pl_db - fspl_db(73.5, 1.0)) / 20.0)
    assert sum(HORNS) - fspl_db(73.5, d) == pytest.approx(
        receiver_threshold_dbm(budget, *HORNS), abs=1e-9)


REJECTIONS = {
    # A radius below the 1 m reference distance, or NaN, is rejected.
    **{f"{name}_radius_{radius}": (
        lambda fn=fn, radius=radius: fn(NLOS, SOUNDER, radius), ValueError,
        f"CI model is defined for d >= 1.0 m, got {radius}")
       for name, fn in (("edge", edge_outage_probability),
                        ("region", region_outage_probability))
       for radius in (0.5, math.nan)},
    "table_radius_0.5": (
        lambda: outage_table({Condition.NLOS: NLOS}, SOUNDER, [63.0, 0.5]),
        ValueError, "CI model is defined for d >= 1.0 m, got 0.5"),
    "table_no_distances": (
        lambda: outage_table({Condition.NLOS: NLOS}, SOUNDER, []),
        ValueError, "distances must be non-empty"),
}


@pytest.mark.parametrize("call, error, message", list(REJECTIONS.values()),
                         ids=list(REJECTIONS))
def test_library_rejects(call, error, message, rejects):
    rejects(call, error, message)


# NLOS edge and region outage in percent at each cell radius.
NLOS_OUTAGE_PCT = [(63.0, 2.4186, 0.7420), (78.0, 5.4820, 1.8365),
                   (87.0, 7.9498, 2.7910), (100.0, 12.2129, 4.5603),
                   (200.0, 52.0048, 27.0790)]


def test_edge_outage_nlos_values():
    for radius, edge_pct, _ in NLOS_OUTAGE_PCT:
        assert 100.0 * edge_outage_probability(
            NLOS, SOUNDER, radius) == pytest.approx(edge_pct, abs=1e-3)


def test_region_outage_nlos_values():
    for radius, _, region_pct in NLOS_OUTAGE_PCT:
        assert 100.0 * region_outage_probability(
            NLOS, SOUNDER, radius) == pytest.approx(region_pct, abs=1e-3)


def test_edge_half_at_mean_equal_threshold():
    # Mean PL at the radius exactly equals the tolerable maximum.
    assert edge_outage_probability(NLOS, SOUNDER, D_CRIT) == pytest.approx(
        0.5, abs=1e-9)


def test_edge_zero_sigma_step():
    assert edge_outage_probability(NEAR, SOUNDER, 63.0) == 0.0   # 152.5 < 175
    assert edge_outage_probability(NEAR, SOUNDER, 200.0) == 1.0  # 175.6 > 175
    assert edge_outage_probability(NEAR, SOUNDER, D_CRIT) == 0.5


def test_region_outage_below_edge_outage():
    # Averaging over the disk includes interior points with more margin.
    for model in (NLOS, CiModel(73.5, 2.9, 11.0)):
        for d in (30.0, 63.0, 100.0, 200.0, 400.0):
            assert (region_outage_probability(model, SOUNDER, d)
                    < edge_outage_probability(model, SOUNDER, d))


def test_region_outage_zero_sigma_is_disk_share_beyond_coverage_radius():
    # Without shadowing a point is in outage beyond D_CRIT, the radius where
    # the mean path loss meets the 175 dB limit.
    for d in (63.0, D_CRIT):
        assert region_outage_probability(NEAR, SOUNDER, d) == 0.0
    for d in (200.0, 400.0):
        assert region_outage_probability(NEAR, SOUNDER, d) == pytest.approx(
            1.0 - (D_CRIT / d) ** 2, rel=1e-9)
    # ... and it is the limit of the shadowed closed form as sigma -> 0.
    assert region_outage_probability(NEAR, SOUNDER, 200.0) == pytest.approx(
        region_outage_probability(NEAR._replace(sigma_db=0.005), SOUNDER,
                                  200.0),
        abs=1e-6)
    # A huge negative margin must not overflow the power.
    flat = CiModel(73.5, 0.01, 0.0)
    assert region_outage_probability(flat, LinkBudget(max_pl_db=1000.0),
                                     10.0) == 0.0


def test_region_closed_form_matches_quadrature_spot_checks():
    for ple, sigma, radius in ((4.6, 11.4, 63.0), (2.9, 11.0, 200.0),
                               (1.5, 1.0, 10.0), (5.0, 12.0, 500.0)):
        got = region_outage_probability(CiModel(73.5, ple, sigma), SOUNDER,
                                        radius)
        assert got == pytest.approx(math.exp(oracles.log_region_outage(
            ple, sigma, radius, SOUNDER.max_pl_db)), abs=1e-4)


def test_outage_table_shape_and_order():
    models = {Condition.LOS: CiModel(73.5, 2.0, 1.9), Condition.NLOS: NLOS}
    rows = outage_table(models, SOUNDER, [63.0, 100.0])
    assert [(r.condition, r.distance_m) for r in rows] == [
        ("LOS", 63.0), ("LOS", 100.0), ("NLOS", 63.0), ("NLOS", 100.0)]
    for row in rows:
        assert 0.0 <= row.p_out_region <= row.p_out_edge <= 1.0
