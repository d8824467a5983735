"""Free-space path loss, Friis, gains and the CI model."""

import math

import numpy as np
import pytest

from mmwcomp import (CiModel, Condition, ci_mean_path_loss_db,
                     friis_received_power_dbm, fspl_db,
                     gain_from_aperture_dbi, gain_increase, received_power_dbm,
                     substream, wavelength_m)
from mmwcomp.propagation import SPEED_OF_LIGHT_M_PER_S


def test_fspl_anchor_at_1ghz_1m():
    assert fspl_db(1.0, 1.0) == pytest.approx(32.4, abs=1e-12)


def test_fspl_73_5ghz_1m():
    assert fspl_db(73.5, 1.0) == pytest.approx(69.7257467816839, abs=1e-10)


def test_fspl_20db_per_decade():
    for f in (1.0, 28.0, 73.5):
        for d in (1.0, 5.0, 42.0):
            assert fspl_db(f, 10.0 * d) - fspl_db(f, d) == pytest.approx(
                20.0, abs=1e-12)


def test_fspl_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fspl_db(0.0, 10.0)
    with pytest.raises(ValueError):
        fspl_db(-28.0, 10.0)
    with pytest.raises(ValueError):
        fspl_db(73.5, 1e-4)


@pytest.mark.parametrize("f_ghz", [math.nan, math.inf, -math.inf])
def test_non_finite_frequency_rejected(f_ghz):
    with pytest.raises(ValueError, match=f"got {f_ghz}"):
        fspl_db(f_ghz, 10.0)
    with pytest.raises(ValueError, match=f"got {f_ghz}"):
        CiModel(f_ghz, 2.0, 1.0, Condition.LOS)


def test_friis_log_form_matches_linear_form():
    # Linear-domain Friis with the same rounded anchor, computed in mW.
    pt, gt, gr, f, d = 14.9, 27.0, 20.0, 73.5, 25.0
    got = friis_received_power_dbm(pt, gt, gr, f, d)
    pl_lin = 10.0 ** (fspl_db(f, d) / 10.0)
    pr_mw = (10.0 ** (pt / 10.0)) * 10.0 ** (gt / 10.0) * 10.0 ** (gr / 10.0) / pl_lin
    assert got == pytest.approx(10.0 * math.log10(pr_mw), abs=1e-10)


def test_friis_example_value():
    got = friis_received_power_dbm(14.9, 27.0, 20.0, 73.5, 10.0)
    assert got == pytest.approx(14.9 + 27.0 + 20.0 - 89.7257467816839, abs=1e-9)


def test_friis_sounder_budget_at_reference_distance():
    got = friis_received_power_dbm(14.9, 27.0, 20.0, 73.5, 1.0)
    assert got == pytest.approx(-7.8257467816839, abs=1e-9)
    assert round(got, 2) == -7.83


def test_friis_zero_budget_is_negated_fspl():
    for f, d in ((1.0, 10.0), (73.5, 63.0)):
        assert friis_received_power_dbm(0.0, 0.0, 0.0, f, d) == pytest.approx(
            -fspl_db(f, d), abs=1e-12)


def test_friis_doubling_distance_costs_6db():
    delta = 20.0 * math.log10(2.0)
    for d in (1.0, 10.0, 63.0):
        drop = (friis_received_power_dbm(14.9, 27.0, 20.0, 73.5, d)
                - friis_received_power_dbm(14.9, 27.0, 20.0, 73.5, 2.0 * d))
        assert drop == pytest.approx(delta, abs=1e-12)


def test_received_power_is_plain_budget_arithmetic():
    assert received_power_dbm(10.0, 3.0, 2.0, 100.0) == -85.0
    assert received_power_dbm(14.9, 27.0, 20.0, 175.0) == pytest.approx(-113.1)
    assert received_power_dbm(14.9, 27.0, 20.0, 0.0) == pytest.approx(61.9)


def test_received_power_round_trips_with_friis():
    pt, gt, gr, f, d = 14.9, 27.0, 20.0, 73.5, 42.0
    assert received_power_dbm(pt, gt, gr, fspl_db(f, d)) == pytest.approx(
        friis_received_power_dbm(pt, gt, gr, f, d), abs=1e-12)


def test_gain_increase_with_fixed_apertures():
    assert gain_increase(3.0, 73.5) == pytest.approx(600.25, abs=1e-9)
    assert gain_increase(1.0, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert gain_increase(73.5, 73.5) == 1.0
    with pytest.raises(ValueError):
        gain_increase(0.0, 73.5)


def test_gain_increase_composes():
    for f1, f2, f3 in ((1.0, 3.0, 28.0), (3.0, 28.0, 73.5), (2.4, 5.8, 60.0)):
        assert gain_increase(f1, f2) * gain_increase(f2, f3) == pytest.approx(
            gain_increase(f1, f3), rel=1e-12)


def test_aperture_gain_uses_physical_wavelength():
    f = 73.5
    lam = SPEED_OF_LIGHT_M_PER_S / (f * 1e9)
    assert wavelength_m(f) == pytest.approx(lam, rel=1e-14)
    a = 0.01
    expect = 10.0 * math.log10(a * 4.0 * math.pi / lam**2)
    assert gain_from_aperture_dbi(a, f) == pytest.approx(expect, abs=1e-12)


def test_aperture_gain_isotropic_and_frequency_doubling():
    for f in (1.0, 28.0, 73.5):
        iso = wavelength_m(f) ** 2 / (4.0 * math.pi)
        assert gain_from_aperture_dbi(iso, f) == pytest.approx(0.0, abs=1e-12)
    # Fixed aperture, half the wavelength: gain rises by 20*log10(2).
    a = 0.01
    assert gain_from_aperture_dbi(a, 56.0) - gain_from_aperture_dbi(
        a, 28.0) == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        gain_from_aperture_dbi(0.0, 73.5)


def test_aperture_gain_consistency_with_gain_increase():
    # Identical physical apertures at both ends: moving f1 -> f2 raises the
    # received power by exactly (f2/f1)^2 despite the higher path loss.
    a_t, a_r, d = 0.02, 0.005, 50.0
    f1, f2 = 3.0, 73.5

    def pr(f):
        return friis_received_power_dbm(
            0.0, gain_from_aperture_dbi(a_t, f), gain_from_aperture_dbi(a_r, f),
            f, d)

    delta_db = pr(f2) - pr(f1)
    assert 10.0 ** (delta_db / 10.0) == pytest.approx(gain_increase(f1, f2),
                                                      rel=1e-9)


def test_ci_model_validation():
    with pytest.raises(ValueError):
        CiModel(0.0, 2.0, 1.0, Condition.LOS)
    with pytest.raises(ValueError):
        CiModel(73.5, 2.0, -1.0, Condition.LOS)
    with pytest.raises(ValueError):
        CiModel(73.5, 2.0, 1.0, Condition.LOS, d0_m=2.0)


def test_ci_mean_free_space_reduces_to_fspl():
    model = CiModel(73.5, 2.0, 0.0, Condition.LOS)
    for d in (1.0, 10.0, 63.0, 200.0):
        assert ci_mean_path_loss_db(model, d) == pytest.approx(
            fspl_db(73.5, d), abs=1e-12)


def test_ci_mean_anchored_at_reference_distance():
    for ple in (1.5, 2.0, 4.6):
        model = CiModel(73.5, ple, 5.0, Condition.NLOS)
        assert ci_mean_path_loss_db(model, 1.0) == pytest.approx(
            fspl_db(73.5, 1.0), abs=1e-12)


def test_ci_mean_nlos_values():
    model = CiModel(73.5, 4.6, 11.4, Condition.NLOS)
    assert ci_mean_path_loss_db(model, 63.0) == pytest.approx(152.495, abs=1e-3)
    assert ci_mean_path_loss_db(model, 200.0) == pytest.approx(175.573, abs=1e-3)


def test_ci_mean_rejects_below_reference():
    model = CiModel(73.5, 2.0, 0.0, Condition.LOS)
    with pytest.raises(ValueError):
        ci_mean_path_loss_db(model, 0.5)
    with pytest.raises(ValueError):
        ci_mean_path_loss_db(model, np.array([10.0, 0.9]))


def test_ci_mean_array_input():
    model = CiModel(73.5, 4.6, 11.4, Condition.NLOS)
    d = np.array([1.0, 10.0, 100.0])
    out = ci_mean_path_loss_db(model, d)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(fspl_db(73.5, 1.0))
    assert isinstance(ci_mean_path_loss_db(model, 10.0), float)


def test_ci_mean_scalar_and_array_paths_agree():
    # Python scalars take math.log10, arrays np.log10; the two may differ
    # in the last bit of the logarithm but not beyond.
    d = np.geomspace(1.0, 1e4, 301)
    for f_ghz in (28.0, 73.5, 140.0):
        for ple in (1.5, 2.0, 2.9, 4.6):
            model = CiModel(f_ghz, ple, 5.0, Condition.NLOS)
            arr = ci_mean_path_loss_db(model, d)
            scalar = [ci_mean_path_loss_db(model, float(x)) for x in d]
            assert all(isinstance(x, float) for x in scalar)
            np.testing.assert_allclose(scalar, arr, rtol=1e-15, atol=0)
            assert ci_mean_path_loss_db(model, 10) == pytest.approx(
                ci_mean_path_loss_db(model, np.array(10.0)), rel=1e-15)


def test_substream_reproducible_and_independent():
    a = substream(7, 1).normal(size=8)
    b = substream(7, 1).normal(size=8)
    c = substream(7, 2).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        substream(-1, 0)
