"""CI model fitting, residual diagnostics and omni synthesis."""

import math

import numpy as np
import pytest

from mmwcomp import (CiModel, Condition, DirectionalScan, FitError,
                     PathLossSample, ScanEntry, ci_mean_path_loss_db,
                     fit_ci, fspl_db,
                     group_samples_by_condition, residual_diagnostics,
                     substream, synthesize_omni_path_loss_db)

F = 73.5


def make_samples(model, distances, rng=None, condition=None):
    cond = condition or model.condition
    out = []
    for d in distances:
        pl = ci_mean_path_loss_db(model, d)
        if rng is not None:
            pl = float(pl + rng.normal(0.0, model.sigma_db))
        out.append(PathLossSample(d, pl, cond))
    return out


def test_sample_validation():
    with pytest.raises(ValueError):
        PathLossSample(0.5, 100.0, Condition.NLOS)
    with pytest.raises(ValueError):
        PathLossSample(10.0, math.nan, Condition.NLOS)
    with pytest.raises(ValueError):
        PathLossSample(10.0, 100.0, Condition.NLOS_BEST)
    with pytest.raises(ValueError):
        PathLossSample(10.0, 100.0, Condition.NLOS, polarization="HH")


def test_fit_noise_free_exact():
    truth = CiModel(F, 2.0, 0.0, Condition.LOS)
    samples = make_samples(truth, np.linspace(10, 200, 50))
    fit = fit_ci(samples, F)
    assert fit.ple == pytest.approx(2.0, abs=1e-9)
    assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)
    assert fit.condition is Condition.LOS
    assert fit.f_ghz == F


def test_fit_two_points_one_decade_apart():
    # 30 dB per decade between 10 m and 100 m pins the slope at 3.0.
    anchor = fspl_db(F, 1.0)
    samples = [PathLossSample(10.0, anchor + 30.0, Condition.NLOS),
               PathLossSample(100.0, anchor + 60.0, Condition.NLOS)]
    fit = fit_ci(samples, F)
    assert fit.ple == pytest.approx(3.0, abs=1e-12)
    assert fit.sigma_db == pytest.approx(0.0, abs=1e-12)


def test_fit_matches_closed_form_on_noisy_data():
    truth = CiModel(F, 4.6, 11.4, Condition.NLOS)
    rng = substream(11, 0)
    samples = make_samples(truth, 10.0 ** rng.uniform(1, 2.3, size=300), rng)
    fit = fit_ci(samples, F)
    x = np.array([10.0 * math.log10(s.d_m) for s in samples])
    y = np.array([s.pl_db - fspl_db(F, 1.0) for s in samples])
    ple = float(x @ y / (x @ x))
    resid = y - ple * x
    assert fit.ple == pytest.approx(ple, abs=1e-12)
    assert fit.sigma_db == pytest.approx(
        math.sqrt(float(resid @ resid) / len(samples)), abs=1e-12)


def test_fit_shift_consistency():
    # Adding c dB to every sample shifts the fitted slope by c*sum(x)/sum(x^2)
    # in the anchored (no-intercept) closed form.
    truth = CiModel(F, 2.8, 8.7, Condition.NLOS)
    rng = substream(11, 1)
    samples = make_samples(truth, 10.0 ** rng.uniform(1, 2.3, size=200), rng)
    c = 7.0
    shifted = [PathLossSample(s.d_m, s.pl_db + c, s.condition) for s in samples]
    x = np.array([10.0 * math.log10(s.d_m) for s in samples])
    expect_delta = c * float(np.sum(x) / np.sum(x * x))
    assert fit_ci(shifted, F).ple - fit_ci(samples, F).ple == pytest.approx(
        expect_delta, abs=1e-10)


def test_fit_requires_two_distinct_distances():
    s = PathLossSample(50.0, 140.0, Condition.NLOS)
    with pytest.raises(FitError):
        fit_ci([s], F)
    with pytest.raises(FitError):
        fit_ci([s, PathLossSample(50.0, 150.0, Condition.NLOS)], F)


def test_fit_rejects_mixed_conditions():
    samples = [PathLossSample(10.0, 100.0, Condition.LOS),
               PathLossSample(20.0, 120.0, Condition.NLOS)]
    with pytest.raises(FitError):
        fit_ci(samples, F)


def test_fit_vh_excluded_by_default():
    truth = CiModel(F, 2.0, 0.0, Condition.LOS)
    co = make_samples(truth, [10.0, 50.0, 100.0])
    # Cross-polarized rows carry a large discrimination offset.
    cross = [PathLossSample(s.d_m, s.pl_db + 15.0, s.condition,
                            polarization="VH") for s in co]
    assert fit_ci(co + cross, F).ple == pytest.approx(2.0, abs=1e-9)
    assert fit_ci(co + cross, F, include_vh=True).ple > 2.0
    with pytest.raises(FitError):
        fit_ci(cross, F)  # nothing co-polarized left after the filter


def test_residual_diagnostics_noise_free():
    truth = CiModel(F, 2.0, 0.0, Condition.LOS)
    samples = make_samples(truth, [10.0, 31.6, 100.0])
    diag = residual_diagnostics(fit_ci(samples, F), samples)
    assert diag.mean_residual_db == pytest.approx(0.0, abs=1e-9)
    assert diag.rms_residual_db == pytest.approx(0.0, abs=1e-9)


def test_residuals_orthogonal_to_regressor():
    # The anchored one-parameter fit leaves residuals orthogonal to
    # 10*log10(d); their plain mean is generally nonzero.
    truth = CiModel(F, 4.6, 11.4, Condition.NLOS)
    rng = substream(11, 2)
    samples = make_samples(truth, 10.0 ** rng.uniform(1, 2.3, size=500), rng)
    diag = residual_diagnostics(fit_ci(samples, F), samples)
    x = np.array([10.0 * math.log10(s.d_m) for s in samples])
    assert float(x @ np.asarray(diag.residuals_db)) == pytest.approx(
        0.0, abs=1e-6)


def test_residual_diagnostics_condition_mismatch():
    model = CiModel(F, 2.0, 1.9, Condition.LOS)
    samples = [PathLossSample(10.0, 100.0, Condition.NLOS)]
    with pytest.raises(FitError):
        residual_diagnostics(model, samples)


def test_omni_single_angle_equals_directional():
    pt, gt, gr = 14.9, 27.0, 20.0
    pl = 150.0
    scan = DirectionalScan("L1", (ScanEntry(0, 0, 0, pt + gt + gr - pl),))
    assert synthesize_omni_path_loss_db(scan, gt, gr, pt) == pytest.approx(
        pl, abs=1e-12)


def test_omni_two_equal_angles_gain_3db():
    pt, gt, gr = 14.9, 27.0, 20.0
    pr = pt + gt + gr - 150.0
    scan = DirectionalScan("L1", (ScanEntry(0, 0, 0, pr), ScanEntry(1, 0, 0, pr)))
    omni = synthesize_omni_path_loss_db(scan, gt, gr, pt)
    assert omni == pytest.approx(150.0 - 10.0 * math.log10(2.0), abs=1e-12)
    assert omni == pytest.approx(150.0 - 3.010299956639812, abs=1e-12)


def test_omni_never_exceeds_best_directional():
    pt, gt, gr = 14.9, 27.0, 20.0
    rng = substream(11, 3)
    prs = rng.uniform(-120.0, -60.0, size=30)
    entries = tuple(ScanEntry(i % 15, i % 24, i // 24, float(p))
                    for i, p in enumerate(prs))
    scan = DirectionalScan("L1", entries)
    omni = synthesize_omni_path_loss_db(scan, gt, gr, pt)
    best_directional = min(pt + gt + gr - p for p in prs)
    assert omni <= best_directional + 1e-12


def test_omni_empty_scan_rejected():
    with pytest.raises(ValueError):
        synthesize_omni_path_loss_db(DirectionalScan("L1", ()), 27.0, 20.0, 14.9)


def test_scan_rejects_duplicate_angle_triples():
    with pytest.raises(ValueError):
        DirectionalScan("L1", (ScanEntry(0, 0, 0, -90.0),
                               ScanEntry(0, 0, 0, -95.0)))


def test_synthesized_omni_fits_lower_ple_than_directional():
    # Power-summing many directional looks reduces effective path loss, so
    # the omni fit sits below the arbitrary-angle directional fit.
    directional = CiModel(F, 4.6, 11.4, Condition.NLOS)
    pt, gt, gr = 14.9, 27.0, 20.0
    rng = substream(11, 4)
    omni_samples = []
    for d in 10.0 ** rng.uniform(1, 2.3, size=120):
        pls = (ci_mean_path_loss_db(directional, d)
               + rng.normal(0.0, directional.sigma_db, 24))
        entries = tuple(ScanEntry(0, i, 0, pt + gt + gr - float(pl))
                        for i, pl in enumerate(pls))
        omni_pl = synthesize_omni_path_loss_db(
            DirectionalScan("L", entries), gt, gr, pt)
        omni_samples.append(PathLossSample(float(d), omni_pl, Condition.NLOS))
    assert fit_ci(omni_samples, F).ple < directional.ple


def test_group_samples_by_condition():
    a = PathLossSample(10.0, 100.0, Condition.LOS)
    b = PathLossSample(20.0, 130.0, Condition.NLOS)
    c = PathLossSample(30.0, 140.0, Condition.NLOS)
    groups = group_samples_by_condition([a, b, c])
    assert groups == {Condition.LOS: [a], Condition.NLOS: [b, c]}
