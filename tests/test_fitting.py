"""CI model fitting and the sample record."""

import io
import math

import numpy as np
import oracles
import pytest

from mmwcomp import (CiModel, Condition, FitError, PathLossSamples,
                     ci_mean_path_loss_db, fit_ci, fspl_db, read_samples_csv,
                     substream)

F = 73.5


def columns(rows):
    """One PathLossSamples from ``(d_m, pl_db)`` rows."""
    return PathLossSamples(*zip(*rows))


def read_rows(rows):
    """``read_samples_csv`` of ``(d_m, pl_db, condition, polarization)`` rows."""
    return read_samples_csv(io.StringIO(
        "d_m,pl_db,condition,polarization\n"
        + "".join(f"{d!r},{pl!r},{cond},{pol}\n" for d, pl, cond, pol in rows)))


def make_samples(model, distances, rng=None):
    out = []
    for d in distances:
        pl = ci_mean_path_loss_db(model, d)
        if rng is not None:
            pl = float(pl + rng.normal(0.0, model.sigma_db))
        out.append((d, pl))
    return columns(out)


def noisy(truth, key, size):
    """``size`` samples of ``truth``, shadowing included, drawn on
    ``substream(11, key)`` at log-uniform distances over [10, 200] m."""
    rng = substream(11, key)
    return make_samples(truth, 10.0 ** rng.uniform(1, 2.3, size=size), rng)


def every_sample(samples):
    """``samples`` and its columns as arrays, for a fit of every sample."""
    return samples, np.array(samples.d_m), np.array(samples.pl_db)


def mixed_polarizations(n):
    """``n`` samples over [1, 1e4] m, about a fifth of them cross-polarized,
    as ``read_samples_csv`` returns them, and the co-polarized distances and
    losses as arrays: the reader must leave the VH rows out of the fit."""
    rng = substream(23, n)
    d = 10.0 ** rng.uniform(0.0, 4.0, size=n)
    ple_true, sigma_true = rng.uniform(1.5, 6.0), rng.uniform(1.0, 15.0)
    pl = fspl_db(F, 1.0) + 10.0 * ple_true * np.log10(d) + rng.normal(
        0.0, sigma_true, n)
    vh = rng.uniform(size=n) < 0.2
    vh[:2] = False
    samples = read_rows((a, b, "NLOS", "VH" if c else "VV")
                        for a, b, c in zip(d.tolist(), pl.tolist(), vh))
    return samples[Condition.NLOS], d[~vh], pl[~vh]


def test_fit_noise_free_exact():
    truth = CiModel(F, 2.0, 0.0)
    samples = make_samples(truth, np.linspace(10, 200, 50))
    fit = fit_ci(samples, F)
    assert fit.ple == pytest.approx(2.0, abs=1e-9)
    assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)
    assert fit.f_ghz == F


def test_fit_two_points_one_decade_apart():
    # 30 dB per decade between 10 m and 100 m pins the slope at 3.0.
    anchor = fspl_db(F, 1.0)
    samples = columns([(10.0, anchor + 30.0), (100.0, anchor + 60.0)])
    fit = fit_ci(samples, F)
    assert fit.ple == pytest.approx(3.0, abs=1e-12)
    assert fit.sigma_db == pytest.approx(0.0, abs=1e-12)


# Each row makes the samples to fit and the distances and losses that
# ``oracles.ci_fit`` fits, and gives the tolerance of the comparison.  The
# oracle anchors at its fixed 73.5 GHz, which is F.
FITS = {
    "closed_form_on_noisy_data": (
        lambda: every_sample(noisy(CiModel(F, 4.6, 11.4), 0, 300)),
        {"abs": 1e-12}),
    **{str(n): (lambda n=n: mixed_polarizations(n), {"rel": 1e-12, "abs": 0})
       for n in (2, 3, 17, 1000, 100_000)},
}


@pytest.mark.parametrize("make, tol", list(FITS.values()), ids=list(FITS))
def test_fit_matches_numpy_least_squares(make, tol):
    samples, d, pl = make()
    fit = fit_ci(samples, F)
    ple, sigma = oracles.ci_fit(d, pl)
    assert fit.ple == pytest.approx(ple, **tol)
    assert fit.sigma_db == pytest.approx(sigma, **tol)


def test_fit_shift_consistency():
    # Adding c dB to every sample shifts the fitted slope by c*sum(x)/sum(x^2)
    # in the anchored (no-intercept) closed form.
    samples = noisy(CiModel(F, 2.8, 8.7), 1, 200)
    c = 7.0
    shifted = columns([(d, pl + c) for d, pl in zip(*samples)])
    x = np.array([10.0 * math.log10(d) for d in samples.d_m])
    expect_delta = c * float(np.sum(x) / np.sum(x * x))
    assert fit_ci(shifted, F).ple - fit_ci(samples, F).ple == pytest.approx(
        expect_delta, abs=1e-10)


REJECTIONS = {
    "one_sample": (lambda: fit_ci(columns([(50.0, 140.0)]), F), FitError,
                   "need at least 2 samples, got 1"),
    "one_distance": (
        lambda: fit_ci(columns([(50.0, 140.0), (50.0, 150.0)]), F), FitError,
        "samples must span at least two distinct distances"),
    # Every product is finite but the sums overflow, or they hold inf - inf.
    **{f"sums_{name}": (
        lambda pl_db=pl_db: fit_ci(
            columns([(10.0 + i, pl) for i, pl in enumerate(pl_db)]), F),
        FitError, "path loss values are too large to fit")
       for name, pl_db in (("overflow", (1e307,) * 30),
                           ("inf_minus_inf", (1e308, -1e308)))},
    # A slope of 0 or below is no CI model; the caller names the condition.
    **{f"slope_{name}": (
        lambda pl_db=pl_db: fit_ci(columns(zip((10.0, 40.0), pl_db)), F),
        FitError, f"samples fit a path loss exponent of {ple}; the CI model "
                  "needs ple > 0")
       for name, pl_db, ple in (
           ("flat_at_anchor", (fspl_db(F, 1.0),) * 2, "0"),
           ("falling", (60.0, 50.0), "-1.15874"))},
}


@pytest.mark.parametrize("call, error, message", list(REJECTIONS.values()),
                         ids=list(REJECTIONS))
def test_library_rejects(call, error, message, rejects):
    rejects(call, error, message)


def test_reader_keeps_no_cross_polarized_rows(rejects):
    truth = CiModel(F, 2.0, 0.0)
    co = make_samples(truth, [10.0, 50.0, 100.0])
    # Cross-polarized rows carry a large discrimination offset; the reader
    # checks them and keeps none.
    cross = [(d, pl + 15.0, "LOS", "VH") for d, pl in zip(*co)]
    both = read_rows([*((d, pl, "LOS", "VV") for d, pl in zip(*co)), *cross])
    assert both == {Condition.LOS: co}
    assert fit_ci(both[Condition.LOS], F).ple == pytest.approx(2.0, abs=1e-9)
    only_cross = read_rows(cross)
    assert only_cross == {Condition.LOS: PathLossSamples()}
    # Nothing co-polarized is left to fit.
    rejects(lambda: fit_ci(only_cross[Condition.LOS], F), FitError,
            "need at least 2 samples, got 0")


def test_residuals_orthogonal_to_regressor():
    # The anchored one-parameter fit leaves residuals orthogonal to
    # 10*log10(d); their plain mean is generally nonzero.
    samples = noisy(CiModel(F, 4.6, 11.4), 2, 500)
    fit = fit_ci(samples, F)
    x = np.array([10.0 * math.log10(d) for d in samples.d_m])
    resid = np.array([pl - ci_mean_path_loss_db(fit, d)
                      for d, pl in zip(samples.d_m, samples.pl_db)])
    assert float(x @ resid) == pytest.approx(0.0, abs=1e-6)
    assert fit.sigma_db == pytest.approx(
        math.sqrt(float(resid @ resid) / len(samples.d_m)), rel=1e-12)
