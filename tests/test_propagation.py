"""Free-space path loss and the CI model."""

import math

import numpy as np
import pytest

from mmwcomp import CiModel, ci_mean_path_loss_db, fspl_db, substream

NLOS = CiModel(73.5, 4.6, 11.4)

# Each row: a call, the value it must return (of the same type) and the
# absolute tolerance.
SPOT_VALUES = {
    "fspl_anchor_at_1ghz_1m": (lambda: fspl_db(1.0, 1.0), 32.4, 1e-12),
    "fspl_73_5ghz_1m": (lambda: fspl_db(73.5, 1.0), 69.7257467816839, 1e-10),
    "fspl_20db_per_decade": (
        lambda: [fspl_db(f, 10.0 * d) - fspl_db(f, d)
                 for f in (1.0, 28.0, 73.5) for d in (1.0, 5.0, 42.0)],
        [20.0] * 9, 1e-12),
    "ci_mean_free_space_reduces_to_fspl": (
        lambda: [ci_mean_path_loss_db(CiModel(73.5, 2.0, 0.0), d)
                 for d in (1.0, 10.0, 63.0, 200.0)],
        [fspl_db(73.5, d) for d in (1.0, 10.0, 63.0, 200.0)], 1e-12),
    "ci_mean_anchored_at_reference_distance": (
        lambda: [ci_mean_path_loss_db(CiModel(73.5, ple, 5.0), 1.0)
                 for ple in (1.5, 2.0, 4.6)],
        [fspl_db(73.5, 1.0)] * 3, 1e-12),
    "ci_mean_nlos_63m": (lambda: ci_mean_path_loss_db(NLOS, 63.0), 152.495,
                         1e-3),
    "ci_mean_nlos_200m": (lambda: ci_mean_path_loss_db(NLOS, 200.0), 175.573,
                          1e-3),
    "ci_mean_nlos_int_10m": (lambda: ci_mean_path_loss_db(NLOS, 10),
                             115.7257467816839, 1e-10),
}


@pytest.mark.parametrize("call, expected, tol", list(SPOT_VALUES.values()),
                         ids=list(SPOT_VALUES))
def test_spot_value(call, expected, tol):
    value = call()
    assert type(value) is type(expected)
    assert value == pytest.approx(expected, abs=tol)


REJECTIONS = {
    **{f"fspl_f_ghz_{f}": (
        lambda f=f: fspl_db(f, 10.0), ValueError,
        f"frequency must be positive and finite, got {f} GHz")
       for f in (0.0, -28.0, math.nan, math.inf, -math.inf)},
    **{f"fspl_d_m_{d}": (
        lambda d=d: fspl_db(73.5, d), ValueError,
        f"distance must be >= 0.001 m, got {d}")
       for d in (1e-4, math.nan)},
    "ci_mean_below_reference": (
        lambda: ci_mean_path_loss_db(CiModel(73.5, 2.0, 0.0), 0.5), ValueError,
        "CI model is defined for d >= 1.0 m, got 0.5"),
}


@pytest.mark.parametrize("call, error, message", list(REJECTIONS.values()),
                         ids=list(REJECTIONS))
def test_library_rejects(call, error, message, rejects):
    rejects(call, error, message)


def test_substream_reproducible_and_independent(rejects):
    a = substream(7, 1).normal(size=8)
    b = substream(7, 1).normal(size=8)
    c = substream(7, 2).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    rejects(lambda: substream(-1, 0), ValueError,
            "seed must be non-negative, got -1")
