"""Free-space path loss and the CI model."""

import math

import numpy as np
import pytest

from mmwcomp import CiModel, ci_mean_path_loss_db, fspl_db, substream


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
    with pytest.raises(ValueError, match="got nan"):
        fspl_db(73.5, math.nan)


@pytest.mark.parametrize("f_ghz", [math.nan, math.inf, -math.inf])
def test_non_finite_frequency_rejected(f_ghz):
    with pytest.raises(ValueError, match=f"got {f_ghz}"):
        fspl_db(f_ghz, 10.0)
    with pytest.raises(ValueError, match=f"got {f_ghz}"):
        CiModel(f_ghz, 2.0, 1.0)


def test_ci_model_validation():
    with pytest.raises(ValueError):
        CiModel(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        CiModel(73.5, 2.0, -1.0)


def test_ci_mean_free_space_reduces_to_fspl():
    model = CiModel(73.5, 2.0, 0.0)
    for d in (1.0, 10.0, 63.0, 200.0):
        assert ci_mean_path_loss_db(model, d) == pytest.approx(
            fspl_db(73.5, d), abs=1e-12)


def test_ci_mean_anchored_at_reference_distance():
    for ple in (1.5, 2.0, 4.6):
        model = CiModel(73.5, ple, 5.0)
        assert ci_mean_path_loss_db(model, 1.0) == pytest.approx(
            fspl_db(73.5, 1.0), abs=1e-12)


def test_ci_mean_nlos_values():
    model = CiModel(73.5, 4.6, 11.4)
    assert ci_mean_path_loss_db(model, 63.0) == pytest.approx(152.495, abs=1e-3)
    assert ci_mean_path_loss_db(model, 200.0) == pytest.approx(175.573, abs=1e-3)
    assert isinstance(ci_mean_path_loss_db(model, 10), float)


def test_ci_mean_rejects_below_reference():
    model = CiModel(73.5, 2.0, 0.0)
    with pytest.raises(ValueError):
        ci_mean_path_loss_db(model, 0.5)


def test_substream_reproducible_and_independent():
    a = substream(7, 1).normal(size=8)
    b = substream(7, 1).normal(size=8)
    c = substream(7, 2).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        substream(-1, 0)
