"""CI model parameter estimation.

The CI model has a single free slope parameter once the 1 m free-space
anchor is fixed, so the minimum-mean-square-error fit is closed form:

    n = sum(x_i * y_i) / sum(x_i^2),   x_i = 10 log10(d_i),
                                       y_i = PL_i - FSPL(f, 1 m)

with the shadow-fading sigma taken as the root-mean-square residual
(divide by N).  The sums are exactly rounded ``math.fsum`` sums, so the
fit needs no numpy.

``check_sample`` is the one rule for a sample's numbers:
``read_samples_csv`` applies it to each CSV row as it reads it, and
building a ``PathLossSamples`` record applies it to each sample.  A record
holds one condition's samples as columns; the reader returns one per
condition and keeps only the co-polarized (VV) rows, because the campaign
publishes no cross-polarized (VH) parameters to fit them to.  ``fit_ci``
fits every sample of the record it is given.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .propagation import CiModel, REFERENCE_DISTANCE_M, fspl_db, validated


class FitError(ValueError):
    """Raised when a sample set cannot support a CI fit."""


def check_sample(d_m: float, pl_db: float):
    """Raise ValueError naming the first field of one sample that is bad."""
    if not REFERENCE_DISTANCE_M <= d_m < math.inf:
        raise ValueError(f"sample distance must be finite and >= "
                         f"{REFERENCE_DISTANCE_M} m, got {d_m}")
    if not math.isfinite(pl_db):
        raise ValueError(f"pl_db must be finite, got {pl_db}")


@validated
class PathLossSamples(NamedTuple):
    """One condition's path-loss observations with antenna gains removed,
    one column per field.

    The fields are equal-length tuples, and entry i of each is sample i:
    distance in meters (finite, >= 1 m) and path loss in dB (finite).
    ``PathLossSamples()`` is the empty set, and ``PathLossSamples(*zip(*rows))``
    builds one from ``(d_m, pl_db)`` rows.

    Building one checks each sample in order by ``check_sample``, whose
    message the first bad sample raises.
    """

    d_m: tuple[float, ...] = ()
    pl_db: tuple[float, ...] = ()

    def _validate(self):
        if len(set(map(len, self))) > 1:
            raise ValueError(f"sample columns must have equal lengths, got "
                             f"{[len(col) for col in self]}")
        for sample in zip(*self):
            check_sample(*sample)


def fit_ci(samples: PathLossSamples, f_ghz: float) -> CiModel:
    """Closed-form MMSE fit of the CI slope and shadow-fading sigma.

    Args:
        samples: the observations to fit, every one of them; there must be
            at least two, spanning at least two distinct distances.
        f_ghz: carrier frequency fixing the 1 m anchor.

    Returns:
        CiModel whose sigma_db is the RMS fit residual.

    Raises:
        FitError: if the samples cannot be fitted, or if the fitted slope is
            not positive, which no CI model accepts.
    """
    d_m, pl_db = samples
    if len(d_m) < 2:
        raise FitError(f"need at least 2 samples, got {len(d_m)}")
    if len(set(d_m)) < 2:
        raise FitError("samples must span at least two distinct distances")
    anchor_db = fspl_db(f_ghz, REFERENCE_DISTANCE_M)
    x = [10.0 * math.log10(d) for d in d_m]
    y = [pl - anchor_db for pl in pl_db]
    try:
        ple = (math.fsum(a * b for a, b in zip(x, y))
               / math.fsum(a * a for a in x))
        sigma = math.sqrt(math.fsum((b - ple * a) ** 2 for a, b in zip(x, y))
                          / len(d_m))
    except (OverflowError, ValueError):  # fsum overflow or inf - inf
        raise FitError("path loss values are too large to fit") from None
    if not ple > 0:
        raise FitError(f"samples fit a path loss exponent of {ple:.6g}; "
                       "the CI model needs ple > 0")
    return CiModel(f_ghz=f_ghz, ple=ple, sigma_db=sigma)
