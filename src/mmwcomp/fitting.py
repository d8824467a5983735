"""CI model parameter estimation.

The CI model has a single free slope parameter once the 1 m free-space
anchor is fixed, so the minimum-mean-square-error fit is closed form:

    n = sum(x_i * y_i) / sum(x_i^2),   x_i = 10 log10(d_i),
                                       y_i = PL_i - FSPL(f, 1 m)

with the shadow-fading sigma taken as the root-mean-square residual
(divide by N).  The sums are exactly rounded ``math.fsum`` sums, so the
fit needs no numpy.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .propagation import (CiModel, Condition, REFERENCE_DISTANCE_M, fspl_db,
                          validated)

VV = "VV"
VH = "VH"
_POLARIZATIONS = (VV, VH)


class FitError(ValueError):
    """Raised when a sample set cannot support a CI fit."""


@validated
class PathLossSample(NamedTuple):
    """One path loss observation with antenna gains removed.

    Cross-polarized (VH) samples are carried but excluded from fitting by
    default since no cross-polarized model parameters are published for
    this campaign.
    """

    d_m: float
    pl_db: float
    condition: Condition
    polarization: str = VV

    def _validate(self):
        if not REFERENCE_DISTANCE_M <= self.d_m < math.inf:
            raise ValueError(f"sample distance must be finite and >= "
                             f"{REFERENCE_DISTANCE_M} m, got {self.d_m}")
        if not math.isfinite(self.pl_db):
            raise ValueError(f"pl_db must be finite, got {self.pl_db}")
        if self.condition not in (Condition.LOS, Condition.NLOS):
            label = getattr(self.condition, "value", self.condition)
            raise ValueError(f"sample condition must be LOS or NLOS, got {label}")
        if self.polarization not in _POLARIZATIONS:
            raise ValueError(f"polarization must be one of {_POLARIZATIONS}")


def _fit_inputs(samples: Sequence[PathLossSample],
                include_vh: bool) -> list[PathLossSample]:
    used = [s for s in samples if include_vh or s.polarization == VV]
    if not used:
        raise FitError("no usable samples (cross-polarized rows are excluded by default)")
    conditions = {s.condition for s in used}
    if len(conditions) != 1:
        raise FitError(f"samples mix conditions {sorted(c.value for c in conditions)}")
    return used


def fit_ci(samples: Sequence[PathLossSample], f_ghz: float,
           include_vh: bool = False) -> CiModel:
    """Closed-form MMSE fit of the CI slope and shadow-fading sigma.

    Args:
        samples: observations of one condition; at least two, spanning at
            least two distinct distances.
        f_ghz: carrier frequency fixing the 1 m anchor.
        include_vh: also use cross-polarized samples (off by default).

    Returns:
        CiModel labeled with the samples' condition; sigma_db is the RMS
        fit residual.

    Raises:
        FitError: if the samples cannot be fitted, or if the fitted slope is
            not positive, which no CI model accepts.
    """
    used = _fit_inputs(samples, include_vh)
    if len(used) < 2:
        raise FitError(f"need at least 2 samples, got {len(used)}")
    if len({s.d_m for s in used}) < 2:
        raise FitError("samples must span at least two distinct distances")
    anchor_db = fspl_db(f_ghz, REFERENCE_DISTANCE_M)
    x = [10.0 * math.log10(s.d_m) for s in used]
    y = [s.pl_db - anchor_db for s in used]
    try:
        ple = (math.fsum(a * b for a, b in zip(x, y))
               / math.fsum(a * a for a in x))
        sigma = math.sqrt(math.fsum((b - ple * a) ** 2 for a, b in zip(x, y))
                          / len(used))
    except (OverflowError, ValueError):  # fsum overflow or inf - inf
        raise FitError("path loss values are too large to fit") from None
    condition = used[0].condition
    if not ple > 0:
        raise FitError(f"{condition.value} samples fit a path loss exponent "
                       f"of {ple:.6g}; the CI model needs ple > 0")
    return CiModel(f_ghz=f_ghz, ple=ple, sigma_db=sigma, condition=condition)


def group_samples_by_condition(
        samples: Iterable[PathLossSample]) -> dict[Condition, list[PathLossSample]]:
    """Split a mixed sample set by condition label, preserving order."""
    groups: dict[Condition, list[PathLossSample]] = {}
    for s in samples:
        groups.setdefault(s.condition, []).append(s)
    return groups
