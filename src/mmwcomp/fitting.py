"""CI model parameter estimation and omnidirectional path loss synthesis.

The CI model has a single free slope parameter once the 1 m free-space
anchor is fixed, so the minimum-mean-square-error fit is closed form:

    n = sum(x_i * y_i) / sum(x_i^2),   x_i = 10 log10(d_i),
                                       y_i = PL_i - FSPL(f, 1 m)

with the shadow-fading sigma taken as the root-mean-square residual
(divide by N).  The sums are exactly rounded ``math.fsum`` sums, so the
fit needs no numpy.  Omnidirectional path loss is synthesized from a
directional scan by summing received power linearly over the unique
antenna pointing combinations that detected signal.
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

    Angle-bin ids are optional and only meaningful for directional data;
    cross-polarized (VH) samples are carried but excluded from fitting by
    default since no cross-polarized model parameters are published for
    this campaign.
    """

    d_m: float
    pl_db: float
    condition: Condition
    polarization: str = VV
    tx_angle_id: int | None = None
    rx_angle_id: int | None = None

    def _validate(self):
        if not REFERENCE_DISTANCE_M <= self.d_m < math.inf:
            raise ValueError(f"sample distance must be finite and >= "
                             f"{REFERENCE_DISTANCE_M} m, got {self.d_m}")
        if not math.isfinite(self.pl_db):
            raise ValueError(f"pl_db must be finite, got {self.pl_db}")
        if self.condition not in (Condition.LOS, Condition.NLOS):
            raise ValueError(f"sample condition must be LOS or NLOS, got {self.condition}")
        if self.polarization not in _POLARIZATIONS:
            raise ValueError(f"polarization must be one of {_POLARIZATIONS}")


class ScanEntry(NamedTuple):
    """Received power at one (TX sector angle, RX azimuth, RX elevation) bin."""

    tx_angle_id: int
    rx_azimuth_id: int
    rx_elevation_id: int
    p_r_dbm: float

    @property
    def angle_key(self) -> tuple[int, int, int]:
        return (self.tx_angle_id, self.rx_azimuth_id, self.rx_elevation_id)


@validated
class DirectionalScan(NamedTuple):
    """Detected-angle sweep record for one TX-RX link.

    Only angle combinations where signal was detected appear; each angle
    triple must be unique within the link.
    """

    link_id: str
    entries: tuple[ScanEntry, ...] = ()

    def _validate(self):
        keys = [e.angle_key for e in self.entries]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate angle triple in scan for link {self.link_id}")


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
    return CiModel(f_ghz=f_ghz, ple=ple, sigma_db=sigma,
                   condition=used[0].condition)


def synthesize_omni_path_loss_db(scan: DirectionalScan, gt_dbi: float,
                                 gr_dbi: float, pt_dbm: float) -> float:
    """Omnidirectional path loss synthesized from a directional scan.

    Sums received power linearly over the scan's unique angle triples and
    removes transmit power and antenna gains:

        PL_omni = P_t + G_t + G_r - 10 log10(sum_i 10^(P_r,i / 10))

    The result never exceeds the lowest directional path loss in the scan.
    """
    if not scan.entries:
        raise ValueError(f"scan for link {scan.link_id} is empty")
    p_lin_mw = sum(10.0 ** (e.p_r_dbm / 10.0) for e in scan.entries)
    return pt_dbm + gt_dbi + gr_dbi - 10.0 * math.log10(p_lin_mw)


def group_samples_by_condition(
        samples: Iterable[PathLossSample]) -> dict[Condition, list[PathLossSample]]:
    """Split a mixed sample set by condition label, preserving order."""
    groups: dict[Condition, list[PathLossSample]] = {}
    for s in samples:
        groups.setdefault(s.condition, []).append(s)
    return groups
