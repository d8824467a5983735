"""Closed-form propagation math for millimeter-wave link analysis.

Free-space path loss, the Friis transmission equation, aperture/gain
relations, and the single-slope close-in (CI) reference-distance path loss
model with lognormal shadow fading.

Conventions used throughout the package: path loss in dB, powers in dBm,
antenna gains in dBi, distances in meters, carrier frequencies in GHz.
The CI model is anchored at a 1 m reference distance using the standard
32.4 dB free-space constant at 1 GHz, so the mean path loss is

    PL(f, d) = 32.4 + 20 log10(f [GHz]) + 10 n log10(d [m])

with n the path loss exponent; shadow fading adds a zero-mean Gaussian
deviation (in dB) with standard deviation ``sigma_db`` around that mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

# Free-space path loss at 1 GHz and 1 m in the CI convention.  This is the
# rounded anchor used by the CI / 3GPP model family; it differs from the
# unrounded 20*log10(4*pi*1e9/c) = 32.4478 dB by ~0.05 dB.
FSPL_1GHZ_1M_DB = 32.4

# The CI model is defined for d >= d0; below ~1 mm the far-field formulas
# are meaningless and inputs are rejected outright.
MIN_DISTANCE_M = 1e-3

REFERENCE_DISTANCE_M = 1.0


class Condition(str, Enum):
    """Link environment label for path loss statistics.

    LOS / NLOS describe arbitrary antenna pointing; NLOS_BEST describes the
    statistics of the optimally aligned beam pair on an obstructed link.
    """

    LOS = "LOS"
    NLOS = "NLOS"
    NLOS_BEST = "NLOS_BEST"


def frequency_hz(f_ghz: float) -> float:
    """Carrier frequency in Hz."""
    if f_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {f_ghz} GHz")
    return f_ghz * 1e9


def wavelength_m(f_ghz: float) -> float:
    """Carrier wavelength in meters (c = 299,792,458 m/s)."""
    return SPEED_OF_LIGHT_M_PER_S / frequency_hz(f_ghz)


@dataclass(frozen=True)
class CiModel:
    """Fitted close-in reference-distance path loss model.

    Attributes:
        f_ghz: carrier frequency in GHz.
        ple: path loss exponent (n = 2 is free space).
        sigma_db: shadow fading standard deviation in dB.
        condition: environment label the parameters were derived for.
        d0_m: reference distance; fixed at 1 m so the 32.4 dB anchor holds.
    """

    f_ghz: float
    ple: float
    sigma_db: float
    condition: Condition
    d0_m: float = REFERENCE_DISTANCE_M

    def __post_init__(self):
        if not 0 < self.f_ghz < math.inf:
            raise ValueError(f"f_ghz must be positive and finite, got {self.f_ghz}")
        if not math.isfinite(self.ple):
            raise ValueError(f"ple must be finite, got {self.ple}")
        if not self.sigma_db >= 0:
            raise ValueError(f"sigma_db must be >= 0, got {self.sigma_db}")
        if self.d0_m != REFERENCE_DISTANCE_M:
            raise ValueError("reference distance is fixed at 1 m")


def fspl_db(f_ghz: float, d_m: float) -> float:
    """Free-space path loss in dB.

    Uses the CI-convention anchor: 32.4 + 20 log10(f [GHz]) + 20 log10(d [m]),
    i.e. free-space decay of 20 dB per decade of distance.

    Args:
        f_ghz: carrier frequency in GHz (> 0).
        d_m: 3D TX-RX separation in meters (>= 1 mm).
    """
    if not 0 < f_ghz < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {f_ghz} GHz")
    if d_m < MIN_DISTANCE_M:
        raise ValueError(f"distance must be >= {MIN_DISTANCE_M} m, got {d_m}")
    return FSPL_1GHZ_1M_DB + 20.0 * math.log10(f_ghz) + 20.0 * math.log10(d_m)


def received_power_dbm(pt_dbm: float, gt_dbi: float, gr_dbi: float,
                       pl_db: float) -> float:
    """Received power from transmit power, antenna gains and path loss."""
    return pt_dbm + gt_dbi + gr_dbi - pl_db


def friis_received_power_dbm(pt_dbm: float, gt_dbi: float, gr_dbi: float,
                             f_ghz: float, d_m: float) -> float:
    """Friis free-space received power in dBm.

    Log-domain form: P_t + G_t + G_r - FSPL(f, d).  Equivalent to the linear
    form P_t * g_t * g_r * (lambda / 4 pi d)^2 expressed in dBm.
    """
    return received_power_dbm(pt_dbm, gt_dbi, gr_dbi, fspl_db(f_ghz, d_m))


def gain_increase(f1_ghz: float, f2_ghz: float) -> float:
    """Linear received-power gain of f2 over f1 for fixed aperture sizes.

    With identical physical TX and RX apertures at both frequencies, free
    space favors the higher frequency by (f2/f1)^2.
    """
    if f1_ghz <= 0 or f2_ghz <= 0:
        raise ValueError("frequencies must be positive")
    return (f2_ghz / f1_ghz) ** 2


def gain_from_aperture_dbi(aperture_m2: float, f_ghz: float) -> float:
    """Antenna gain in dBi from effective aperture area: G = A_e 4 pi / lambda^2."""
    if aperture_m2 <= 0:
        raise ValueError(f"aperture must be positive, got {aperture_m2}")
    lam = wavelength_m(f_ghz)
    return 10.0 * math.log10(aperture_m2 * 4.0 * math.pi / lam**2)


def ci_mean_path_loss_db(model: CiModel, d_m):
    """Mean CI path loss at distance(s) ``d_m``.

    Accepts a scalar or array of distances; returns the distance-dependent
    mean FSPL(f, 1 m) + 10 n log10(d) without shadow fading.  A Python
    int or float is computed with ``math.log10`` and returns a float;
    anything else goes through numpy and returns a float for a 0-d input.

    Raises:
        ValueError: if any distance is below the 1 m reference distance,
            where the model is not defined.
    """
    if isinstance(d_m, (int, float)):
        if d_m < model.d0_m:
            raise ValueError(f"CI model is defined for d >= {model.d0_m} m")
        return fspl_db(model.f_ghz, model.d0_m) + 10.0 * model.ple * math.log10(d_m)
    import numpy as np
    d = np.asarray(d_m, dtype=float)
    if np.any(d < model.d0_m):
        raise ValueError(f"CI model is defined for d >= {model.d0_m} m")
    out = fspl_db(model.f_ghz, model.d0_m) + 10.0 * model.ple * np.log10(d)
    return float(out) if out.ndim == 0 else out

