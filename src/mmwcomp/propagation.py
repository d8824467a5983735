"""Closed-form propagation math for millimeter-wave link analysis.

Free-space path loss and the single-slope close-in (CI) reference-distance
path loss model with lognormal shadow fading.

Conventions used throughout the package: path loss in dB, powers in dBm,
antenna gains in dBi, distances in meters, carrier frequencies in GHz.
The CI model is anchored at a 1 m reference distance using the standard
32.4 dB free-space constant at 1 GHz, so the mean path loss is

    PL(f, d) = 32.4 + 20 log10(f [GHz]) + 10 n log10(d [m])

with n the path loss exponent; shadow fading adds a zero-mean Gaussian
deviation (in dB) with standard deviation ``sigma_db`` around that mean.
"""

from __future__ import annotations

import functools
import math
import types
from enum import Enum
from typing import Mapping, NamedTuple, Union, get_args, get_origin, get_type_hints

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


def validated(cls):
    """Run ``_validate`` on every record that calling ``cls`` builds.

    The package's records are ``typing.NamedTuple`` classes, whose class
    body may not define ``__new__``; this wraps the generated one instead.
    ``_make`` and ``_replace`` build through ``tuple.__new__`` and so copy a
    record without checking it again.
    """
    new = cls.__new__

    @functools.wraps(new)
    def __new__(cls_, *args, **kwargs):
        self = new(cls_, *args, **kwargs)
        self._validate()
        return self

    cls.__new__ = staticmethod(__new__)
    return cls


@functools.cache
def field_kinds(cls) -> Mapping[str, type]:
    """Each field of the record class ``cls`` and its annotated kind, with
    ``X | None`` read as ``X``: the one statement of a record's JSON schema."""
    kinds = get_type_hints(cls)
    for name, hint in kinds.items():
        if get_origin(hint) in (Union, types.UnionType):
            kinds[name], = set(get_args(hint)) - {type(None)}
    return types.MappingProxyType(kinds)


@validated
class CiModel(NamedTuple):
    """Fitted close-in reference-distance path loss model.

    Attributes:
        f_ghz: carrier frequency in GHz.
        ple: path loss exponent (n = 2 is free space); must be > 0.
        sigma_db: shadow fading standard deviation in dB.

    A model carries no condition label: the condition it was derived for
    is its key in a models mapping.
    """

    f_ghz: float
    ple: float
    sigma_db: float

    def _validate(self):
        if not 0 < self.f_ghz < math.inf:
            raise ValueError(f"f_ghz must be positive and finite, got {self.f_ghz}")
        if not 0 < self.ple < math.inf:
            raise ValueError(f"ple must be positive and finite, got {self.ple}")
        if not self.sigma_db >= 0:
            raise ValueError(f"sigma_db must be >= 0, got {self.sigma_db}")


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
    if not d_m >= MIN_DISTANCE_M:
        raise ValueError(f"distance must be >= {MIN_DISTANCE_M} m, got {d_m}")
    return FSPL_1GHZ_1M_DB + 20.0 * math.log10(f_ghz) + 20.0 * math.log10(d_m)


def ci_mean_path_loss_db(model: CiModel, d_m: float) -> float:
    """Mean CI path loss at distance ``d_m``: FSPL(f, 1 m) + 10 n log10(d)
    without shadow fading.  The outage kernels and the drop simulator both
    take their means from here, so equal distances give equal bits.

    Raises:
        ValueError: if the distance is below the 1 m reference distance,
            where the model is not defined.
    """
    d0 = REFERENCE_DISTANCE_M
    if not d_m >= d0:
        raise ValueError(f"CI model is defined for d >= {d0} m, got {d_m}")
    return fspl_db(model.f_ghz, d0) + 10.0 * model.ple * math.log10(d_m)
