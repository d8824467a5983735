"""Bundled parameter sets for a 73.5 GHz urban-microcell open-square campaign.

Measurement-derived CI path loss parameters (vertical-vertical polarization,
4.0 m base stations, 1.4 m users), the channel-sounder link budget those
measurements were taken with, and the campaign's serving-set topology.
These are the defaults used by the CLI and scenario parser; all of them can
be overridden per run except the sounder's transmit power and antenna
gains, which give only its receiver threshold and so have no scenario key.
"""

from __future__ import annotations

from .coverage import LinkBudget
from .propagation import CiModel, Condition

CARRIER_F_GHZ = 73.5

BS_HEIGHT_M = 4.0
UE_HEIGHT_M = 1.4

# Share of LOS links observed in the campaign (11 of 36); default Bernoulli
# probability when a scenario does not pin per-link conditions.
DEFAULT_P_LOS = 11.0 / 36.0

# Documented default seed for all stochastic runs.
DEFAULT_SEED = 73

# Directional (single beam pair) CI parameters.  NLOS_BEST is the statistics
# of the optimally aligned beam pair on an obstructed link.
DIRECTIONAL_CI_73GHZ: dict[Condition, CiModel] = {
    Condition.LOS: CiModel(CARRIER_F_GHZ, 2.0, 1.9),
    Condition.NLOS: CiModel(CARRIER_F_GHZ, 4.6, 11.4),
    Condition.NLOS_BEST: CiModel(CARRIER_F_GHZ, 2.9, 11.0),
}

# Omnidirectional CI parameters synthesized from the directional scans.
OMNI_CI_73GHZ: dict[Condition, CiModel] = {
    Condition.LOS: CiModel(CARRIER_F_GHZ, 1.9, 1.7),
    Condition.NLOS: CiModel(CARRIER_F_GHZ, 2.8, 8.7),
}

# Channel sounder: 14.9 dBm into a 27 dBi TX horn, 20 dBi RX horn.  These
# give only its receiver threshold (-113.1 dBm); detection reads the budget,
# the 175 dB maximum measurable path loss at 1 GHz RF bandwidth and a 5 dB
# detection SNR.
SOUNDER_PT_DBM = 14.9
SOUNDER_GT_DBI = 27.0
SOUNDER_GR_DBI = 20.0
SOUNDER_LINK_BUDGET = LinkBudget(max_pl_db=175.0)

# Serving-set topology of the campaign: which TX locations reached each RX
# location.  36 links over 9 multi-served RX locations plus one singly
# served one.
CAMPAIGN_SERVING_SETS: dict[str, tuple[str, ...]] = {
    "L1": ("L3", "L4", "L7", "L11", "L13"),
    "L2": ("L3", "L9", "L12"),
    "L3": ("L2",),
    "L4": ("L1", "L3", "L7", "L10", "L13"),
    "L7": ("L1", "L2", "L4", "L10"),
    "L8": ("L1", "L7", "L9"),
    "L9": ("L1", "L2", "L4", "L11"),
    "L10": ("L4", "L7", "L13"),
    "L12": ("L1", "L2", "L4", "L7", "L11"),
    "L13": ("L1", "L4", "L10"),
}

# Default coverage-table distances: the campaign's median 1st/2nd/3rd
# nearest-neighbor distances plus two candidate small-cell radii.
DEFAULT_COVERAGE_DISTANCES_M = (63.0, 78.0, 87.0, 100.0, 200.0)
