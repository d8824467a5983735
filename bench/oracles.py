"""Independent expected values for every output the benchmark checks.

Nothing here imports ``mmwcomp``: each expected value comes from scipy or
mpmath and the published model definitions, so a checker can tell a wrong
program output from a right one without trusting the program.

Conventions shared with the program's documented formats: CI mean path loss
at 73.5 GHz is ``32.4 + 20 log10(73.5) + 10 n log10(d_m)`` dB, a 1 GHz link
budget reduces to a maximum path loss ``PL_max``, and percentages are
printed with one decimal, or as ``m.mE-x`` below 0.01 %.
"""

from __future__ import annotations

import itertools
import math
import re

import mpmath
import numpy as np
from scipy import integrate, linalg, special

FSPL_1M_CONST_DB = 32.4
F_GHZ = 73.5
# Smallest positive double (subnormal); a probability below it cannot be
# printed as anything but 0.
LOG_MIN_DOUBLE = math.log(5e-324)
# Monte Carlo checks accept |simulated - analytic| <= Z_BOUND standard
# errors plus half a display unit.
Z_BOUND = 5.0
HALF_UNIT_PCT = 0.05

_FIXED = re.compile(r"^-?\d+\.\d$")
_SCI = re.compile(r"^(\d\.\d)E(-?\d+)$")


FSPL_1M_DB = FSPL_1M_CONST_DB + 20.0 * math.log10(F_GHZ)


def ci_mean_db(ple: float, d_m):
    return FSPL_1M_DB + 10.0 * ple * np.log10(d_m)


# ---------------------------------------------------------------- coverage

def log_edge_outage(ple: float, sigma: float, radius_m: float,
                    max_pl_db: float) -> float:
    """ln P(shadowed path loss at R > PL_max) = ln(0.5 erfc(margin / (sigma sqrt 2))).

    mpmath evaluates erfc at 40 digits, so values far below the double
    range keep their logarithm.
    """
    margin = max_pl_db - float(ci_mean_db(ple, radius_m))
    with mpmath.workdps(40):
        val = mpmath.erfc(mpmath.mpf(margin) / (sigma * mpmath.sqrt(2))) / 2
        return float(mpmath.log(val))


def log_region_outage(ple: float, sigma: float, radius_m: float,
                      max_pl_db: float) -> float:
    """ln of the disk-averaged outage (2 / R^2) * integral_0^R r P_out(r) dr.

    The integrand is scaled by the edge value so that quadrature keeps full
    relative accuracy when the outage itself is far below 1e-300.
    """
    def log_pout(r):
        return special.log_ndtr((float(ci_mean_db(ple, r)) - max_pl_db) / sigma)

    log_edge = log_pout(radius_m)

    def scaled(r):
        return r * math.exp(log_pout(r) - log_edge) if r > 0 else 0.0

    # Outage falls off over a few shadowing widths inside the edge; a
    # breakpoint there keeps the adaptive rule from missing the peak.
    inner = radius_m * 10.0 ** (-3.0 * sigma / (10.0 * ple))
    val, _ = integrate.quad(scaled, 0.0, radius_m, points=[inner], limit=400,
                            epsabs=0.0, epsrel=1e-11)
    return log_edge + math.log(2.0 * val / radius_m**2)


def pct_verdict(text: str, log_frac: float) -> str | None:
    """None when ``text`` is the documented rendering of exp(log_frac) as %.

    Otherwise a short reason.  A printed value may differ from the exact one
    by half a display unit: 0.05 in fixed notation, half a mantissa step in
    scientific notation.  ``0.0`` is right only for a value that rounds to
    0.0 in fixed notation or underflows a double.
    """
    if log_frac < LOG_MIN_DOUBLE:
        return None if text == "0.0" else f"{text} for a value below a double"
    pct = 100.0 * math.exp(log_frac)
    slack = 1.0 + 1e-9
    if _FIXED.match(text):
        if pct < 0.01 / slack:
            return f"{text} in fixed notation for {pct:.6g}%"
        err, unit = abs(float(text) - pct), HALF_UNIT_PCT
    else:
        m = _SCI.match(text)
        if not m:
            return f"unparseable percentage {text!r}"
        if pct >= 0.01 * slack:
            return f"{text} in scientific notation for {pct:.6g}%"
        err = abs(float(text) - pct)
        unit = 0.05 * 10.0 ** int(m.group(2))
    if err > unit * slack:
        return f"{text} but exact value is {pct:.6g}%"
    return None


# ---------------------------------------------------------------- fitting

def ci_fit(d_m: np.ndarray, pl_db: np.ndarray):
    """Least-squares CI slope through the 1 m anchor; sigma = RMS residual."""
    x = 10.0 * np.log10(d_m)
    y = pl_db - FSPL_1M_DB
    coef, _, _, _ = linalg.lstsq(x[:, None], y)
    ple = float(coef[0])
    sigma = float(np.sqrt(np.mean((y - ple * x) ** 2)))
    return ple, sigma


def ci_fit_standard_errors(d_m: np.ndarray, sigma_true: float):
    """Standard errors of the slope and of the RMS sigma for N samples."""
    x = 10.0 * np.log10(d_m)
    return (sigma_true / math.sqrt(float(np.sum(x * x))),
            sigma_true / math.sqrt(2.0 * len(d_m)))


# ---------------------------------------------------------------- masks

def union_reception(topology: dict[str, list[str]],
                    masks: dict[tuple[str, str], int], n_bits: int, k: int):
    """(hits, combinations) over all k-subsets of every serving set.

    A subset receives when the bitwise OR of its members' masks has all
    ``n_bits`` bits set.
    """
    full = (1 << n_bits) - 1
    hits = combos = 0
    for ue in sorted(topology):
        serving = sorted(topology[ue])
        for subset in itertools.combinations(serving, k):
            union = 0
            for bs in subset:
                union |= masks[(ue, bs)]
            hits += union == full
            combos += 1
    return hits, combos


# ---------------------------------------------------------------- simulator

def direction_cover_prob(max_pl_db: float, mean_db, sigma: float, tx_angles: int):
    """P(at least one of ``tx_angles`` iid draws is <= PL_max), per RX direction."""
    p = special.ndtr((max_pl_db - np.asarray(mean_db)) / sigma)
    return -np.expm1(tx_angles * np.log1p(-np.minimum(p, 1.0 - 1e-16)))


def los_full_reception(max_pl_db, mean_db, sigma, tx_angles, rx_dirs):
    """P(all RX directions covered) for a LOS link: (1 - (1 - p)^T)^R."""
    return float(direction_cover_prob(max_pl_db, mean_db, sigma, tx_angles) ** rx_dirs)


def nlos_full_reception(max_pl_db, mean_db, sigma, best_mean_db, best_sigma,
                        tx_angles, rx_dirs):
    """P(all RX directions covered) for an NLOS link with best-beam replacement.

    All T*R arbitrary-pointing draws are iid N(mean, sigma); the smallest
    one is replaced by an independent best-beam draw.  Condition on the
    minimum M = m <= PL_max: the other draws are iid given > m, so column
    r != r* is covered with 1 - (S(L)/S(m))^T and the minimum's own column
    with 1 - (S(L)/S(m))^(T-1) (1 - q_best).  With M > PL_max nothing but
    the best-beam draw can be detected, so R > 1 directions cannot all be
    covered (needs R >= 2).  Integrated over w = P(M <= m), which makes the
    integrand smooth.
    """
    n = tx_angles * rx_dirs
    s_l = float(special.ndtr((mean_db - max_pl_db) / sigma))
    q_best = float(special.ndtr((max_pl_db - best_mean_db) / best_sigma))
    if s_l <= 0.0:
        return 1.0
    w_l = -math.expm1(n * math.log(s_l))

    def integrand(w):
        s_m = math.exp(math.log1p(-w) / n)
        r = min(s_l / s_m, 1.0)
        return ((1.0 - r**tx_angles) ** (rx_dirs - 1)
                * (1.0 - r ** (tx_angles - 1) * (1.0 - q_best)))

    val, _ = integrate.quad(integrand, 0.0, w_l, limit=400, epsabs=1e-13,
                            epsrel=1e-11)
    return val


def dense_reception(q: np.ndarray, k: int, rx_dirs: int):
    """Exact k-subset reception for all-LOS links and its Monte Carlo variance.

    ``q[u, b]`` is the per-direction cover probability of link (u, b).  A
    subset S receives with [1 - prod_S (1 - q)]^R.  Returns the mean over
    users and subsets, and per-user Var of the within-trial subset
    fraction, from the exact pairwise joint reception
    [1 - m_S - m_S' + m_{S u S'}]^R with m the per-direction miss product.
    """
    n_ue, n_bs = q.shape
    subsets = np.array(list(itertools.combinations(range(n_bs), k)))
    bits = (1 << subsets).sum(axis=1)
    log_miss = np.log1p(-np.minimum(q, 1.0 - 1e-16))
    masks = np.arange(1 << n_bs)
    member = ((masks[:, None] >> np.arange(n_bs)) & 1).astype(float)
    miss_all = np.exp(member @ log_miss.T)          # (2^B, U)
    miss = miss_all[bits]                           # (C, U)
    full = (1.0 - miss) ** rx_dirs
    var = np.empty(n_ue)
    union = bits[:, None] | bits[None, :]
    for u in range(n_ue):
        m = miss[:, u]
        both = (1.0 - m[:, None] - m[None, :] + miss_all[union, u]) ** rx_dirs
        var[u] = both.mean() - full[:, u].mean() ** 2
    return float(full.mean()), np.maximum(var, 0.0)


def mc_bound_pct(se_frac: float) -> float:
    """Accepted |simulated - analytic| in percentage points."""
    return 100.0 * Z_BOUND * se_frac + HALF_UNIT_PCT * (1.0 + 1e-9)
