"""Seeded workload inputs, the CLI commands that consume them, and their checks.

Each workload writes its input files into a work directory, lists the
``mmwcomp`` CLI invocations of one round, and checks one round's outputs
against ``oracles``.  The program sees only the generated files.

Workloads
---------
tables
    The deterministic commands as a planner chains them: ``fit`` on a
    regenerated LOS+NLOS sample CSV, ``coverage`` with the default table and
    with the fitted ``models.json`` over a dense radius grid, ``enumerate``
    and ``enumerate --masks`` on the 36-link campaign topology.  Never
    calls the simulator.
sweep_draws
    ``simulate`` with many trials on the 4 BS x 4 UE example geometry,
    conditions pinned to a LOS/NLOS mix and the budget lowered so that k=1
    reception is well inside (0, 100) %.  Bound by the per-link draws.
reduce_dense
    ``simulate`` with few trials on 12 BS x 40 UE, every link LOS with a
    high-sigma model, k <= 6.  Bound by the k-subset reduction.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

TX_ANGLES, RX_AZIMUTHS, RX_ELEVATIONS = 15, 24, 3
RX_DIRS = RX_AZIMUTHS * RX_ELEVATIONS
BS_HEIGHT_M, UE_HEIGHT_M = 4.0, 1.4

# Published 73.5 GHz directional CI parameters (ple, sigma dB) and the
# sounder budget, restated here so that no expected value comes from the
# program's own constants.
PUBLISHED = {"LOS": (2.0, 1.9), "NLOS": (4.6, 11.4), "NLOS_BEST": (2.9, 11.0)}
SOUNDER_MAX_PL_DB = 175.0
DEFAULT_RADII = (63.0, 78.0, 87.0, 100.0, 200.0)
# Paper table: NLOS edge and region outage in % at DEFAULT_RADII.
PAPER_NLOS_EDGE = (("2.4",), ("5.5",), ("7.9", "8.0"), ("12.2",), ("52.0",))
PAPER_NLOS_REGION = (("0.7",), ("1.8",), ("2.8",), ("4.6",), ("27.1",))

# Campaign serving sets: which TX locations reached each RX location.
CAMPAIGN_TOPOLOGY = {
    "L1": ["L3", "L4", "L7", "L11", "L13"],
    "L2": ["L3", "L9", "L12"],
    "L3": ["L2"],
    "L4": ["L1", "L3", "L7", "L10", "L13"],
    "L7": ["L1", "L2", "L4", "L10"],
    "L8": ["L1", "L7", "L9"],
    "L9": ["L1", "L2", "L4", "L11"],
    "L10": ["L4", "L7", "L13"],
    "L12": ["L1", "L2", "L4", "L7", "L11"],
    "L13": ["L1", "L4", "L10"],
}

# Example geometry (configs/example_scenario.json), restated so the
# workload does not move if the example file changes.
EXAMPLE_BS = (("B1", 0.0, 0.0), ("B2", 120.0, 0.0), ("B3", 0.0, 120.0),
              ("B4", 120.0, 120.0))
EXAMPLE_UE = (("U1", 30.0, 45.0), ("U2", 60.0, 60.0), ("U3", 95.0, 20.0),
              ("U4", 110.0, 90.0))

FIT_SAMPLES_PER_CONDITION = 5000
FIT_D_RANGE_M = (10.0, 200.0)
# Fitted-model grid: every LOS edge and region outage on it lies between
# about 1e-275 and 1e-160 for any fitted LOS sigma near 1.9 dB, so each
# LOS row is a nonzero double, far from underflow, for every seed.
GRID_RADII = 150
GRID_RANGE_DM = (1000, 4000)

SWEEP_TRIALS, SWEEP_K_MAX, SWEEP_LOS_LINKS, SWEEP_MAX_PL_DB = 1000, 3, 5, 152.0
DENSE_BS, DENSE_UE, DENSE_SIDE_M = 12, 40, 200.0
DENSE_TRIALS, DENSE_K_MAX, DENSE_MAX_PL_DB, DENSE_LOS = 4, 6, 96.0, (2.0, 9.0)

OK, FAULT, BAD = "ok", "fault", "bad"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one checked operation.

    ``FAULT`` is the kept known fault (LOS outage printed as 0.0); ``BAD``
    is any other wrong output.
    """

    op: str
    status: str
    detail: str = ""


@dataclass
class Workload:
    commands: list[tuple[str, list[str]]]
    setup_inputs: list[str]
    check: Callable[[Path], list[Verdict]]
    # Work units per round and the command labels whose wall time they take.
    subsets: tuple[int, tuple[str, ...]]
    rates: dict[str, tuple[int, tuple[str, ...]]]


def _rng(seed: int, part: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(part,)))


def _read_csv(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))


def _stdout(out: Path, label: str) -> list[str]:
    return (out / f"{label}.stdout").read_text().splitlines()


def _result_lines(lines: list[str]) -> list[str]:
    return [ln for ln in lines if not ln.startswith("wrote ")]


# ------------------------------------------------------------------ tables

def _outage_verdicts(op: str, rows: list[list[str]], printed: list[str],
                     models: dict[str, tuple[float, float]],
                     radii: list[float], max_pl_db: float) -> list[Verdict]:
    expect_keys = [(c, r) for c in models for r in radii]
    if [r[0] for r in rows[:1]] != ["condition"] or len(rows) - 1 != len(expect_keys):
        return [Verdict(op, BAD, "outage.csv has the wrong shape")]
    verdicts = []
    if printed[:1] != ["condition distance_m edge_outage_pct region_outage_pct"]:
        verdicts.append(Verdict(op, BAD, "stdout header"))
    for i, ((cond, radius), row) in enumerate(zip(expect_keys, rows[1:])):
        name = f"{op}:{cond}@{radius:g}"
        if (row[0], float(row[1])) != (cond, radius):
            verdicts.append(Verdict(name, BAD, f"row key {row[:2]}"))
            continue
        if i + 1 >= len(printed) or printed[i + 1].split() != [cond, f"{radius:g}", row[2], row[3]]:
            verdicts.append(Verdict(name, BAD, "stdout row differs from outage.csv"))
            continue
        ple, sigma = models[cond]
        logs = (orc.log_edge_outage(ple, sigma, radius, max_pl_db),
                orc.log_region_outage(ple, sigma, radius, max_pl_db))
        reasons = [orc.pct_verdict(text, lf) for text, lf in zip(row[2:4], logs)]
        if not any(reasons):
            verdicts.append(Verdict(name, OK))
        elif cond == "LOS" and all(
                r is None or (t == "0.0" and lf >= orc.LOG_MIN_DOUBLE)
                for r, t, lf in zip(reasons, row[2:4], logs)):
            verdicts.append(Verdict(name, FAULT, "; ".join(r for r in reasons if r)))
        else:
            verdicts.append(Verdict(name, BAD, "; ".join(r for r in reasons if r)))
    return verdicts


def _check_tables(work: Path, radii: list[float],
                  masks: dict[tuple[str, str], int]) -> Callable[[Path], list[Verdict]]:
    def check(out: Path) -> list[Verdict]:
        v: list[Verdict] = []
        # fit: independent least squares on the same CSV rows, then the
        # statistical bound against the generating truth.
        rows = _read_csv(work / "samples.csv")[1:]
        cards = {c["label"]: c for c in json.loads((out / "fit" / "models.json").read_text())}
        printed = _result_lines(_stdout(out, "fit"))
        fitted = {}
        for cond in ("LOS", "NLOS"):
            sel = [r for r in rows if r[2] == cond]
            d = np.array([float(r[0]) for r in sel])
            pl = np.array([float(r[1]) for r in sel])
            ple, sigma = orc.ci_fit(d, pl)
            se_ple, se_sigma = orc.ci_fit_standard_errors(d, PUBLISHED[cond][1])
            card = cards.get(cond)
            line = next((ln for ln in printed if ln.startswith(f"{cond}:")), "")
            want_line = f"{cond}: ple={ple:.2f} sigma={sigma:.2f} dB (n={len(sel)})"
            problems = []
            if card is None:
                problems.append("no model card")
            else:
                fitted[cond] = (card["ple"], card["sigma_db"])
                if (card["condition"], card["f_ghz"], card.get("n_samples")) != (cond, orc.F_GHZ, len(sel)):
                    problems.append(f"card fields {card}")
                if not math.isclose(card["ple"], ple, rel_tol=1e-9):
                    problems.append(f"ple {card['ple']} vs least squares {ple}")
                if not math.isclose(card["sigma_db"], sigma, rel_tol=1e-9):
                    problems.append(f"sigma {card['sigma_db']} vs least squares {sigma}")
            if abs(ple - PUBLISHED[cond][0]) > orc.Z_BOUND * se_ple:
                problems.append(f"ple {ple} outside {orc.Z_BOUND} SE of truth")
            if abs(sigma - PUBLISHED[cond][1]) > orc.Z_BOUND * se_sigma:
                problems.append(f"sigma {sigma} outside {orc.Z_BOUND} SE of truth")
            if not _same_rounded_line(line, want_line):
                problems.append(f"stdout {line!r} vs {want_line!r}")
            v.append(Verdict(f"fit:{cond}", BAD if problems else OK, "; ".join(problems)))
        # coverage: default table against erfc/quadrature and the paper.
        default_models = {c: PUBLISHED[c] for c in ("LOS", "NLOS", "NLOS_BEST")}
        rows = _read_csv(out / "coverage_default" / "outage.csv")
        cov = _outage_verdicts("coverage_default", rows, _result_lines(_stdout(out, "coverage_default")),
                               default_models, list(DEFAULT_RADII), SOUNDER_MAX_PL_DB)
        nlos = [r for r in rows[1:] if r[0] == "NLOS"]
        for i, r in enumerate(nlos):
            if r[2] not in PAPER_NLOS_EDGE[i] or r[3] not in PAPER_NLOS_REGION[i]:
                cov.append(Verdict(f"paper:NLOS@{r[1]}", BAD, f"{r[2:4]} vs paper"))
        v += cov
        # coverage: fitted models over the seeded radius grid.
        if fitted:
            v += _outage_verdicts(
                "coverage_fitted", _read_csv(out / "coverage_fitted" / "outage.csv"),
                _result_lines(_stdout(out, "coverage_fitted")),
                fitted, radii, SOUNDER_MAX_PL_DB)
        # enumerate: combination counts from math.comb.
        counts = [sum(math.comb(len(s), k) for s in CAMPAIGN_TOPOLOGY.values())
                  for k in range(1, 6)]
        printed = _stdout(out, "enumerate")
        want = [f"k={k}: {c} combinations" for k, c in enumerate(counts, 1)]
        for k, c in enumerate(counts, 1):
            ok = k - 1 < len(printed) and printed[k - 1] == want[k - 1]
            v.append(Verdict(f"enumerate:k={k}", OK if ok else BAD, "" if ok else str(printed)))
        if printed[5:] != ["counts: " + ",".join(map(str, counts))]:
            v.append(Verdict("enumerate:counts", BAD, str(printed[5:])))
        # enumerate --masks: bitwise-OR unions.
        rows = _read_csv(out / "enumerate_masks" / "reception.csv")
        printed = _result_lines(_stdout(out, "enumerate_masks"))
        if rows[:1] != [["k", "p_reception_pct", "n_combinations"]] or len(rows) != 6:
            v.append(Verdict("enumerate_masks", BAD, "reception.csv shape"))
        for k in range(1, 6):
            hits, combos = orc.union_reception(CAMPAIGN_TOPOLOGY, masks, RX_DIRS, k)
            row = rows[k] if k < len(rows) else ["?", "?", "?"]
            problems = []
            if row[0] != str(k) or row[2] != str(combos) or combos != counts[k - 1]:
                problems.append(f"row {row}, {combos} combinations")
            else:
                reason = orc.pct_verdict(row[1], math.log(hits / combos) if hits else -math.inf)
                if reason:
                    problems.append(reason)
            line = f"k={k}: {row[2]} combinations, reception={row[1]}%"
            if k - 1 >= len(printed) or printed[k - 1] != line:
                problems.append("stdout differs from reception.csv")
            v.append(Verdict(f"enumerate_masks:k={k}", BAD if problems else OK, "; ".join(problems)))
        return v
    return check


def _same_rounded_line(got: str, want: str) -> bool:
    """Equal, or differing only where a 2-decimal value sits on a rounding edge."""
    if got == want:
        return True
    g, w = got.replace("=", " ").split(), want.replace("=", " ").split()
    if len(g) != len(w):
        return False
    for a, b in zip(g, w):
        if a != b:
            try:
                if abs(float(a) - float(b)) > 0.0100001:
                    return False
            except ValueError:
                return False
    return True


def make_tables(seed: int, work: Path, out: Path) -> Workload:
    rng = _rng(seed, 1)
    lines = ["d_m,pl_db,condition,polarization"]
    rows = []
    for cond in ("LOS", "NLOS"):
        ple, sigma = PUBLISHED[cond]
        lo, hi = (math.log10(x) for x in FIT_D_RANGE_M)
        d = 10.0 ** rng.uniform(lo, hi, size=FIT_SAMPLES_PER_CONDITION)
        pl = orc.ci_mean_db(ple, d) + sigma * rng.standard_normal(d.size)
        rows += [(float(a), float(b), cond) for a, b in zip(d, pl)]
    for i in rng.permutation(len(rows)):
        d, pl, cond = rows[i]
        lines.append(f"{d!r},{pl!r},{cond},VV")
    (work / "samples.csv").write_text("\n".join(lines) + "\n")

    grid = rng.choice(np.arange(*GRID_RANGE_DM) + 1, size=GRID_RADII, replace=False)
    radii = [float(r) / 10.0 for r in np.sort(grid)]

    (work / "topology.json").write_text(json.dumps(CAMPAIGN_TOPOLOGY, indent=2) + "\n")
    masks = {}
    mrng = _rng(seed, 2)
    for ue in sorted(CAMPAIGN_TOPOLOGY):
        for bs in CAMPAIGN_TOPOLOGY[ue]:
            bits = [1] * RX_DIRS
            if mrng.random() >= 0.4:
                # A blocked azimuth arc on a random set of elevation planes.
                start, width = mrng.integers(RX_AZIMUTHS), mrng.integers(1, 9)
                planes = [el for el in range(RX_ELEVATIONS) if mrng.random() < 0.6] or [1]
                for el in planes:
                    for a in range(start, start + width):
                        bits[el * RX_AZIMUTHS + a % RX_AZIMUTHS] = 0
            masks[(ue, bs)] = sum(b << i for i, b in enumerate(bits))
    with open(work / "masks.csv", "w", newline="") as fh:
        fh.write("rx_id,tx_id,mask\n")
        for (ue, bs), m in masks.items():
            fh.write(f"{ue},{bs},{''.join(str(m >> i & 1) for i in range(RX_DIRS))}\n")

    s, t, mk = (str(work / n) for n in ("samples.csv", "topology.json", "masks.csv"))
    commands = [
        ("fit", ["fit", "--samples", s, "--out", str(out / "fit")]),
        ("coverage_default", ["coverage", "--out", str(out / "coverage_default")]),
        ("coverage_fitted", ["coverage", "--models", str(out / "fit" / "models.json"),
                             "--distances", ",".join(f"{r:g}" for r in radii),
                             "--out", str(out / "coverage_fitted")]),
        ("enumerate", ["enumerate", "--topology", t]),
        ("enumerate_masks", ["enumerate", "--topology", t, "--masks", mk,
                             "--out", str(out / "enumerate_masks")]),
    ]
    n_subsets = sum(math.comb(len(v), k) for v in CAMPAIGN_TOPOLOGY.values()
                    for k in range(1, 6))
    return Workload(
        commands,
        setup_inputs=[f"samples={s}", f"topology={t}", f"masks={mk}"],
        check=_check_tables(work, radii, masks),
        subsets=(n_subsets, ("enumerate_masks",)),
        rates={"fit.samples_per_s": (2 * FIT_SAMPLES_PER_CONDITION, ("fit",)),
               "coverage.outage_points_per_s": (
                   3 * len(DEFAULT_RADII) + 2 * GRID_RADII,
                   ("coverage_default", "coverage_fitted"))})


# --------------------------------------------------------------- simulate

def _scenario(bss, ues, models, max_pl_db, conditions, seed) -> dict:
    return {
        "schema_version": 1,
        "base_stations": [{"id": i, "x_m": x, "y_m": y, "height_m": BS_HEIGHT_M}
                          for i, x, y in bss],
        "ues": [{"id": i, "x_m": x, "y_m": y, "height_m": UE_HEIGHT_M}
                for i, x, y in ues],
        "models": {c: {"f_ghz": orc.F_GHZ, "ple": p, "sigma_db": s}
                   for c, (p, s) in models.items()},
        "budget": {"max_pl_db": max_pl_db},
        "sweep": {"tx_angles": TX_ANGLES, "rx_azimuths": RX_AZIMUTHS,
                  "rx_elevations": RX_ELEVATIONS},
        "conditions": {f"{u}/{b}": c for (u, b), c in conditions.items()},
        "seed": seed,
    }


def _distance(ue, bs) -> float:
    return math.sqrt((ue[1] - bs[1]) ** 2 + (ue[2] - bs[2]) ** 2
                     + (BS_HEIGHT_M - UE_HEIGHT_M) ** 2)


def _check_simulate(n_ue: int, n_bs: int, trials: int, k_max: int, seed: int,
                    max_pl_db: float,
                    expected: dict[int, tuple[float, float]]) -> Callable[[Path], list[Verdict]]:
    """``expected[k]`` = (analytic reception fraction, standard error)."""
    def check(out: Path) -> list[Verdict]:
        v: list[Verdict] = []
        rows = _read_csv(out / "simulate" / "reception.csv")
        printed = _result_lines(_stdout(out, "simulate"))
        meta = json.loads((out / "simulate" / "metadata.json").read_text())
        if (meta.get("command"), meta.get("seed"), meta.get("trials")) != ("simulate", seed, trials):
            v.append(Verdict("simulate:metadata", BAD, str(meta)))
        if rows[:1] != [["k", "p_reception_pct", "n_combinations"]] or len(rows) != k_max + 1:
            return v + [Verdict("simulate:reception", BAD, "reception.csv shape")]
        previous = -1.0
        for k in range(1, k_max + 1):
            row = rows[k]
            problems = []
            combos = n_ue * math.comb(n_bs, k)
            if row[0] != str(k) or row[2] != str(combos):
                problems.append(f"row {row}, want {combos} combinations")
            pct = float(row[1])
            if not 0.0 <= pct <= 100.0 or pct < previous:
                problems.append(f"{pct}% not in [0, 100] or below k={k - 1}")
            previous = pct
            if k in expected:
                p, se = expected[k]
                bound = orc.mc_bound_pct(se)
                if abs(pct - 100.0 * p) > bound:
                    problems.append(f"{pct}% vs analytic {100.0 * p:.3f}% (bound {bound:.2f})")
            line = f"k={k} reception={row[1]}% ({row[2]} combinations per trial)"
            if k - 1 >= len(printed) or printed[k - 1] != line:
                problems.append("stdout differs from reception.csv")
            v.append(Verdict(f"simulate:k={k}", BAD if problems else OK, "; ".join(problems)))
        for n in range(1, k_max + 1):
            v.append(_check_cdf(out / "simulate" / f"cdf_best{n}_pl_db.csv",
                                trials * n_ue, max_pl_db))
        return v
    return check


def _check_cdf(path: Path, max_points: int, max_pl_db: float) -> Verdict:
    """Well-formed empirical CDF of finite omni path losses.

    Omni path loss is a power sum over detected pairs, so it never exceeds
    the largest detectable directional loss.
    """
    op = f"cdf:{path.name}"
    if not path.is_file():
        return Verdict(op, BAD, "missing")
    rows = _read_csv(path)
    if rows[:1] != [["x", "p"]] or not 2 <= len(rows) <= max_points + 1:
        return Verdict(op, BAD, f"header or {len(rows) - 1} points")
    x = np.array([float(r[0]) for r in rows[1:]])
    p = np.array([float(r[1]) for r in rows[1:]])
    n = len(x)
    if not np.all(np.isfinite(x)) or np.any(np.diff(x) < 0):
        return Verdict(op, BAD, "x not finite and non-decreasing")
    if np.max(np.abs(p - np.arange(1, n + 1) / n)) > 1e-9 or p[-1] != 1.0:
        return Verdict(op, BAD, "p is not (i + 1) / n ending at 1")
    if x[-1] > max_pl_db + 1e-9:
        return Verdict(op, BAD, f"omni path loss {x[-1]} above the budget")
    return Verdict(op, OK)


def make_sweep_draws(seed: int, work: Path, out: Path) -> Workload:
    rng = _rng(seed, 3)
    links = [(u, b) for u in EXAMPLE_UE for b in EXAMPLE_BS]
    los = set(rng.choice(len(links), size=SWEEP_LOS_LINKS, replace=False).tolist())
    conditions = {(u[0], b[0]): ("LOS" if i in los else "NLOS")
                  for i, (u, b) in enumerate(links)}
    scenario = _scenario(EXAMPLE_BS, EXAMPLE_UE, PUBLISHED, SWEEP_MAX_PL_DB,
                         conditions, seed)
    path = work / "scenario.json"
    path.write_text(json.dumps(scenario, indent=2) + "\n")

    full = []
    for u, b in links:
        d = _distance(u, b)
        if conditions[(u[0], b[0])] == "LOS":
            ple, sigma = PUBLISHED["LOS"]
            full.append(orc.los_full_reception(SWEEP_MAX_PL_DB, orc.ci_mean_db(ple, d),
                                               sigma, TX_ANGLES, RX_DIRS))
        else:
            (ple, sigma), (bple, bsigma) = PUBLISHED["NLOS"], PUBLISHED["NLOS_BEST"]
            full.append(orc.nlos_full_reception(
                SWEEP_MAX_PL_DB, float(orc.ci_mean_db(ple, d)), sigma,
                float(orc.ci_mean_db(bple, d)), bsigma, TX_ANGLES, RX_DIRS))
    full = np.array(full)
    se = math.sqrt(float(np.sum(full * (1.0 - full)))
                   / (len(links) ** 2 * SWEEP_TRIALS))
    expected = {1: (float(full.mean()), se)}

    n_ue, n_bs = len(EXAMPLE_UE), len(EXAMPLE_BS)
    n_subsets = SWEEP_TRIALS * n_ue * sum(math.comb(n_bs, k) for k in range(1, SWEEP_K_MAX + 1))
    return Workload(
        [("simulate", ["simulate", "--scenario", str(path), "--trials", str(SWEEP_TRIALS),
                       "--k-max", str(SWEEP_K_MAX), "--out", str(out / "simulate")])],
        setup_inputs=[f"scenario={path}"],
        check=_check_simulate(n_ue, n_bs, SWEEP_TRIALS, SWEEP_K_MAX, seed,
                              SWEEP_MAX_PL_DB, expected),
        subsets=(n_subsets, ("simulate",)),
        rates={"simulate.trials_per_s": (SWEEP_TRIALS, ("simulate",))})


def make_reduce_dense(seed: int, work: Path, out: Path) -> Workload:
    rng = _rng(seed, 4)
    xy_bs = rng.uniform(0.0, DENSE_SIDE_M, size=(DENSE_BS, 2))
    xy_ue = rng.uniform(0.0, DENSE_SIDE_M, size=(DENSE_UE, 2))
    bss = [(f"B{i:02d}", float(x), float(y)) for i, (x, y) in enumerate(xy_bs)]
    ues = [(f"U{i:02d}", float(x), float(y)) for i, (x, y) in enumerate(xy_ue)]
    conditions = {(u[0], b[0]): "LOS" for u in ues for b in bss}
    models = {"LOS": DENSE_LOS, "NLOS": PUBLISHED["NLOS"]}
    scenario = _scenario(bss, ues, models, DENSE_MAX_PL_DB, conditions, seed)
    path = work / "scenario.json"
    path.write_text(json.dumps(scenario, indent=2) + "\n")

    d = np.array([[_distance(u, b) for b in bss] for u in ues])
    q = orc.direction_cover_prob(DENSE_MAX_PL_DB, orc.ci_mean_db(DENSE_LOS[0], d),
                                 DENSE_LOS[1], TX_ANGLES)
    expected = {}
    for k in range(1, DENSE_K_MAX + 1):
        p, var = orc.dense_reception(q, k, RX_DIRS)
        expected[k] = (p, math.sqrt(float(var.sum()) / DENSE_TRIALS) / DENSE_UE)

    n_subsets = DENSE_TRIALS * DENSE_UE * sum(math.comb(DENSE_BS, k)
                                              for k in range(1, DENSE_K_MAX + 1))
    return Workload(
        [("simulate", ["simulate", "--scenario", str(path), "--trials", str(DENSE_TRIALS),
                       "--k-max", str(DENSE_K_MAX), "--out", str(out / "simulate")])],
        setup_inputs=[f"scenario={path}"],
        check=_check_simulate(DENSE_UE, DENSE_BS, DENSE_TRIALS, DENSE_K_MAX, seed,
                              DENSE_MAX_PL_DB, expected),
        subsets=(n_subsets, ("simulate",)),
        rates={"simulate.trials_per_s": (DENSE_TRIALS, ("simulate",))})


WORKLOADS = {
    "tables": make_tables,
    "sweep_draws": make_sweep_draws,
    "reduce_dense": make_reduce_dense,
}
