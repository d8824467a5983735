"""Check the benchmark's checkers: they accept real outputs and reject wrong ones.

Usage (from the repository root)::

    python3 bench/selfcheck.py [--seeds 101,202]

For each seed and workload, one plain round of CLI commands runs and its
outputs must pass.  On the first seed, each perturbation below is applied
to a copy of those outputs and must make the checker report a wrong
output.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import sys

import run
from workloads import BAD, WORKLOADS


def _edit(files, name, old_re, new):
    """Replace ``old_re`` once in one output file; fail loudly if absent."""
    text = files[name].decode()
    edited, n = re.subn(old_re, new, text, count=1, flags=re.M)
    if n == 0:
        raise LookupError(f"{old_re!r} not found in {name}")
    return {**files, name: edited.encode()}


def _set_reception(files, k, change):
    """Replace the k-th simulated reception r by change(r) in CSV and stdout."""
    csv_name = "simulate/reception.csv"
    old = re.search(rf"^{k},([0-9.]+),", files[csv_name].decode(), re.M).group(1)
    new = f"{change(float(old)):.1f}"
    files = _edit(files, csv_name, rf"^{k},{re.escape(old)},", f"{k},{new},")
    return _edit(files, "simulate.stdout", rf"^k={k} reception={re.escape(old)}%",
                 f"k={k} reception={new}%")


def _moved(delta):
    """r + delta, or r - delta where that would leave [0, 100]."""
    return lambda r: r + delta if 0.0 <= r + delta <= 100.0 else r - delta


def _shift_fitted_ple(files, cond, delta):
    cards = json.loads(files["fit/models.json"])
    for card in cards:
        if card["label"] == cond:
            card["ple"] += delta
    return {**files, "fit/models.json": (json.dumps(cards, indent=2, sort_keys=True) + "\n").encode()}


def _nlos_row(files, radius, edge):
    """Set the default table's NLOS edge outage at ``radius`` in CSV and stdout."""
    files = _edit(files, "coverage_default/outage.csv", rf"^NLOS,{radius},[^,]+,",
                  f"NLOS,{radius},{edge},")
    return _edit(files, "coverage_default.stdout", rf"^NLOS {radius} \S+ ",
                 f"NLOS {radius} {edge} ")


def _fitted_nlos_row_plus_unit(files):
    m = re.search(r"^NLOS,([0-9.]+),([0-9.]+),", files["coverage_fitted/outage.csv"].decode(), re.M)
    radius, edge = m.group(1), m.group(2)
    new = f"{float(edge) + 0.1:.1f}"
    files = _edit(files, "coverage_fitted/outage.csv", rf"^NLOS,{re.escape(radius)},{re.escape(edge)},",
                  f"NLOS,{radius},{new},")
    return _edit(files, "coverage_fitted.stdout", rf"^NLOS {re.escape(radius)} {re.escape(edge)} ",
                 f"NLOS {radius} {new} ")


def _masks_row_plus_unit(files, k):
    m = re.search(rf"^{k},([0-9.]+),(\d+)$", files["enumerate_masks/reception.csv"].decode(), re.M)
    new = f"{float(m.group(1)) + 0.1:.1f}"
    files = _edit(files, "enumerate_masks/reception.csv", rf"^{k},{re.escape(m.group(1))},",
                  f"{k},{new},")
    return _edit(files, "enumerate_masks.stdout", rf"reception={re.escape(m.group(1))}%",
                 f"reception={new}%")


def _unsorted_cdf(files):
    name = "simulate/cdf_best1_pl_db.csv"
    lines = files[name].decode().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    x1, x2 = lines[1].split(",")[0], lines[2].split(",")[0]
    if x1 == x2:
        raise LookupError("first two CDF points are equal")
    return {**files, name: ("\n".join(lines) + "\n").encode()}


PERTURBATIONS = {
    "tables": {
        "fitted NLOS ple +0.1": lambda f: _shift_fitted_ple(f, "NLOS", 0.1),
        "fitted LOS ple -0.1": lambda f: _shift_fitted_ple(f, "LOS", -0.1),
        "default NLOS edge @100 m +1 display unit": lambda f: _nlos_row(f, 100, "12.3"),
        "default NLOS edge @87 m outside the paper's 7.9-8.0": lambda f: _nlos_row(f, 87, "8.1"),
        "fitted NLOS outage row +1 display unit": _fitted_nlos_row_plus_unit,
        "LOS row printed as a wrong nonzero value": lambda f: _edit(_edit(
            f, "coverage_default/outage.csv", r"^LOS,63,0\.0,", "LOS,63,1.0E-5,"),
            "coverage_default.stdout", r"^LOS 63 0\.0 ", "LOS 63 1.0E-5 "),
        "masks reception k=2 +1 display unit": lambda f: _masks_row_plus_unit(f, 2),
        "combination count changed": lambda f: _edit(
            f, "enumerate.stdout", r"^k=3: 42 combinations", "k=3: 43 combinations"),
    },
    "sweep_draws": {
        "k=1 reception +5 points": lambda f: _set_reception(f, 1, _moved(5.0)),
        "k=1 reception -5 points": lambda f: _set_reception(f, 1, _moved(-5.0)),
        "k=2 set to 0.0, below k=1": lambda f: _set_reception(f, 2, lambda r: 0.0),
        "Best-1 CDF out of order": _unsorted_cdf,
    },
    "reduce_dense": {
        "k=1 reception +5 points": lambda f: _set_reception(f, 1, _moved(5.0)),
        "k=4 reception -5 points": lambda f: _set_reception(f, 4, _moved(-5.0)),
        "k=6 reception +5 points": lambda f: _set_reception(f, 6, _moved(5.0)),
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101,202")
    seeds = [int(s) for s in parser.parse_args(argv).seeds.split(",")]
    failures = []
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = run.WORK_ROOT / f"selfcheck-{os.getpid()}"
    try:
        for i, seed in enumerate(seeds):
            for name, make in WORKLOADS.items():
                shutil.rmtree(work, ignore_errors=True)
                (work / "inputs").mkdir(parents=True)
                out = work / "out"
                wl = make(seed, work / "inputs", out)
                files = run.run_round(wl, out, None).files
                bad = [v for v in wl.check(run._restore(files, out)) if v.status == BAD]
                status = "accepted" if not bad else f"REJECTED {[(v.op, v.detail) for v in bad]}"
                print(f"seed {seed} {name}: real outputs {status}")
                if bad:
                    failures.append(f"seed {seed} {name} real outputs")
                if i:
                    continue
                for label, perturb in PERTURBATIONS[name].items():
                    bad = [v for v in wl.check(run._restore(perturb(files), out))
                           if v.status == BAD]
                    print(f"seed {seed} {name}: {label}: "
                          f"{'rejected by ' + bad[0].op if bad else 'ACCEPTED'}")
                    if not bad:
                        failures.append(f"{name}: {label}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_ROOT.rmdir()
    print("selfcheck:", "ok" if not failures else f"FAILED {failures}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
