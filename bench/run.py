"""Closed-loop benchmark of the ``mmwcomp`` CLI with output checks.

Usage (from the repository root)::

    python3 bench/run.py --workload tables --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One client runs a workload's CLI commands one child process at a time
(``python -m mmwcomp.cli`` in ``src``, BLAS pools pinned to one thread),
round after round, until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds are done.  Every round repeats the same commands on
the same seeded inputs.  The first round's outputs are checked against the
independent values in ``oracles.py``; every later round must reproduce them
byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain rounds with traced rounds (``trace_child.py``) and reports the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs every workload both ways and
prints each metric by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

MIN_ROUNDS = 3
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "subsets_per_s": "1/s",
}
# Layer spans reported as inclusive seconds; a layer a workload never
# enters reads 0.
LAYER_SPANS = (
    "scenario_io.load_scenario", "scenario_io.read_samples_csv",
    "scenario_io.read_masks_csv", "scenario_io.load_topology",
    "results.load_model_cards", "fitting.fit_ci", "coverage.outage_table",
    "propagation.ci_sample", "rng.substream", "diversity.simulate_drop",
    "diversity.reduce", "diversity.enumerate", "diversity.best_n",
    "results.build_cdf", "results.emit_results",
)
RATES = ("fit.samples_per_s", "coverage.outage_points_per_s",
         "simulate.trials_per_s")
PER_LAYER = {
    "process.start_exit_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.install_s": "s",
    **{f"{layer}_s": "s" for layer in LAYER_SPANS},
    "diversity.simulate_drop_self_s": "s",
    "propagation.ci_sample_calls": "count",
    "propagation.normal_draws": "count",
    "rng.substream_calls": "count",
    "diversity.reduce_calls": "count",
    "diversity.drop_rss_mb": "MB",
    **{name: "1/s" for name in RATES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("MMWCOMP_OUT", None)
    return env


ENV = _child_env()


def spawn(argv: list[str], stdout_path: Path) -> tuple[float, float, int]:
    """Run one child in ``src``; returns (start, end, max RSS in KiB)."""
    err_path = stdout_path.with_suffix(".stderr")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=SRC, env=ENV, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv)} exited {proc.returncode}: "
                          f"{err_path.read_text(errors='replace')[-2000:]}")
    return start, end, usage.ru_maxrss


@dataclass
class Round:
    walls: dict[str, float]
    max_rss_kb: int
    files: dict[str, bytes]
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def _snapshot(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.suffix != ".stderr"}


def run_round(wl, out: Path, spans: Path | None) -> Round:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    walls, rss, layers = {}, 0, {}
    for label, args in wl.commands:
        if spans is None:
            argv = [sys.executable, "-m", "mmwcomp.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "trace_child.py"),
                    str(spans / f"{label}.json"), *args]
        start, end, max_rss = spawn(argv, out / f"{label}.stdout")
        walls[label] = end - start
        rss = max(rss, max_rss)
        if spans is not None:
            _add_layers(layers, json.loads((spans / f"{label}.json").read_text()),
                        start, end)
    return Round(walls, rss, _snapshot(out), layers)


def _add_layers(acc: dict[str, float], rec: dict, start: float, end: float):
    """Fold one traced command into per-layer sums for the round."""
    def add(name, value):
        acc[name] = acc.get(name, 0.0) + value

    start_exit = (rec["t_start"] - start) + rec["pre_import_s"] + (end - rec["t_end"])
    add("process.start_exit_s", start_exit)
    add("cli.import_s", rec["import_s"])
    add("trace.install_s", rec["install_s"])
    add("cli.self_s", rec["self"].get("cli.main", 0.0))
    for layer in LAYER_SPANS:
        add(f"{layer}_s", rec["total"].get(layer, 0.0))
    add("diversity.simulate_drop_self_s", rec["self"].get("diversity.simulate_drop", 0.0))
    add("propagation.ci_sample_calls", rec["calls"].get("propagation.ci_sample", 0))
    add("rng.substream_calls", rec["calls"].get("rng.substream", 0))
    add("diversity.reduce_calls", rec["calls"].get("diversity.reduce_kernel", 0))
    for name in ("propagation.normal_draws", "diversity.drop_rss_mb"):
        add(name, rec["counters"].get(name, 0.0))
    # Every second of the child: start/exit, import, wrapper install and
    # the self time of each span under cli.main.
    add("trace.self_sum_s", start_exit + rec["import_s"] + rec["install_s"]
        + sum(rec["self"].values()))


def _rate(rounds: list[Round], units: int, labels: tuple[str, ...]) -> float:
    return statistics.median(units / sum(r.walls[lb] for lb in labels) for r in rounds)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import BAD, FAULT, WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, out, spans = work / "inputs", work / "out", work / "spans"
    for d in (inputs, spans):
        d.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, inputs, out)
        # Compile bytecode and warm the file cache before anything is timed.
        spawn([sys.executable, "-c", "import mmwcomp.cli"], work / "warm.stdout")
        setup: list[float] = []

        def time_setup():
            start, end, _ = spawn([sys.executable, str(BENCH / "setup_child.py"),
                                   *wl.setup_inputs], work / "setup.stdout")
            setup.append(end - start)

        # Set-up runs are spread between rounds so that both see the same
        # drift in machine speed.
        plain: list[Round] = []
        traced: list[Round] = []
        t0 = time.perf_counter()
        while True:
            plain.append(run_round(wl, out, None))
            if trace:
                traced.append(run_round(wl, out, spans))
            else:
                time_setup()
            if time.perf_counter() - t0 >= seconds and (trace or len(plain) >= MIN_ROUNDS):
                break
        while not trace and len(setup) < SETUP_REPEATS:
            time_setup()

        reference = plain[0].files
        verdicts = wl.check(_restore(reference, out))
        problems = [f"{v.op}: {v.detail}" for v in verdicts if v.status == BAD]
        for i, r in enumerate(plain[1:] + traced, 1):
            if r.files != reference:
                differ = sorted(k for k in set(r.files) | set(reference)
                                if r.files.get(k) != reference.get(k))
                problems.append(f"round {i} output differs from round 0: {differ[:5]}")
        if trace:
            metrics, units = _layer_metrics(wl, plain, traced, problems), PER_LAYER
        else:
            metrics = {
                "wall_s": statistics.median(r.wall for r in plain),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": max(r.max_rss_kb for r in plain) / 1024.0,
                "subsets_per_s": _rate(plain, *wl.subsets),
            }
            units = END_TO_END
        n_rounds = len(plain) + len(traced)
        return {
            "correct": not problems,
            "attempted": n_rounds * len(verdicts),
            "failed": n_rounds * sum(v.status in (BAD, FAULT) for v in verdicts),
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
            "problems": problems,
            "faults": sorted({v.op.rsplit("@", 1)[0] for v in verdicts if v.status == FAULT}),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def _restore(files: dict[str, bytes], out: Path) -> Path:
    """Write the first round's files back so the checker reads them."""
    shutil.rmtree(out, ignore_errors=True)
    for rel, data in files.items():
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return out


def _layer_metrics(wl, plain: list[Round], traced: list[Round],
                   problems: list[str]) -> dict[str, float]:
    metrics = {}
    for name in PER_LAYER:
        if name in RATES:
            units, labels = wl.rates.get(name, (0, ()))
            metrics[name] = _rate(plain, units, labels) if units else 0.0
        elif name in traced[0].layers:
            metrics[name] = statistics.median(r.layers[name] for r in traced)
    metrics["trace.wall_s"] = statistics.median(r.wall for r in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(r.wall for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    tolerance = max(abs(metrics["trace.overhead_s"]), 1e-3)
    for i, r in enumerate(traced):
        gap = r.wall - r.layers["trace.self_sum_s"]
        if abs(gap) > tolerance:
            problems.append(f"traced round {i}: self times miss {gap:.6f} s of "
                            f"{r.wall:.6f} s wall")
    return metrics


def _print_human(name: str, result: dict):
    print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    if result["faults"]:
        print(f"[{name}] kept known fault, counted as failed: "
              f"{', '.join(result['faults'])} (LOS outage printed as 0.0)")
    for problem in result["problems"][:20]:
        print(f"[{name}] WRONG {problem}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"[{name}] {metric} = {entry['value']:.6g} {entry['unit']}")


def _public(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "mmwcomp" / "cli.py").is_file():
        print(f"error: no mmwcomp sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            _print_human(args.workload, result)
            print(json.dumps(_public(result)))
            return 0
        combined = {}
        for name in WORKLOADS:
            for trace in (False, True):
                result = run_workload(name, args.seed, args.seconds, trace)
                _print_human(name, result)
                combined[f"{name}/trace{int(trace)}"] = _public(result)
        print(json.dumps(combined))
        return 0
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
