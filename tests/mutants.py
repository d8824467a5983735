"""Mutant gate: small bugs planted in a copy of ``src/``, each of which a
named tier-1 test must catch.

    python tests/mutants.py

A mutant is one edit to one file of ``src/mmwcomp/``: its exact old text,
which must occur in that file exactly once, and its new text.  The gate
first runs every node on an unmutated copy of ``src/``, where each
must pass.  Then, for each mutant, it copies ``src/`` to a temporary
directory, applies the edit there, checks that a child on that
``PYTHONPATH`` imports ``mmwcomp`` from the copy, and runs
``python -m pytest -x -q -p no:cacheprovider <node>`` against it.  The
mutant is killed only when pytest exits 1, a failed test; an import or
collection error (2) or a node that runs no test (4, 5) leaves it alive.
Children run in the temporary directory without writing bytecode, so the
checkout is left as it was.  The gate exits 1 when an old text does not
match exactly once or a mutant survives.

A change to a mutated line updates its mutant here, and a test added to
catch a bug adds that bug as a mutant.  Pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI = "tests/test_cli_io.py::TestCli::"
ROW = CLI + "test_unreadable_input_exits_1"
TWELVE = ("tests/test_properties.py::"
          "test_reception_counts_match_brute_force_on_twelve_stations")
DIV = "tests/test_diversity.py::"

# (name, file under src/mmwcomp/, old text, new text, node that must fail)
MUTANTS = [
    ("miss-set-ascending-s", "diversity.py", "range(min(top, j + 1), 0, -1)",
     "range(1, min(top, j + 1) + 1)", TWELVE),
    ("miss-set-dropped-not", "diversity.py", "clear = ~mj", "clear = mj",
     TWELVE),
    ("miss-set-reads-level-s", "diversity.py", "level[s - 1].items()",
     "level[s].items()", TWELVE),
    ("fit-sigma-over-n-minus-1", "fitting.py", "/ len(d_m))",
     "/ (len(d_m) - 1))",
     "tests/test_fitting.py::test_fit_matches_closed_form_on_noisy_data"),
    ("pin-compared-with-is", "diversity.py",
     "scenario.conditions[key] == Condition.LOS",
     "scenario.conditions[key] is Condition.LOS",
     DIV + "test_simulate_sigma0_drop_is_exact[pin_los_str]"),
    ("one-cpu-without-affinity", "diversity.py", "cpus = os.cpu_count() or 1",
     "cpus = 1", DIV + "test_simulate_output_independent_of_trial_split"
                       "[5_trials_3_cpus_without_affinity]"),
    ("omni-is-best-pair", "diversity.py", "np.log10(pl.sum(axis=2))",
     "np.log10(pl.max(axis=2))",
     DIV + "test_simulate_sigma0_drop_is_exact[los_2_pairs]"),
    ("substream-keyed-by-batch", "diversity.py",
     "substream(scenario.seed, t)", "substream(scenario.seed, t - b0)",
     DIV + "test_simulate_output_independent_of_trial_split"
           "[7_trials_1_cpus_batches_of_2]"),
    ("last-failing-chunk-raises", "diversity.py", "for exc in errors:",
     "for exc in reversed(errors):",
     DIV + "test_lowest_failing_chunk_raises_after_every_chunk_ends"
           "[two_chunks]"),
    ("k-max-0-allowed", "diversity.py", "if k_max < 1:", "if k_max < 0:",
     DIV + "test_library_rejects[reception_k_max_0]"),
    ("best-pair-replaces-highest-draw", "diversity.py", "pl.argmin(axis=2)",
     "pl.argmax(axis=2)",
     DIV + "test_simulate_omni_bounded_by_best_detected_pair"),
    ("duplicate-ids-allowed", "diversity.py",
     "if len(set(ids)) != len(ids):", "if False:",
     "tests/test_records.py::test_check_runs_positionally_and_by_keyword"
     "[Scenario_duplicate_id]"),
    ("internal-error-exits-1", "cli.py",
     'file=sys.stderr)\n        return 2', 'file=sys.stderr)\n        return 1',
     CLI + "test_internal_failure_exits_2"),
    ("main-catches-only-oserror", "cli.py", "except (ValueError, OSError) as",
     "except OSError as", ROW + "[scenario-top-level]"),
    ("scenario-io-imports-diversity", "scenario_io.py",
     "from .propagation import CiModel, Condition, field_kinds\n",
     "from .propagation import CiModel, Condition, field_kinds\n"
     "from .diversity import Scenario\n",
     "tests/test_cli_io.py::TestLazyPackage::"
     "test_input_readers_load_neither_tables_nor_simulator"),
    ("distances-skip-isfinite", "cli.py",
     "        if not math.isfinite(d):\n            raise ScenarioError(f\""
     "--distances radius {tok!r} is not finite\")\n", "",
     ROW + "[coverage-distances-inf]"),
    ("fit-skip-f_ghz-check", "cli.py",
     "    if not 0.0 < args.f_ghz < math.inf:\n", "    if False:\n",
     ROW + "[fit-f_ghz-before-samples]"),
    ("enumerate-skip-k-check", "cli.py",
     "    if args.k is not None and args.k < 1:\n", "    if False:\n",
     CLI + "test_enumerate_rejects_k_below_1[False-0]"),
    ("coverage-models-with-scenario", "cli.py",
     "    if args.models is not None and args.scenario is not None:\n",
     "    if False:\n", ROW + "[coverage-models-and-scenario]"),
    ("simulate-skip-trials-check", "cli.py", "    if args.trials < 1:\n",
     "    if False:\n", ROW + "[simulate-trials-0]"),
    ("model-cards-allow-duplicates", "scenario_io.py",
     "if any(c.condition is card.condition for c in cards):",
     "if False:", ROW + "[models-duplicate-condition]"),
]


def pytest_exit_code(tmp: Path, nodes) -> int:
    """Run pytest on ``nodes`` against the copy of ``src/`` in ``tmp``; a
    child that would import ``mmwcomp`` from elsewhere stops the gate."""
    src = tmp / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = subprocess.run(
        [sys.executable, "-c", "import mmwcomp; print(mmwcomp.__file__)"],
        cwd=tmp, env=env, capture_output=True, text=True)
    if probe.stdout != f"{src / 'mmwcomp' / '__init__.py'}\n":
        sys.exit(f"a child imports mmwcomp from {probe.stdout.strip()!r}, "
                 f"not from {src}: {probe.stderr.strip()}")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(f"{ROOT}/{node}" for node in nodes)],
        cwd=tmp, env=env, stdout=subprocess.DEVNULL, timeout=600).returncode


def copy_src(tmp: Path) -> None:
    shutil.copytree(ROOT / "src", tmp / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy_src(Path(tmp))
        code = pytest_exit_code(Path(tmp), dict.fromkeys(m[4] for m in MUTANTS))
    if code != 0:
        print(f"the unmutated tests exit {code}; every node must pass")
        return 1
    failed = 0
    for name, file, old, new, node in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            copy_src(Path(tmp))
            path = Path(tmp, "src", "mmwcomp", file)
            text = path.read_text()
            matches = text.count(old)
            if matches == 1:
                path.write_text(text.replace(old, new))
                code = pytest_exit_code(Path(tmp), [node])
        if matches != 1:
            verdict = f"BROKEN: its old text occurs {matches} times in {file}"
        elif code != 1:
            verdict = f"SURVIVED: pytest exits {code}, not 1"
        else:
            verdict = "killed"
        failed += verdict != "killed"
        print(f"{name}: {verdict} ({node}, {time.perf_counter() - start:.1f} s)",
              flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
