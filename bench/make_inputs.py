"""Write a workload's seeded inputs to a directory and print its CLI commands.

Usage (from the repository root)::

    python3 bench/make_inputs.py --workload tables --seed 7 --out /some/dir

The commands are printed as run from ``src``; outputs go under
``<out>/out``.  The benchmark generates the same files for the same seed.
"""

from __future__ import annotations

import argparse
import shlex
from pathlib import Path

from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(args.out).resolve()
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, root / "inputs", root / "out")
    for label, cli_args in wl.commands:
        print(f"# {label}\npython -m mmwcomp.cli {shlex.join(cli_args)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
