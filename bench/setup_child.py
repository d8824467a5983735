"""Import ``mmwcomp`` and parse a workload's inputs through the package loaders.

Usage (working directory ``src``)::

    python <path>/setup_child.py KIND=PATH...

KIND is ``samples``, ``topology``, ``masks`` or ``scenario``.  The parent
times the whole process from spawn to exit as the benchmark's set-up time.
"""

import os
import sys

sys.path.insert(0, os.getcwd())

import mmwcomp  # noqa: E402

LOADERS = {
    "samples": mmwcomp.read_samples_csv,
    "topology": mmwcomp.load_topology,
    "masks": mmwcomp.read_masks_csv,
    "scenario": mmwcomp.load_scenario,
}

for arg in sys.argv[1:]:
    kind, path = arg.split("=", 1)
    LOADERS[kind](path)
