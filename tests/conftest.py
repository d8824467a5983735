"""Puts ``bench/`` on ``sys.path`` so that tests can ``import oracles``.

``bench/oracles.py`` is the one home of the analytic references, the
closed forms and brute-force counts that the benchmark checkers and the
tests both compare the program against.  It imports nothing from
``mmwcomp``.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
