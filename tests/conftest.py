"""Puts ``bench/`` on ``sys.path`` so that tests can ``import oracles``,
and holds the ``rejects`` fixture that every ``REJECTIONS`` table shares.

``bench/oracles.py`` holds the analytic references, the closed forms and
brute-force counts that the benchmark checkers and the tests both compare
the program against.  It imports nothing from ``mmwcomp``.  Two references
still live in the tests, ``quadrature_region_outage`` in
``test_coverage.py`` and ``exact_reception`` in ``test_diversity.py``; they
move to ``bench/oracles.py`` only with a change to the benchmark.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))


@pytest.fixture
def rejects():
    """``rejects(call, error, message)`` checks that ``call()`` raises the
    class ``error`` itself, not a subclass, with exactly the text
    ``message``."""
    def check(call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (error, message)
    return check
