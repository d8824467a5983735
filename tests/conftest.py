"""Puts ``bench/`` on ``sys.path`` so that tests can ``import oracles``,
and holds the ``rejects`` fixture shared by five ``REJECTIONS`` tables.

``bench/oracles.py`` holds every analytic reference, the closed forms,
quadratures, least-squares fits and brute-force counts that the benchmark
checkers and the tests both compare the program against.  It imports
nothing from ``mmwcomp``, and no test keeps a reference of its own.
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
