"""Reproducible random-number streams.

Every stochastic routine in the package draws from a generator obtained via
:func:`substream`, so the whole output of a run is a pure function of the
configured seed.  Sub-streams keyed by (seed, stream-id...) are statistically
independent and identical regardless of execution order, which keeps results
stable when trials are fanned out concurrently.  numpy is imported on the
first call, so importing this module does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for stream ``key`` under ``seed``.

    ``substream(seed)`` is the root stream; ``substream(seed, t)`` is the
    stream for trial ``t``.  Streams with different keys never overlap.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    import numpy as np
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)
