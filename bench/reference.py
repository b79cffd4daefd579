"""Reference kernel that rescales the benchmark's times to a nominal host speed.

The benchmark runs on a few cores of a shared host whose speed changes by up
to about 2x in phases of seconds to minutes.  Every timed job and set-up is
bracketed by two blocks of this fixed kernel, and its time is rescaled by
``NOMINAL_S / mean(block before, block after)``: the time it would take on a
host that runs one kernel call in ``NOMINAL_S``.  A change of host speed moves
the job and the kernel alike and cancels; a change of the program moves only
the job.

The kernel is this file's own code and never imports chiralg, so no change
to the package can move it.  It does what chiralg's hot paths do: dense
Gaussian elimination over ``Fraction`` and tuple-keyed dictionary updates.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.010  # a kernel call on the nominal host
REPS = 5  # kernel calls per block; the block reports their median


def _matrix():
    rng = random.Random(12345)
    return [
        [
            Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            if rng.random() < 0.5 else Fraction(0)
            for _ in range(18)
        ]
        for _ in range(14)
    ]


_MATRIX = _matrix()


def kernel():
    """One fixed unit of work; returns (rank, dictionary size) so it cannot be skipped."""
    m = [row[:] for row in _MATRIX]
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    counts = {}
    for i in range(3000):
        key = (i % 17, i % 5, (i * 7) % 11)
        counts[key] = counts.get(key, 0) + i
    return r, len(counts)


def block() -> float:
    """Median seconds of ``REPS`` kernel calls."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled to the nominal host, given the blocks around it."""
    return seconds * NOMINAL_S / ((before + after) / 2)
