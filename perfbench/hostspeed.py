"""Host-speed calibration loops.

On a shared host the same code runs up to twice as fast at one moment as
at another, in states that last from seconds to minutes, and a fresh
interpreter slows down with it.  A wall-clock rate then moves by more
between runs than any change worth catching.  The benchmark therefore
times one of these fixed loops just before every operation, and divides
each operation's time by the mean of the loop times just before and
just after it.  That gives a time in calibration units (`cal`); a slow
host state stretches the loop about as much as the operation, so it
largely cancels.

The loops belong to the benchmark, never call into fso_adapt, and hold
fixed work, so a change to the program moves the operation times and
not the unit.  Each mimics the character of one kind of workload:

* ``interpreter``: scalar Python arithmetic and ufunc calls on 61-point
  arrays, like the analytic SNR sweeps.
* ``memory``: random draws and element-wise arithmetic on 4 MB arrays,
  like a simulator chunk.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter

import numpy as np

_GRID_DB = np.linspace(0.0, 30.0, 61)
_MEMORY_SIZE = 1 << 19  # float64 elements per buffer: 4 MB


def interpreter() -> float:
    acc = 0.0
    for i in range(160):
        scale = 1.0 + 1e-3 * i
        snr = 10.0 ** (_GRID_DB / 10.0) * scale
        acc += float(np.sum(np.exp(-np.sqrt(snr))))
        for v in (0.5, 1.0, 2.0, 4.0):
            acc += math.erfc(v * scale) / (1.0 + v)
    return acc


@functools.cache
def _memory_buffers():
    # Allocated on first use, so that only Monte Carlo runs hold them.
    return (
        np.random.default_rng(0),
        np.empty(_MEMORY_SIZE),
        np.empty(_MEMORY_SIZE),
        np.empty(_MEMORY_SIZE, dtype=bool),
    )


def memory() -> int:
    rng, a, b, below = _memory_buffers()
    rng.standard_normal(out=a)
    rng.random(out=b)
    np.multiply(a, math.sqrt(0.5), out=a)
    np.add(a, b, out=a)
    np.less(a, 0.5, out=below)
    return int(np.count_nonzero(below))


def timed(loop) -> float:
    """Seconds one run of `loop` takes."""
    start = perf_counter()
    loop()
    return perf_counter() - start
