"""How fast the processor runs at this moment, from a fixed reference kernel.

On a shared host the neighbours slow this process down by up to half, in
spells that last from a fraction of a second to minutes, and the slowdown
shows in CPU time as much as in wall time.  A spell can cover a whole
benchmark call, so no number of repetitions inside one call gets past it.
The benchmark therefore times this kernel, which never changes, just
before and just after every op it times, and divides the op's time by the
kernel's slowdown: what it reports is seconds at the reference speed, the
speed at which the kernel takes ``REFERENCE_S``.  A change to ``symidx``
moves the op's time and not the kernel's, so it moves the figure in full.

The kernel has three parts, one per kind of work the workloads do: a loop
of Python bytecode, SVDs of many small matrices and one SVD of a larger
one.  The slowdown is the geometric mean of the three parts' ratios.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

# One BLAS thread, here and in every worker; numpy reads these when it loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402 - after the thread settings

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((24, 24))
_LARGE = _RNG.standard_normal((56, 56))


def _python() -> int:
    total = 0
    for i in range(2500):
        total += i * i % 7
    return total + len({str(i): i for i in range(200)})


def _small_svds():
    for _ in range(3):
        np.linalg.svd(_SMALL)


def _large_svd():
    np.linalg.svd(_LARGE)


# Seconds each part takes at its fastest on a 2-vCPU KVM Intel Xeon with one
# BLAS thread, Python 3.11 and numpy 2.4: the reference speed.
REFERENCE_S = ((_python, 1.8e-4), (_small_svds, 3.05e-4),
               (_large_svd, 4.1e-4))
# Each part runs this many times and its fastest run counts, so that an
# interrupt in one run does not count as a slowdown.
REPEATS = 2


def slowdown() -> float:
    """How many times slower than the reference speed the processor runs
    now; takes about three milliseconds."""
    log_sum = 0.0
    for part, reference in REFERENCE_S:
        best = math.inf
        for _ in range(REPEATS):
            start = perf_counter()
            part()
            best = min(best, perf_counter() - start)
        log_sum += math.log(best / reference)
    return math.exp(log_sum / len(REFERENCE_S))


# The first call into LAPACK in a process pays for loading it; pay it here.
slowdown()
