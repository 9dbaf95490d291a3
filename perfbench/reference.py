"""A fixed reference workload that measures how fast the machine is right now.

On a shared machine the speed of the same code drifts by 20 % or more over
seconds and by up to 1.7x over minutes, far beyond the differences the
benchmark must resolve.  The reference is timed before and after every
round (and next to every set-up probe), and the benchmark reports times
scaled to a machine on which the reference takes REFERENCE_S:

    reported = measured * REFERENCE_S / reference time next to it

On the 2-vCPU VM the benchmark was tuned on (Python 3.11, numpy 2.4) the
reference takes about REFERENCE_S, so reported and measured seconds are
close; the summary line prints both.  Across 9-second windows there, the
raw round times of `classical` and `engine-queries` moved by up to 20 %
while the scaled ones moved by at most 6 %.

The reference mixes the two kinds of work pebbletools does: a pure-Python
exhaustive state search (tuples and sets, like the engine) and small float
matrix products and reductions (like the numpy filters).  It does not
import pebbletools, so no change to the program can change it.
"""

import time

import numpy as np

import oracle
import workloads

REFERENCE_S = 0.05

# An unreachable target on the 11-cycle: the search visits every state the
# weight cut leaves, which takes about 45 ms.
_ADJ = oracle.adjacency(11, workloads.cycle_edges(11))
_COUNTS = (0, 1, 2, 1, 2, 4, 3, 1, 2, 0, 0)
_ROWS = np.arange(60000, dtype=np.float64).reshape(-1, 6) % 7
_WEIGHTS = np.ones((6, 6))


def measure() -> float:
    """Seconds the reference workload takes now."""
    start = time.perf_counter()
    oracle.reachable(_ADJ, _COUNTS, 10)
    for _ in range(20):
        (_ROWS @ _WEIGHTS).max(axis=1)
    return time.perf_counter() - start
