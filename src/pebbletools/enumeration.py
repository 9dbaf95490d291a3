"""Deterministic enumeration of pebble distributions.

Distributions of a fixed total over n vertices are generated in
colexicographic order: the last coordinate varies slowest.  The pure
generator and the vectorized array builder produce identical orders, and
all searches report the first witness under this order, which pins down
every output byte-for-byte.

The array builder steps from one total to the next.  In colex order the
layer of total k is the row (k, 0, ..., 0) followed, for m = 1 .. n - 1,
by the rows whose highest occupied index is m; those are the first
C(k - 1 + m, m) rows of layer k - 1 with one pebble added at m.  So a
layer costs 2(n - 1) slice operations on the one before it, which a
caller that walks the layers in turn passes back in as `previous`.

The orbit representatives of the path's reversal and of the cycle's
rotations and reflections are tested one row at a time
(`is_path_canonical`, `is_cycle_canonical`); the brute-force search asks
them of the rows that pass its exact verdict.
"""

from __future__ import annotations

__all__ = [
    "compositions_array",
    "is_cycle_canonical",
    "is_path_canonical",
    "iter_compositions",
]

from math import comb
from typing import Iterator

import numpy as np

from .errors import _check_cap


def iter_compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """Yield every length-tuple of non-negative ints summing to total,
    in colexicographic order: with i the lowest occupied index, v = c_i,
    the next row sets c_i = 0, then c_0 = v - 1 and c_{i+1} += 1; the last
    row has every pebble on the last index."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if total < 0:
        raise ValueError("total must be non-negative")
    counts = [total] + [0] * (length - 1)
    low = 0 if total else length - 1
    while True:
        yield tuple(counts)
        if low == length - 1:
            return
        v, counts[low] = counts[low], 0
        counts[0] = v - 1
        counts[low + 1] += 1
        low = 0 if v > 1 else low + 1


def compositions_array(total: int, length: int,
                       previous: np.ndarray | None = None) -> np.ndarray:
    """All compositions as an int16 array, rows in colexicographic order.
    A total over the int16 range raises SizeLimitError.

    Built layer by layer from total 0 (`_next_layer`).  `previous`, if
    given, must be compositions_array(total - 1, length); the call is then
    one step.  Its shape, dtype and first row are checked, its other rows
    are not, so anything else raises ValueError or yields wrong rows."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if total < 0:
        raise ValueError("total must be non-negative")
    _check_cap(total, np.iinfo(np.int16).max, "pebbles")
    if previous is None:
        rows = np.zeros((1, length), dtype=np.int16)
        for k in range(1, total + 1):
            rows = _next_layer(rows, k)
        return rows
    if not (total >= 1 and isinstance(previous, np.ndarray)
            and previous.dtype == np.int16
            and previous.shape == (comb(total + length - 2, length - 1), length)
            and previous[0, 0] == total - 1 and not previous[0, 1:].any()):
        raise ValueError("previous must be compositions_array(total - 1, length)")
    return _next_layer(previous, total)


def _next_layer(previous: np.ndarray, total: int) -> np.ndarray:
    """Layer `total` from layer total - 1 (`previous`) by the recurrence in
    the module docstring.  The rows a block takes from `previous` are zero
    past m, so each block is one copy of whole rows and one column add."""
    length = previous.shape[1]
    out = np.empty((comb(total + length - 1, length - 1), length), dtype=np.int16)
    out[0] = 0
    out[0, 0] = total
    start = 1
    for m in range(1, length):
        size = comb(total - 1 + m, m)
        block = out[start:start + size]
        block[...] = previous[:size]
        block[:, m] += 1
        start += size
    return out


def is_path_canonical(counts: tuple[int, ...]) -> bool:
    """Representative of a reversal orbit: not lexicographically above its mirror."""
    return counts <= counts[::-1]


def is_cycle_canonical(counts: tuple[int, ...]) -> bool:
    """Representative of a rotation/reflection orbit: lexicographic minimum."""
    n = len(counts)
    doubled = counts + counts
    for s in range(n):
        if doubled[s:s + n] < counts:
            return False
    mirrored = counts[::-1]
    doubled = mirrored + mirrored
    for s in range(n):
        if doubled[s:s + n] < counts:
            return False
    return True

