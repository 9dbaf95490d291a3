"""Deterministic enumeration of pebble distributions.

Distributions of a fixed total over n vertices are generated in
colexicographic order: the last coordinate varies slowest.  The pure
generator and the vectorized array builder produce identical orders, and
all searches report the first witness under this order, which pins down
every output byte-for-byte.

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


def compositions_array(total: int, length: int) -> np.ndarray:
    """All compositions as an int16 array, rows in colexicographic order.
    A total over the int16 range raises SizeLimitError."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if total < 0:
        raise ValueError("total must be non-negative")
    _check_cap(total, np.iinfo(np.int16).max, "pebbles")
    level = [np.array([[j]], dtype=np.int16) for j in range(total + 1)]
    for _ in range(2, length):
        level = [_append_last(level, j) for j in range(total + 1)]
    return level[total] if length == 1 else _append_last(level, total)


def _append_last(level: list[np.ndarray], total: int) -> np.ndarray:
    """Rows of length m + 1 summing to total, from level[j] (length m, sum j)."""
    heads = [level[total - last] for last in range(total + 1)]
    sizes = [h.shape[0] for h in heads]
    out = np.empty((sum(sizes), heads[0].shape[1] + 1), dtype=np.int16)
    np.concatenate(heads, out=out[:, :-1])
    out[:, -1] = np.repeat(np.arange(total + 1, dtype=np.int16), sizes)
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

