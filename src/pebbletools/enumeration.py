"""Deterministic enumeration of pebble distributions.

Distributions of a fixed total over n vertices are generated in
colexicographic order: the last coordinate varies slowest.  The pure
generator and the vectorized array builder produce identical orders, and
all searches report the first witness under this order, which pins down
every output byte-for-byte.

The orbit representatives of the path's reversal and of the cycle's
rotations and reflections are tested per row (`is_path_canonical`,
`is_cycle_canonical`) or for a whole array of rows at once
(`path_canonical_mask`, `cycle_canonical_mask`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


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
    """All compositions as an int16 array, rows in colexicographic order."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if total < 0:
        raise ValueError("total must be non-negative")
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


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a < b in lexicographic order: the first nonzero of a - b."""
    diff = a - b
    first = (diff != 0).argmax(axis=1)
    return diff[np.arange(diff.shape[0]), first] < 0


def _lex_minimal_mask(rows: np.ndarray, images) -> np.ndarray:
    """Rows that no column permutation in `images` makes lexicographically
    smaller; each comparison runs only on the rows still in the running."""
    alive = np.arange(rows.shape[0])
    for perm in images:
        cur = rows[alive]
        alive = alive[~_lex_less(cur[:, perm], cur)]
    mask = np.zeros(rows.shape[0], dtype=bool)
    mask[alive] = True
    return mask


def path_canonical_mask(rows: np.ndarray) -> np.ndarray:
    """`is_path_canonical` of every row of a 2-d array, as a boolean mask."""
    return _lex_minimal_mask(rows, [np.arange(rows.shape[1])[::-1]])


def cycle_canonical_mask(rows: np.ndarray) -> np.ndarray:
    """`is_cycle_canonical` of every row of a 2-d array, as a boolean mask.

    With rho^s(r)_i = r_{i+s} and mu_j(r)_i = r_{j-i} (indices mod n), a
    row meets only the 2n - 4 images K = rho^2..rho^{n-2}, mu_0..mu_{n-2};
    a row at most every image in K is at most rho^1, rho^{n-1} and mu_{n-1}
    too.  (1) r_0 = a is r's least entry: an r_i < a puts rho^i (2 <= i <=
    n - 2) or mu_1 (i = 1) below r, and if only r_{n-1} < a, mu_0(r) =
    (a, r_{n-1}, ...) is below r at 1.  (2) Unless r is constant (and equal
    to all its images), let r_0..r_{p-1} = a and r_p > a.  Were r_{n-1} = a,
    mu_{p-1}(r) would be a on 0..p, below r at p; so r_{n-1} > a.  (3) So
    rho^{n-1}(r) and mu_{n-1}(r) start above r_0, and rho^1(r) has r_p > a
    at p - 1: all three are above r.
    """
    n = rows.shape[1]
    ring = np.arange(n)
    images = [np.roll(ring, -s) for s in range(2, n - 1)]
    images += [np.roll(ring[::-1], -s) for s in range(1, n)]
    return _lex_minimal_mask(rows, images)
