"""Pebbling invariants: closed-form values, constructions, and brute force.

Two independent routes to the same numbers live here.  The closed form
(`formula_fopt`) and the explicit distribution builder
(`construct_optimal_distribution`), each shared by paths and cycles, rest
on the decomposition n = 3t + r; the brute-force searches
(`optimal_pebbling_number`, `pebbling_number`) rest on exact verdicts for
every distribution.  The test suite holds the two routes against each
other.

The brute-force searches enumerate distributions in colexicographic order,
one size-k layer at a time, each layer built from the one before it
(`compositions_array` with `previous`).  Each search has one screen, run
on a whole chunk of rows at a time, and one verdict, asked of each row
the screen keeps:

* the search for a solvable row (`optimal_pebbling_number`) screens with
  the neighbour screen, the lemma in `engine._fold` read as a bound.  An
  empty vertex t none of whose neighbours u has a potential
  sum(c_v * 2^-d_{G-t}(v, u)) of at least 2 in G - t is never reached, so
  the distribution is unsolvable (one matmul per chunk over every
  neighbour slot, weighing each v by its distance to t through u: in
  float32 where every sum is an exact float32 integer, else in float64,
  that distance capped so that every sum is an exact float64 integer).
  The engine's `is_solvable` is the verdict on every graph.  On paths
  and cycles the screen keeps only solvable rows below the depth cap, so
  the engine sees the returned row alone; on the canonically indexed
  path and cycle the family's orbit test (`is_path_canonical`,
  `is_cycle_canonical`) first drops every row that is not its orbit's
  representative.
* the search for an unsolvable row (`pebbling_number`) keeps the rows
  the accept filter leaves.  That filter accepts a row in which every
  vertex has a single pile of 2^dist pebbles (one OR per vertex of a
  packed bit table built from the distances), else whose leaf-to-root
  transport fold, `engine._fold` over the BFS tree of G - t at each
  neighbour of t, is at least 1 at every target (one column operation
  per edge, a whole chunk at a time); an accepted row is solvable.  On
  trees and cycles, where G - t is a forest for every t, the filter is
  exact (the test suite holds it to the engine's search), so it is the
  verdict and no row reaches the engine; on every other graph
  `is_solvable` decides each row it leaves.

A screen only picks rows: it drops only rows whose verdict is the other
one, so the first row the verdict keeps is the same row with or without
it.
"""

from __future__ import annotations

__all__ = [
    "GrahamCheck",
    "MAX_GRAHAM_PRODUCT_VERTICES",
    "MAX_PEBBLING_VALUE",
    "MAX_PEBBLING_VERTICES",
    "NumberReport",
    "construct_optimal_distribution",
    "formula_fopt",
    "graham_optimal_check",
    "optimal_pebbling_number",
    "pebbling_number",
    "product_distribution",
]

import sys
from dataclasses import dataclass
from math import comb

import numpy as np

from .engine import (
    MAX_ENGINE_PEBBLES,
    MAX_ENGINE_VERTICES,
    Distribution,
    _fold,
    _fold_schedule,
    is_solvable,
)
from .enumeration import compositions_array, is_cycle_canonical, is_path_canonical
from .errors import BudgetError, _check_cap
from .graphs import (Graph, _check_family_order, canonical_family,
                     cartesian_product)

MAX_PEBBLING_VERTICES = 8
MAX_PEBBLING_VALUE = 32
MAX_GRAHAM_PRODUCT_VERTICES = 16

_CHUNK = 1 << 16


@dataclass(frozen=True)
class NumberReport:
    """Result of a brute-force invariant computation.

    kind is "optimal_pebbling" or "pebbling".  For optimal pebbling the
    witness is a smallest solvable distribution; for the pebbling number it
    is an unsolvable distribution one pebble below the value.
    """

    kind: str
    value: int
    witness: Distribution | None
    distributions_examined: int


@dataclass(frozen=True)
class GrahamCheck:
    """Comparison of f_opt(G x H) against f_opt(G) * f_opt(H)."""

    report_g: NumberReport
    report_h: NumberReport
    report_product: NumberReport

    @property
    def fopt_g(self) -> int:
        return self.report_g.value

    @property
    def fopt_h(self) -> int:
        return self.report_h.value

    @property
    def fopt_product(self) -> int:
        return self.report_product.value

    @property
    def bound(self) -> int:
        return self.fopt_g * self.fopt_h

    @property
    def holds(self) -> bool:
        return self.fopt_product <= self.bound

    @property
    def tight(self) -> bool:
        return self.fopt_product == self.bound

    @property
    def distributions_examined(self) -> int:
        return sum(r.distributions_examined
                   for r in (self.report_g, self.report_h, self.report_product))


# ---------------------------------------------------------------------------
# closed forms


def formula_fopt(family: str, n: int) -> int:
    """Optimal pebbling number of the n-vertex path or cycle, `family`
    "path" or "cycle": 2t + r for n = 3t + r, the same number for both."""
    _check_family_order(family, n)
    return 2 * (n // 3) + n % 3


def construct_optimal_distribution(family: str, n: int) -> Distribution:
    """Solvable distribution of size 2t + r on the n-vertex path or cycle.

    Two pebbles on the middle vertex of each block of three, one pebble on
    every leftover vertex.  Every vertex ends up occupied or adjacent to a
    two-pebble pile, so the distribution is solvable by a single move; the
    cycle contains the path, so it is solvable there too.  An n over
    sys.maxsize, which no sequence can index, raises SizeLimitError.
    """
    _check_cap(n, sys.maxsize)
    _check_family_order(family, n)
    t, r = divmod(n, 3)
    return Distribution((0, 2, 0) * t + (1,) * r)


# ---------------------------------------------------------------------------
# brute-force machinery


def _neighbour_screen(g: Graph, k: int):
    """Reject filter for size-k rows of g, from the lemma in `engine._fold`:
    a function from a chunk of rows to the mask of rows in which every
    target t holds a pebble or has a neighbour u whose potential in G - t,
    sum(c_v * 2^-d(v, u)) over u's component, d = d_{G-t}, reaches 2.  An
    empty t is reached only by a move from a neighbour that has collected
    2 pebbles in G - t; moves inside G - t never raise u's potential there,
    and 2 pebbles on u have potential 2, so a row outside the mask is
    unsolvable.

    On a chain v_0 = u, v_1, ... the fold is m(u) = c_0 + floor(m(v_1) / 2)
    = floor(sum(c_i * 2^-i)), since floor(floor(x) / 2) = floor(x / 2).  On
    paths and cycles every u's component of G - t is such a chain with u at
    its end, so there the mask is the fold's verdict itself.

    Slot j counts through u, the j-th neighbour of t: with d the distance
    from v to t through u (`_neighbour_distances`), 0 on t and
    1 + d_{G-t}(v, u) on u's component, t is reached when
    sum(c_v * 2^-d) >= 1, that is c_t >= 1 or u's potential reaches 2.
    Row t weighs 2^(C - min(d, C)) there against the one threshold 2^C.
    The float type holds every integer below 2^bits exactly: float32
    (bits = 24) when depth + k.bit_length() <= 24, else float64
    (bits = 53).  C = min(depth, bits - k.bit_length()) caps the largest
    d, so a size-k row weighs less than 2^bits and every product and sum
    is an exact integer, in any summation order.  A capped weight only
    grows, so the mask keeps every row the uncapped test keeps; below the
    cap (every search at the default caps, all in float32) it is the
    uncapped test itself.  The slots are stacked into one (slots * n) x n
    matrix, so a chunk costs one matmul, ORed over slots into one mask
    of targets by rows.
    """
    dist = g.derived(_neighbour_distances)
    depth = int(dist.max())
    dtype = np.float32 if depth + k.bit_length() <= 24 else np.float64
    cap = min(depth, np.finfo(dtype).nmant + 1 - k.bit_length())
    # Row (j, t) weighs 2^(cap - min(d, cap)) on v at d >= 0, else 0.
    weights = np.where(dist < 0, 0, np.ldexp(1.0, cap - np.minimum(dist, cap)))
    weights = weights.reshape(-1, g.n).astype(dtype)
    threshold = dtype(1 << cap)

    def reaches_all(chunk: np.ndarray) -> np.ndarray:
        reached = weights @ chunk.T.astype(dtype) >= threshold
        return reached.reshape(len(dist), g.n, -1).any(axis=0).all(axis=0)

    return reaches_all


def _neighbour_distances(g: Graph) -> np.ndarray:
    """dist[j, t, v], the distance from v to t through u, u the j-th
    neighbour of t: 0 on t, 1 + d_{G-t}(v, u) on u's component, read off
    `engine._fold_schedule`'s BFS trees, and -1 elsewhere.  A target with
    fewer neighbours than the most repeats its last one, so the screen's
    stacked matrix has slots * n rows whatever the degrees; a vertex with
    none (n = 1) has one row, 0 on itself."""
    per_target = []
    for t, roots in enumerate(g.derived(_fold_schedule)):
        base = [0 if v == t else -1 for v in range(g.n)]
        rows = []
        for u, pairs in roots:
            row = base.copy()
            row[u] = 1
            for c, p in reversed(pairs):
                row[c] = row[p] + 1
            rows.append(row)
        per_target.append(rows or [base])
    slots = max(map(len, per_target))
    return np.array([[rows[min(j, len(rows) - 1)] for rows in per_target]
                     for j in range(slots)])


def _accept_filter(g: Graph, k: int):
    """Accept filter for size-k rows of g, connected: a function from a
    chunk of rows to the mask of rows that are covered, else accepted by
    the fold (`_fold_verdict`).  A row is covered when every target t has
    a single pile of at least 2^dist(v, t) pebbles.  A row inside the mask
    is solvable; on trees and cycles, where the fold is exact, the mask is
    the verdict itself.

    Bit t of cover[v, c], packed little-endian into bytes, says that c
    pebbles on v reach t on their own, c >= 2^dist(v, t); a row is
    covered when the OR of cover[v, c_v] over v has every target's bit:
    one gather and OR per vertex, in the same bytes at every order n.  A
    covered row has a fold of at least 1 at every target, so the mask is
    the fold's accept, and the fold reads only the rows the cover leaves.
    """
    dist = np.array([g.distances_from(v) for v in range(g.n)])
    cover = np.packbits(np.exp2(dist)[:, None] <= np.arange(k + 1)[:, None],
                        axis=2, bitorder="little")
    full = np.packbits(np.ones(g.n, dtype=bool), bitorder="little")
    fold = _fold_verdict(g)

    def accepts(chunk: np.ndarray) -> np.ndarray:
        hit = cover[0].take(chunk[:, 0], axis=0)
        for v in range(1, g.n):
            hit |= cover[v].take(chunk[:, v], axis=0)
        accepted = (hit == full).all(axis=1)
        left = np.flatnonzero(~accepted)
        accepted[left] = fold(chunk[left])
        return accepted

    return accepts


def _fold_verdict(g: Graph):
    """The fold's solvable mask of whole chunks of rows of a connected
    graph: a function from a chunk to the mask of rows in which
    `engine._fold` (lemma and proof there) is at least 1 at every target;
    rows leave after the first target they miss.  The accept filter asks
    it of the rows the cover leaves.

    A row inside the mask is solvable on every connected graph: m(u), the
    fold of u's BFS tree in G - t, is a number of pebbles that moves inside
    that tree put on u, so a term of at least 1 moves a pebble to t.  On
    trees and cycles, where G - t is a forest for every t, the mask is
    exact: a row outside it is unsolvable.
    """
    schedule = g.derived(_fold_schedule)

    def solvable_rows(chunk: np.ndarray) -> np.ndarray:
        alive, cols = np.arange(chunk.shape[0]), chunk.T
        for t in range(g.n):
            if not alive.size:
                break
            reached = _fold(cols, t, schedule) > 0
            alive, cols = alive[reached], cols[:, reached]
        return np.bincount(alive, minlength=chunk.shape[0]) > 0

    return solvable_rows


def _check_connected(g: Graph) -> None:
    """The one refusal of a disconnected graph: ValueError.  The searches
    take connected graphs only (their screens, verdicts and bounds assume
    one), and the pebbling number of a disconnected graph is infinite."""
    if not g.is_connected():
        raise ValueError("graph is disconnected; searches need a connected graph")


class _LayerScanner:
    """Scans size-k layers of a graph's distributions in colex order for
    the first row whose verdict is `solvable`.

    A graph over `max_vertices` or disconnected is refused up front.  Rows
    are charged against the budget a whole chunk at a time, before the
    chunk is built or screened, so `examined` counts every row the search
    touched.
    Every stop of either search is one `stop`: a BudgetError with the rows
    examined, the lower bound proven so far and an upper bound that g's
    order and diameter alone prove.
    Each search has one chunk screen and one per-row verdict.  The screen
    only picks rows: the neighbour screen for a solvable row, the rows the
    accept filter leaves for an unsolvable one.  The verdict then decides
    each picked row in turn: the engine's `is_solvable`, except in the
    search for an unsolvable row on trees and cycles (`exact`), where the
    accept filter is the verdict and no row reaches the engine.  On the
    canonically indexed path and cycle the search for a solvable row first
    asks `canonical`, the family's per-row orbit test, of each picked row;
    elsewhere `canonical` is None.
    """

    def __init__(self, g: Graph, max_vertices: int, budget: int | None,
                 solvable: bool):
        _check_cap(g.n, max_vertices)
        _check_connected(g)
        self.g, self.budget, self.solvable = g, budget, solvable
        # read as module globals here, so that a patched predicate is seen
        self.canonical = ({"path": is_path_canonical, "cycle": is_cycle_canonical}
                          .get(canonical_family(g)) if solvable else None)
        # Trees and cycles, where the accept filter is pi's verdict.
        self.exact = not solvable and (g.edge_count == g.n - 1 or all(
            g.degree(v) == 2 for v in range(g.n)))
        self.examined = 0
        # The last layer built; `first` builds the next one from it.
        self.layer = None
        # f_opt <= ceil(2n/3) (Bunde et al.), the path's number.  pi <=
        # (n - 1)(2^D - 1) + 1, D the largest depth: that many pebbles with
        # an empty target put 2^D on some other vertex, which can move one
        # pebble to the target.
        depth = max(max(g.distances_from(v)) for v in range(g.n))
        self.upper_bound = (formula_fopt("path", g.n) if solvable
                            else (g.n - 1) * ((1 << depth) - 1) + 1)

    def stop(self, message: str, lower_bound: int) -> BudgetError:
        """The BudgetError that ends the search: `message`, the proven
        `lower_bound`, the upper bound and the rows examined so far."""
        return BudgetError(message, lower_bound=lower_bound,
                           upper_bound=self.upper_bound, examined=self.examined)

    def first(self, k: int) -> tuple | None:
        """First row of size k whose verdict is `solvable`, or None.

        The screen drops only rows whose verdict is not `solvable`, so the
        first row in colex order that the verdict keeps is the same row.
        With `canonical` only orbit representatives count; their orbit
        mates are covered by their representative elsewhere in the layer.
        Calls take k = 1, 2, ... in turn: each builds its layer from the
        one before it, kept in `layer`, once the budget allows its first
        chunk, so a stop builds no layer it cannot charge.
        """
        # A solvable row reaches every target; an unsolvable one is not accepted.
        screen = (_neighbour_screen if self.solvable else _accept_filter)(self.g, k)
        size = comb(k + self.g.n - 1, k)
        for start in range(0, size, _CHUNK):
            self.examined += min(_CHUNK, size - start)
            if self.budget is not None and self.examined > self.budget:
                raise self.stop(f"distribution budget {self.budget} exhausted", k)
            if not start:
                self.layer = compositions_array(k, self.g.n, self.layer)
            chunk = self.layer[start:start + _CHUNK]
            for array in chunk[screen(chunk) == self.solvable]:
                row = tuple(array.tolist())
                if self.canonical is not None and not self.canonical(row):
                    continue
                if self.exact or is_solvable(
                        self.g, Distribution(row), max_vertices=self.g.n,
                        max_pebbles=k) == self.solvable:
                    return row
        return None


def optimal_pebbling_number(g: Graph, *,
                            max_vertices: int = MAX_ENGINE_VERTICES,
                            max_pebbles: int = MAX_ENGINE_PEBBLES,
                            max_distributions: int | None = None) -> NumberReport:
    """Smallest k admitting a solvable distribution of size k.

    Searches sizes 1, 2, ... exhaustively, so the reported value is exact.
    Every connected graph satisfies f_opt <= ceil(2n/3) (Bunde, Chambers,
    Cranston, Milans and West, J. Graph Theory 2008), so the loop ends by
    that size.  A search stopped by max_distributions, or by finding no
    solvable distribution of size <= max_pebbles, raises BudgetError with
    that size as its upper_bound and every row it examined.
    """
    scanner = _LayerScanner(g, max_vertices, max_distributions, True)
    for k in range(1, max_pebbles + 1):
        if (row := scanner.first(k)) is not None:
            return NumberReport("optimal_pebbling", k, Distribution(row),
                                scanner.examined)
    raise scanner.stop(f"no solvable distribution of size <= {max_pebbles} found",
                       max_pebbles + 1)


def pebbling_number(g: Graph, *,
                    max_vertices: int = MAX_PEBBLING_VERTICES,
                    max_value: int = MAX_PEBBLING_VALUE,
                    max_distributions: int | None = None) -> NumberReport:
    """Smallest k such that every distribution of size k is solvable.

    Solvability is monotone under adding pebbles, so the first size whose
    layer contains no unsolvable distribution is the answer; the witness is
    the last unsolvable distribution seen, of size value - 1.  A search
    stopped by max_distributions, or by an unsolvable row in every layer
    up to max_value, raises BudgetError with every row it examined, the
    lower bound it proved and the upper bound (n - 1)(2^D - 1) + 1, D the
    diameter.
    """
    scanner = _LayerScanner(g, max_vertices, max_distributions, False)
    witness = Distribution((0,) * g.n)
    for size in range(1, max_value + 1):
        if (row := scanner.first(size)) is None:
            return NumberReport("pebbling", size, witness, scanner.examined)
        witness = Distribution(row)
    raise scanner.stop(f"pebbling number exceeds cap {max_value}", max_value + 1)


# ---------------------------------------------------------------------------
# products


def product_distribution(dg: Distribution, dh: Distribution) -> Distribution:
    """Distribution on a product graph with counts dg[v] * dh[w] at (v, w).

    Vertex (v, w) sits at index v * len(dh) + w, matching the product
    graph's encoding.  The size multiplies: |result| = |dg| * |dh|.
    """
    return Distribution(tuple(a * b for a in dg.counts for b in dh.counts))


def graham_optimal_check(g: Graph, h: Graph, *,
                         max_vertices: int = MAX_GRAHAM_PRODUCT_VERTICES,
                         max_pebbles: int = MAX_ENGINE_PEBBLES,
                         max_distributions: int | None = None) -> GrahamCheck:
    """Test f_opt(G x H) <= f_opt(G) * f_opt(H) by exact computation; the
    caps apply to all three searches, the product being the largest.  A
    BudgetError names the search that ran out (f_opt(G), f_opt(H) or
    f_opt(G x H)) and keeps its bounds; its examined also counts the
    searches that finished first."""
    prod = cartesian_product(g, h, max_vertices=max_vertices)
    caps = {"max_vertices": max_vertices, "max_pebbles": max_pebbles,
            "max_distributions": max_distributions}
    reports = []
    for name, x in (("f_opt(G)", g), ("f_opt(H)", h), ("f_opt(G x H)", prod)):
        try:
            reports.append(optimal_pebbling_number(x, **caps))
        except BudgetError as exc:
            exc.args = (f"{name}: {exc}",)
            exc.examined += sum(r.distributions_examined for r in reports)
            raise
    return GrahamCheck(*reports)
