"""Pebbling invariants: closed-form values, constructions, and brute force.

Two independent routes to the same numbers live here.  The closed forms
(`formula_fopt_path`, `formula_fopt_cycle`) and the explicit distribution
builders rest on the decomposition n = 3t + r; the brute-force searches
(`optimal_pebbling_number`, `pebbling_number`) rest on exact verdicts for
every distribution.  The test suite holds the two routes against each
other.

The brute-force searches enumerate distributions in colexicographic order,
one size-k layer at a time, each layer built from the one before it
(`compositions_array` with `previous`), and screen them a whole chunk at a
time, one vectorized screen per search:

* reject (the search for a solvable row, `optimal_pebbling_number`): a
  vertex whose weighted potential sum(c_v * 2^-dist) falls below 1 can
  never be reached, so the distribution is unsolvable (one matmul with the
  engine's integer weights, its depth capped so that every sum is an exact
  float64 integer);
* accept (the search for an unsolvable row, `pebbling_number`): if every
  vertex has a single pile holding 2^dist pebbles, each vertex is
  reachable on its own, so the distribution is solvable (one bitmask OR
  per vertex).

A screen only picks the rows worth visiting.  The engine's leaf-to-root
transport fold (one column operation per edge of the BFS tree of G - t at
each neighbour of t, a whole chunk at a time) then reads every visited
row.  On trees and cycles, where G - t is a forest for every t, it is the
exact verdict (the test suite holds it to the engine's search).  On every
other graph it is sound only as an accept: the search for an unsolvable
row drops the rows it accepts, and the engine's `is_solvable` decides the
rest one row at a time; the search for a solvable row skips the fold there
and asks the engine of every visited row.

On the canonically indexed path and cycle the search for a solvable row
then keeps only orbit representatives, tested one row at a time after
the verdict (`is_path_canonical`, `is_cycle_canonical`).  On trees and
cycles no distribution reaches the engine.
"""

from __future__ import annotations

__all__ = [
    "GrahamCheck",
    "MAX_GRAHAM_PRODUCT_VERTICES",
    "MAX_PEBBLING_VALUE",
    "MAX_PEBBLING_VERTICES",
    "NumberReport",
    "construct_optimal_cycle_distribution",
    "construct_optimal_path_distribution",
    "formula_fopt_cycle",
    "formula_fopt_path",
    "graham_optimal_check",
    "optimal_pebbling_number",
    "pebbling_number",
    "product_distribution",
]

import sys
from dataclasses import dataclass

import numpy as np

from .engine import (
    MAX_ENGINE_PEBBLES,
    MAX_ENGINE_VERTICES,
    Distribution,
    _fold,
    _fold_schedule,
    _weight_table,
    is_solvable,
)
from .enumeration import compositions_array, is_cycle_canonical, is_path_canonical
from .errors import BudgetError, _check_cap
from .graphs import Graph, canonical_family, cartesian_product

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
        return (self.report_g.distributions_examined
                + self.report_h.distributions_examined
                + self.report_product.distributions_examined)


# ---------------------------------------------------------------------------
# closed forms


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def formula_fopt_path(n: int) -> int:
    """Optimal pebbling number of the n-vertex path: 2t + r for n = 3t + r."""
    _check_order(n)
    return 2 * (n // 3) + n % 3


def formula_fopt_cycle(n: int) -> int:
    """Optimal pebbling number of the n-vertex cycle (n >= 3): 2t + r."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return formula_fopt_path(n)


def construct_optimal_path_distribution(n: int) -> Distribution:
    """Solvable distribution of size 2t + r on the n-vertex path.

    Two pebbles on the middle vertex of each block of three, one pebble on
    every leftover vertex.  Every vertex ends up occupied or adjacent to a
    two-pebble pile, so the distribution is solvable by a single move.
    An n over sys.maxsize, which no list can index, raises SizeLimitError.
    """
    _check_cap(n, sys.maxsize)
    _check_order(n)
    t, r = divmod(n, 3)
    counts = [0] * n
    counts[1:3 * t:3] = [2] * t
    counts[3 * t:] = [1] * r
    return Distribution(tuple(counts))


def construct_optimal_cycle_distribution(n: int) -> Distribution:
    """Solvable distribution of size 2t + r on the n-vertex cycle (n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return construct_optimal_path_distribution(n)


# ---------------------------------------------------------------------------
# brute-force machinery


def _potential_filter(g: Graph, k: int):
    """Reject filter for size-k rows of g: a function from a chunk of rows
    to the mask of rows whose potential sum(c_v * 2^-dist(v, t)) reaches 1
    at every target t.  A row outside the mask is unsolvable.

    The engine's weights, rescaled to 2^(C - dist(v, t)), face the one
    threshold 2^C, where C = min(D, 52 - k.bit_length()) caps the largest
    depth D.  A vertex farther than C from t weighs 1, what it would weigh
    at distance C.  A size-k row then weighs less than 2^52, so every
    float64 product and sum is an exact integer.  Weights only grow under
    the cap, so the mask keeps every row the exact potential keeps, and
    the rows it adds are decided exactly downstream; below the cap
    (k * 2^D < 2^52, so every search at the default caps) it is the exact
    test itself.
    """
    depth = max(d for _, d in g.derived(_weight_table))
    cap = min(depth, 52 - k.bit_length())
    weights = g.derived(_capped_weights, cap)
    threshold = float(1 << cap)

    def reaches_all(chunk: np.ndarray) -> np.ndarray:
        potentials = chunk.astype(np.float64) @ weights.T
        return (potentials >= threshold).all(axis=1)

    return reaches_all


def _capped_weights(g: Graph, cap: int) -> np.ndarray:
    """The weight matrix of `_potential_filter` at depth cap `cap`: the
    engine's weight of v toward t rescaled to 2^(cap - dist(v, t)), at
    least 1 where v reaches t, 0 where it does not."""
    return np.array([[w and max(w << cap >> d, 1) for w in row]
                     for row, d in g.derived(_weight_table)], dtype=np.float64)


def _cover_filter(g: Graph, k: int):
    """Accept filter for size-k rows of g: a function from a chunk of rows
    to the mask of rows in which every target t has a single pile of at
    least 2^dist(v, t) pebbles.  A row inside the mask is solvable.

    cover[v][c] is the bitmask of the targets that c pebbles on v reach on
    their own, c * w >= 2^D with w and D from the engine's weight table,
    so a row is screened by one OR per vertex.  The masks are uint64 up to
    64 vertices and Python integers beyond.
    """
    n = g.n
    table = [[0] * (k + 1) for _ in range(n)]
    for t, (weights, depth) in enumerate(g.derived(_weight_table)):
        for v, w in enumerate(weights):
            if w:
                for c in range((1 << depth) // w, k + 1):
                    table[v][c] |= 1 << t
    dtype = np.uint64 if n <= 64 else object
    cover = np.array(table, dtype=dtype)
    full = np.array((1 << n) - 1, dtype=dtype)

    def covers_all(chunk: np.ndarray) -> np.ndarray:
        hit = cover[0][chunk[:, 0]]
        for v in range(1, n):
            hit |= cover[v][chunk[:, v]]
        return hit == full

    return covers_all


def _fold_verdict(g: Graph):
    """The fold's solvable mask of whole chunks of rows of a connected
    graph: a function from a chunk to the mask of rows in which
    `engine._fold` (lemma and proof there) is at least 1 at every target;
    rows leave after the first target they miss.

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
        solvable = np.zeros(chunk.shape[0], dtype=bool)
        solvable[alive] = True
        return solvable

    return solvable_rows


class _LayerScanner:
    """Scans size-k layers of a graph's distributions in colex order for
    the first row whose verdict is `solvable`.

    A graph over `max_vertices` or disconnected is refused up front.  Rows
    are charged against the budget a whole chunk at a time, before the
    chunk is screened, so `examined` counts every row the search touched.
    Every stop of either search is one `stop`: a BudgetError with the rows
    examined, the lower bound proven so far and an upper bound that g's
    order and diameter alone prove.
    One screen per search picks the rows worth visiting: the reject filter
    for a solvable row, the complement of the accept filter for an
    unsolvable one.  One exact verdict then decides each visited row: on
    trees and cycles (`exact`) the fold, a whole chunk at a time;
    elsewhere the engine, one row at a time.  There the search for an
    unsolvable row first drops the rows the fold accepts, which are
    solvable; the search for a solvable row builds no fold.  On the
    canonically indexed path and cycle the search for a solvable row also
    asks `canonical`, the family's per-row orbit test, of each row in
    turn; elsewhere `canonical` is None.
    """

    def __init__(self, g: Graph, max_vertices: int, budget: int | None,
                 solvable: bool):
        _check_cap(g.n, max_vertices)
        if not g.is_connected():
            raise ValueError("graph is disconnected; no distribution is solvable")
        self.g = g
        self.budget = budget
        self.solvable = solvable
        # read as module globals here, so that a patched predicate is seen
        self.canonical = ({"path": is_path_canonical, "cycle": is_cycle_canonical}
                          .get(canonical_family(g)) if solvable else None)
        # Trees and cycles, where the fold is exact; elsewhere it only accepts.
        self.exact = (g.edge_count == g.n - 1
                      or all(g.degree(v) == 2 for v in range(g.n)))
        self.fold = _fold_verdict(g) if self.exact or not solvable else None
        self.examined = 0
        # The last layer built; `first` builds the next one from it.
        self.layer = None
        # f_opt <= ceil(2n/3) (Bunde et al.).  pi <= (n - 1)(2^D - 1) + 1, D
        # the largest depth: that many pebbles with an empty target put 2^D
        # on some other vertex, which can move one pebble to the target.
        depth = max(d for _, d in g.derived(_weight_table))
        self.upper_bound = (-(-2 * g.n // 3) if solvable
                            else (g.n - 1) * ((1 << depth) - 1) + 1)

    def stop(self, message: str, lower_bound: int) -> BudgetError:
        """The BudgetError that ends the search: `message`, the proven
        `lower_bound`, the upper bound and the rows examined so far."""
        return BudgetError(message, lower_bound=lower_bound,
                           upper_bound=self.upper_bound, examined=self.examined)

    def first(self, k: int) -> tuple | None:
        """First row of size k whose verdict is `solvable`, or None.

        With `canonical` only orbit representatives count; their orbit
        mates are covered by their representative elsewhere in the layer.
        The fold is the verdict on trees and cycles and, elsewhere, the
        accept of the search for an unsolvable row: it drops only solvable
        rows, so the first unsolvable row in colex order is the same row.
        Calls take k = 1, 2, ... in turn: each builds its layer from the
        one before it, kept in `layer`.
        """
        # A solvable row reaches every target; an unsolvable one is not covered.
        screen = (_potential_filter if self.solvable else _cover_filter)(self.g, k)
        rows = self.layer = compositions_array(k, self.g.n, self.layer)
        for start in range(0, rows.shape[0], _CHUNK):
            chunk = rows[start:start + _CHUNK]
            self.examined += chunk.shape[0]
            if self.budget is not None and self.examined > self.budget:
                raise self.stop(f"distribution budget {self.budget} exhausted", k)
            picked = chunk[screen(chunk) == self.solvable]
            if self.fold is not None:
                picked = picked[self.fold(picked) == self.solvable]
            for array in picked:
                row = tuple(array.tolist())
                if ((self.canonical is None or self.canonical(row))
                        and (self.exact
                             or is_solvable(self.g, Distribution(row),
                                            max_vertices=self.g.n,
                                            max_pebbles=k) == self.solvable)):
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
        row = scanner.first(k)
        if row is not None:
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
        row = scanner.first(size)
        if row is None:
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
    counts = tuple(a * b for a in dg.counts for b in dh.counts)
    return Distribution(counts)


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
