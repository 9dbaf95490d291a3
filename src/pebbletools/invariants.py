"""Pebbling invariants: closed-form values, constructions, and brute force.

Two independent routes to the same numbers live here.  The closed forms
(`formula_fopt_path`, `formula_fopt_cycle`) and the explicit distribution
builders rest on the decomposition n = 3t + r; the brute-force searches
(`optimal_pebbling_number`, `pebbling_number`) rest on exact verdicts for
every distribution.  The test suite holds the two routes against each
other.

The brute-force searches enumerate distributions in colexicographic order
and decide them a whole chunk at a time with three vectorized exact
verdicts:

* reject: a vertex whose weighted potential sum(c_v * 2^-dist) falls below
  1 can never be reached, so the distribution is unsolvable (one matmul
  with integer weights, exact in float64);
* accept: if every vertex has a single pile holding 2^dist pebbles, each
  vertex is reachable on its own, so the distribution is solvable (one
  bitmask OR per vertex);
* fold: on trees and cycles, where G - t is a forest for every t, a
  leaf-to-root transport fold decides every distribution exactly (one
  column operation per edge of the component of G - t at each neighbour
  of t); the test suite holds it to the engine.

On the canonically indexed path and cycle an array orbit mask keeps only
orbit representatives.  On trees and cycles no distribution reaches the
engine; elsewhere only those that neither filter decides do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    MAX_ENGINE_PEBBLES,
    MAX_ENGINE_VERTICES,
    Distribution,
    is_solvable,
)
# is_path_canonical / is_cycle_canonical are unused here, but perfbench/spans.py
# patches them as attributes of this module, so they stay imported.
from .enumeration import (  # noqa: F401
    compositions_array,
    cycle_canonical_mask,
    is_cycle_canonical,
    is_path_canonical,
    path_canonical_mask,
)
from .errors import BudgetError, SizeLimitError
from .graphs import Graph, cartesian_product, is_canonical_cycle, is_canonical_path

MAX_PEBBLING_VERTICES = 8
MAX_PEBBLING_VALUE = 32
MAX_GRAHAM_PRODUCT_VERTICES = 16

_CHUNK = 1 << 16


@dataclass(frozen=True)
class TRDecomposition:
    """n = 3t + r with r in {0, 1, 2}."""

    t: int
    r: int


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

    fopt_g: int
    fopt_h: int
    fopt_product: int
    holds: bool
    tight: bool
    report_g: NumberReport
    report_h: NumberReport
    report_product: NumberReport

    @property
    def bound(self) -> int:
        return self.fopt_g * self.fopt_h

    @property
    def distributions_examined(self) -> int:
        return (self.report_g.distributions_examined
                + self.report_h.distributions_examined
                + self.report_product.distributions_examined)


# ---------------------------------------------------------------------------
# closed forms


def decompose_3t_r(n: int) -> TRDecomposition:
    """Split n >= 1 as 3t + r with r in {0, 1, 2}."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return TRDecomposition(n // 3, n % 3)


def formula_fopt_path(n: int) -> int:
    """Optimal pebbling number of the n-vertex path: 2t + r."""
    d = decompose_3t_r(n)
    return 2 * d.t + d.r


def formula_fopt_cycle(n: int) -> int:
    """Optimal pebbling number of the n-vertex cycle (n >= 3): 2t + r."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    d = decompose_3t_r(n)
    return 2 * d.t + d.r


def _construct_two_per_block(n: int) -> Distribution:
    d = decompose_3t_r(n)
    counts = [0] * n
    for i in range(3 * d.t):
        if i % 3 == 1:
            counts[i] = 2
    if d.r >= 1:
        counts[3 * d.t] = 1
    if d.r == 2:
        counts[3 * d.t + 1] = 1
    return Distribution(tuple(counts))


def construct_optimal_path_distribution(n: int) -> Distribution:
    """Solvable distribution of size 2t + r on the n-vertex path.

    Two pebbles on the middle vertex of each block of three, one pebble on
    every leftover vertex.  Every vertex ends up occupied or adjacent to a
    two-pebble pile, so the distribution is solvable by a single move.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return _construct_two_per_block(n)


def construct_optimal_cycle_distribution(n: int) -> Distribution:
    """Solvable distribution of size 2t + r on the n-vertex cycle (n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return _construct_two_per_block(n)


# ---------------------------------------------------------------------------
# brute-force machinery


def _potential_filter(g: Graph, k: int):
    """Reject filter for size-k rows of g: a function from a chunk of rows
    to the mask of rows whose potential sum(c_v * 2^-dist(v, t)) reaches 1
    at every target t.  A row outside the mask is unsolvable.

    The weights are the integers 2^(D - dist(v, t)) against the threshold
    2^D, D the largest finite distance, so a size-k row weighs at most
    k * 2^D.  Below 2^53 every float64 product and sum is an exact
    integer; at or above it (a diameter near 50) the weights are Python
    integers, which numpy sums exactly in an object array.
    """
    n = g.n
    dists = [g.distances_from(t) for t in range(n)]
    depth = max(d for row in dists for d in row)
    exact_float = k << depth < 1 << 53
    weights = np.zeros((n, n), dtype=np.float64 if exact_float else object)
    for t, row in enumerate(dists):
        for v, dv in enumerate(row):
            if dv >= 0:
                weights[t, v] = 1 << (depth - dv)
    threshold = float(1 << depth) if exact_float else 1 << depth

    def reaches_all(chunk: np.ndarray) -> np.ndarray:
        potentials = chunk.astype(weights.dtype) @ weights.T
        return (potentials >= threshold).all(axis=1)

    return reaches_all


def _cover_filter(g: Graph, k: int):
    """Accept filter for size-k rows of g: a function from a chunk of rows
    to the mask of rows in which every target t has a single pile of at
    least 2^dist(v, t) pebbles.  A row inside the mask is solvable.

    cover[v][c] is the bitmask of the targets that c pebbles on v reach on
    their own, so a row is screened by one OR per vertex.  The masks are
    uint64 up to 64 vertices and Python integers beyond.
    """
    n = g.n
    table = [[0] * (k + 1) for _ in range(n)]
    for t in range(n):
        for v, dv in enumerate(g.distances_from(t)):
            if dv >= 0:
                for c in range(1 << dv, k + 1):
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


def _fold_schedule(g: Graph) -> tuple:
    """Per target t, per neighbour u of t: u and the (child, parent) pairs
    of u's component in G - t rooted at u, leaves first (reverse BFS
    order, so every child comes before its parent)."""
    schedule = []
    for t in range(g.n):
        roots = []
        for u in g.neighbors(t):
            order, parent = [u], {t: t, u: t}
            for v in order:
                for w in g.neighbors(v):
                    if w not in parent:
                        parent[w] = v
                        order.append(w)
            roots.append((u, tuple((v, parent[v]) for v in reversed(order[1:]))))
        schedule.append(tuple(roots))
    return tuple(schedule)


def _fold_verdict(g: Graph):
    """Exact solvability of whole chunks of rows by transport folds, for
    the connected graphs on which G - t is a forest for every t: trees
    and cycles.  Returns a function from a chunk to its solvable mask, or
    None for every other graph.

    Lemma.  Let t hold no pebble.  No move before the first arrival at t
    takes a pebble from t (it has none) or puts one there (it is the
    first), so those moves stay inside G - t, and the first arrival is a
    move u -> t from a neighbour u holding 2.  So t is reachable iff some
    neighbour u of t can collect 2 pebbles in G - t.

    On a forest the most pebbles u can collect is the leaf-to-root fold
    m(v) = c_v + sum of floor(m(x) / 2) over the children x of v in u's
    component, rooted at u.  Folding leaves first attains it.  No sequence
    beats it: if a_v moves go from v to its parent and b_v come back,
    the count left on v gives 2a_v <= c_v + b_v + sum over children x of
    (a_x - 2b_x).  By induction from the leaves 2a_x <= m(x) + b_x, so the
    integer a_x - 2b_x is at most floor(m(x) / 2); hence 2a_v <= m(v) + b_v,
    and the count on the root u is at most m(u).

    A tree has n - 1 edges; a connected graph whose degrees are all 2 is a
    cycle.  Both are read from the edges, never from the label.  The
    schedule lives with the graph; a chunk costs one column operation per
    (child, parent) pair, carry[p] += (carry[c] + row[c]) >> 1, and no
    Python per row.
    """
    if not g.is_connected() or (
            g.edge_count != g.n - 1 and any(g.degree(v) != 2 for v in range(g.n))):
        return None
    schedule = g.derived(_fold_schedule)

    def solvable_rows(chunk: np.ndarray) -> np.ndarray:
        alive, cols = np.arange(chunk.shape[0]), chunk.T
        for t, roots in enumerate(schedule):
            reached = cols[t] > 0
            for u, pairs in roots:
                carry = {}
                for c, p in pairs:
                    carry[p] = carry.get(p, 0) + ((carry.get(c, 0) + cols[c]) >> 1)
                reached |= cols[u] + carry.get(u, 0) >= 2
            alive, cols = alive[reached], cols[:, reached]
        solvable = np.zeros(chunk.shape[0], dtype=bool)
        solvable[alive] = True
        return solvable

    return solvable_rows


def _orbit_mask(g: Graph):
    """Orbit-representative mask for g's rows, chosen from its edges.

    Only the canonically indexed path and cycle have a known automorphism
    group whose orbits the search can skip; every other graph, however
    it is labelled, is searched unfiltered.
    """
    if is_canonical_path(g):
        return path_canonical_mask
    if is_canonical_cycle(g):
        return cycle_canonical_mask
    return None


class _LayerScanner:
    """Scans size-k layers of a graph's distributions in colex order.

    Rows are charged against the budget a whole chunk at a time, before the
    chunk is screened, so `examined` counts every row the search touched.
    Each chunk is screened as a whole array.  On trees and cycles the
    fold verdict then decides every row that passed the masks; elsewhere a
    row becomes a tuple only once it has passed every mask, and then the
    accept verdict or the engine decides it.
    """

    def __init__(self, g: Graph, budget: int | None, engine_caps: dict,
                 orbit_mask=None):
        self.g = g
        self.budget = budget
        self.engine_caps = engine_caps
        self.orbit_mask = orbit_mask
        self.fold = _fold_verdict(g)
        self.examined = 0

    def first(self, k: int, solvable: bool) -> tuple | None:
        """First row of size k whose verdict is `solvable`, or None.

        A solvable row must pass the reject filter and is decided by the
        accept filter; an unsolvable row must fail the accept filter and is
        decided by the reject filter.  The fold verdict, where the graph has
        one, decides the rest; otherwise the engine does.  With an orbit
        mask only orbit representatives count; their orbit mates are
        covered by their representative elsewhere in the layer.
        """
        reaches_all = _potential_filter(self.g, k)
        covers_all = _cover_filter(self.g, k)
        if solvable:
            visit, decided = reaches_all, covers_all
        else:
            visit, decided = (lambda c: ~covers_all(c)), (lambda c: ~reaches_all(c))

        rows = compositions_array(k, self.g.n)
        for start in range(0, rows.shape[0], _CHUNK):
            chunk = rows[start:start + _CHUNK]
            self.examined += chunk.shape[0]
            if self.budget is not None and self.examined > self.budget:
                raise BudgetError(f"distribution budget {self.budget} exhausted",
                                  lower_bound=k, examined=self.examined)
            picked = chunk[visit(chunk)]
            if self.orbit_mask is not None:
                picked = picked[self.orbit_mask(picked)]
            if self.fold is not None:
                hits = np.flatnonzero(self.fold(picked) == solvable)
                if hits.size:
                    return tuple(picked[hits[0]].tolist())
                continue
            for i, sure in enumerate(decided(picked).tolist()):
                row = tuple(picked[i].tolist())
                if sure or is_solvable(self.g, Distribution(row),
                                       **self.engine_caps) == solvable:
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
    that size, and a BudgetError carries it as its upper_bound.
    """
    if g.n > max_vertices:
        raise SizeLimitError(f"{g.n} vertices exceeds cap {max_vertices}")
    if not g.is_connected():
        raise ValueError("graph is disconnected; no distribution is solvable")
    scanner = _LayerScanner(
        g, max_distributions,
        {"max_vertices": max_vertices, "max_pebbles": max_pebbles},
        _orbit_mask(g))
    try:
        for k in range(1, max_pebbles + 1):
            row = scanner.first(k, solvable=True)
            if row is not None:
                return NumberReport("optimal_pebbling", k, Distribution(row),
                                    scanner.examined)
    except BudgetError as exc:
        exc.upper_bound = -(-2 * g.n // 3)
        raise
    raise SizeLimitError(
        f"no solvable distribution of size <= {max_pebbles} found")


def pebbling_number(g: Graph, *,
                    max_vertices: int = MAX_PEBBLING_VERTICES,
                    max_value: int = MAX_PEBBLING_VALUE,
                    max_distributions: int | None = None) -> NumberReport:
    """Smallest k such that every distribution of size k is solvable.

    Solvability is monotone under adding pebbles, so the first size whose
    layer contains no unsolvable distribution is the answer; the witness is
    the last unsolvable distribution seen, of size value - 1.
    """
    if g.n > max_vertices:
        raise SizeLimitError(f"{g.n} vertices exceeds cap {max_vertices}")
    if not g.is_connected():
        raise ValueError("graph is disconnected; no distribution is solvable")
    scanner = _LayerScanner(
        g, max_distributions,
        {"max_vertices": max(g.n, MAX_ENGINE_VERTICES),
         "max_pebbles": max(max_value, MAX_ENGINE_PEBBLES)})
    witness = Distribution((0,) * g.n)
    for size in range(1, max_value + 1):
        row = scanner.first(size, solvable=False)
        if row is None:
            return NumberReport("pebbling", size, witness, scanner.examined)
        witness = Distribution(row)
    raise SizeLimitError(f"pebbling number exceeds cap {max_value}")


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
    BudgetError's examined also counts the searches that finished first."""
    prod = cartesian_product(g, h, max_vertices=max_vertices)
    caps = {"max_vertices": max_vertices, "max_pebbles": max_pebbles,
            "max_distributions": max_distributions}
    reports = []
    try:
        for x in (g, h, prod):
            reports.append(optimal_pebbling_number(x, **caps))
    except BudgetError as exc:
        exc.examined += sum(r.distributions_examined for r in reports)
        raise
    report_g, report_h, report_p = reports
    bound = report_g.value * report_h.value
    return GrahamCheck(
        fopt_g=report_g.value,
        fopt_h=report_h.value,
        fopt_product=report_p.value,
        holds=report_p.value <= bound,
        tight=report_p.value == bound,
        report_g=report_g,
        report_h=report_h,
        report_product=report_p,
    )
