"""Pebbling invariants: closed-form values, constructions, and brute force.

Two independent routes to the same numbers live here.  The closed forms
(`formula_fopt_path`, `formula_fopt_cycle`) and the explicit distribution
builders rest on the decomposition n = 3t + r; the brute-force searches
(`optimal_pebbling_number`, `pebbling_number`) rest only on the exact
engine.  The test suite holds the two routes against each other.

The brute-force searches enumerate distributions in colexicographic order
and sandwich the exact engine between two vectorized exact filters:

* reject: a vertex whose weighted potential sum(c_v * 2^-dist) falls below
  1 can never be reached, so the distribution is unsolvable;
* accept: if every vertex has a single pile holding 2^dist pebbles, each
  vertex is reachable on its own, so the distribution is solvable.

Only distributions caught by neither filter reach the engine.
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
from .enumeration import compositions_array, is_cycle_canonical, is_path_canonical
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


def _weight_matrix(g: Graph) -> np.ndarray:
    """W[t, v] = 2^-dist(v, t), zero when v cannot reach t."""
    n = g.n
    w = np.zeros((n, n), dtype=np.float64)
    for t in range(n):
        for v, dv in enumerate(g.distances_from(t)):
            if dv >= 0:
                w[t, v] = 2.0 ** (-dv)
    return w


def _layer_masks(chunk_float: np.ndarray, weights: np.ndarray):
    """Exact unsolvable/solvable masks for a chunk of distributions."""
    potentials = chunk_float @ weights.T
    candidate = (potentials >= 1.0).all(axis=1)
    accept = None
    for t in range(weights.shape[0]):
        single = (chunk_float * weights[t]).max(axis=1) >= 1.0
        accept = single if accept is None else (accept & single)
    return candidate, accept


def _orbit_filter(g: Graph):
    """Orbit-representative test for g's rows, chosen from its edges.

    Only the canonically indexed path and cycle have a known automorphism
    group whose orbits the search can skip; every other graph, however
    it is labelled, is searched unfiltered.
    """
    if is_canonical_path(g):
        return is_path_canonical
    if is_canonical_cycle(g):
        return is_cycle_canonical
    return None


class _LayerScanner:
    """Scans size-k layers of a graph's distributions in colex order.

    Rows are charged against the budget a whole chunk at a time, before the
    chunk is screened, so `examined` counts every row the search touched.
    """

    def __init__(self, g: Graph, budget: int | None, engine_caps: dict,
                 canonical=None):
        self.g = g
        self.budget = budget
        self.engine_caps = engine_caps
        self.canonical = canonical
        self.weights = _weight_matrix(g)
        self.examined = 0

    def first(self, k: int, solvable: bool) -> tuple | None:
        """First row of size k whose verdict is `solvable`, or None.

        A solvable row must pass the reject filter and is decided by the
        accept filter; an unsolvable row must fail the accept filter and is
        decided by the reject filter.  With an orbit filter only orbit
        representatives count; their orbit mates are covered by their
        representative elsewhere in the layer.
        """
        rows = compositions_array(k, self.g.n)
        for start in range(0, rows.shape[0], _CHUNK):
            chunk = rows[start:start + _CHUNK]
            self.examined += chunk.shape[0]
            if self.budget is not None and self.examined > self.budget:
                raise BudgetError(f"distribution budget {self.budget} exhausted",
                                  lower_bound=k, examined=self.examined)
            candidate, accept = _layer_masks(chunk.astype(np.float64), self.weights)
            visit, decided = (candidate, accept) if solvable else (~accept, ~candidate)
            for i in np.flatnonzero(visit):
                row = tuple(int(x) for x in chunk[i])
                if self.canonical is not None and not self.canonical(row):
                    continue
                if decided[i] or is_solvable(self.g, Distribution(row),
                                             **self.engine_caps) == solvable:
                    return row
        return None


def optimal_pebbling_number(g: Graph, *,
                            max_vertices: int = MAX_ENGINE_VERTICES,
                            max_pebbles: int = MAX_ENGINE_PEBBLES,
                            max_distributions: int | None = None) -> NumberReport:
    """Smallest k admitting a solvable distribution of size k.

    Searches sizes 1, 2, ... exhaustively, so the reported value is exact.
    Every connected graph satisfies f_opt <= n (one pebble per vertex), so
    the loop always terminates within the pebble cap for sane inputs.
    """
    if g.n > max_vertices:
        raise SizeLimitError(f"{g.n} vertices exceeds cap {max_vertices}")
    if not g.is_connected():
        raise ValueError("graph is disconnected; no distribution is solvable")
    scanner = _LayerScanner(
        g, max_distributions,
        {"max_vertices": max_vertices, "max_pebbles": max_pebbles},
        _orbit_filter(g))
    for k in range(1, max_pebbles + 1):
        row = scanner.first(k, solvable=True)
        if row is not None:
            return NumberReport("optimal_pebbling", k, Distribution(row),
                                scanner.examined)
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
                         max_product_vertices: int = MAX_GRAHAM_PRODUCT_VERTICES,
                         max_distributions: int | None = None) -> GrahamCheck:
    """Test f_opt(G x H) <= f_opt(G) * f_opt(H) by exact computation."""
    prod = cartesian_product(g, h, max_vertices=max_product_vertices)
    report_g = optimal_pebbling_number(g, max_distributions=max_distributions)
    report_h = optimal_pebbling_number(h, max_distributions=max_distributions)
    report_p = optimal_pebbling_number(prod, max_distributions=max_distributions)
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
