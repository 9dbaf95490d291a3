"""Exact pebbling reachability and solvability.

A pebbling move removes two pebbles from a vertex and places one pebble on
an adjacent vertex.  A vertex t is *reachable* from a distribution if some
move sequence (possibly empty) ends with a pebble on t; a distribution is
*solvable* if every vertex is reachable.

Every query is one search: can moves put `need` pebbles on t?  Reachability
asks it with need 1; `max_pebbles_to` raises the need until it fails.  The
search is depth-first over distribution states on an explicit stack (each
move strictly decreases the pebble count, so the state graph is a DAG and
its depth is bounded by the pebble count, not by the recursion limit),
with two exact ingredients:

* memoization of failed states, keyed on the full count vector, and
* a weight-function prune: with integer weights 2^(D - dist(v, t)) a move
  never increases the total weight, and `need` pebbles on t weigh
  need * 2^D, so any state of lower total weight is cut immediately.

Both are sound, so verdicts are exact.  Witness move sequences are the
first found under a fixed order (sources ascending, then neighbors
ascending), which makes all outputs deterministic.

`_weight_table` (these weights) serves `_reach` alone.  `_fold` (the
transport fold, exact on trees and cycles) is the package's only copy of
that arithmetic; the brute-force filters reuse it and build their own
tables from graph distances.
"""

from __future__ import annotations

__all__ = [
    "Distribution",
    "MAX_ENGINE_PEBBLES",
    "MAX_ENGINE_VERTICES",
    "Move",
    "MoveSequence",
    "SolveReport",
    "apply_move",
    "is_reachable",
    "is_solvable",
    "max_pebbles_to",
    "max_pebbles_to_path_greedy",
    "replay",
]

import operator
from dataclasses import dataclass
from itertools import starmap

from .errors import (BudgetError, IllegalMoveError, ReplayError, _check_cap,
                     _quote, parse_natural)
from .graphs import Graph, canonical_family

MAX_ENGINE_VERTICES = 20
MAX_ENGINE_PEBBLES = 64


@dataclass(frozen=True)
class Distribution:
    """Immutable pebble counts, one non-negative integer per vertex.

    A count must be an integer in the sense of `operator.index` (a Python
    or numpy int); anything else, a float or a string, is a ValueError
    rather than a truncated count.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        cleaned = []
        for c in self.counts:
            try:
                cleaned.append(operator.index(c))
            except TypeError:
                raise ValueError(f"pebble count {c!r} is not an integer") from None
        cleaned = tuple(cleaned)
        if any(c < 0 for c in cleaned):
            raise ValueError(f"negative pebble count in {cleaned}")
        object.__setattr__(self, "counts", cleaned)

    @property
    def size(self) -> int:
        return sum(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, v: int) -> int:
        return self.counts[v]

    def __iter__(self):
        return iter(self.counts)

    @classmethod
    def parse(cls, text: str) -> "Distribution":
        """Parse 'c0,c1,...', each count `parse_natural` digits with
        optional whitespace around it, into a distribution; an error
        quotes the text around the first bad count."""
        counts, pos = [], 0
        for part in text.split(","):
            try:
                counts.append(parse_natural(part.strip()))
            except ValueError:
                raise ValueError(f"distribution {_quote(text, pos)} is not a "
                                 "comma-separated list of integers") from None
            pos += len(part) + 1
        return cls(tuple(counts))

    def format(self) -> str:
        return ",".join(str(c) for c in self.counts)


@dataclass(frozen=True)
class Move:
    """One pebbling move: take 2 pebbles from `source`, put 1 on `target`."""

    source: int
    target: int

    def __str__(self) -> str:
        return f"{self.source}->{self.target}"


MoveSequence = tuple[Move, ...]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a reachability query.

    `witness` is a replayable move sequence when the verdict is true and
    None otherwise; `states_explored` counts search-tree expansions.
    """

    verdict: bool
    witness: MoveSequence | None
    states_explored: int


# ---------------------------------------------------------------------------
# moves


def apply_move(g: Graph, d: Distribution, m: Move) -> Distribution:
    """Apply one move, returning a new distribution."""
    if not (0 <= m.source < g.n and 0 <= m.target < g.n):
        raise ValueError(f"move {m} out of range for {g.n} vertices")
    if d.counts[m.source] < 2:
        raise IllegalMoveError(
            f"move {m}: source has {d.counts[m.source]} pebbles, needs 2")
    if not g.has_edge(m.source, m.target):
        raise IllegalMoveError(f"move {m}: vertices are not adjacent")
    counts = list(d.counts)
    counts[m.source] -= 2
    counts[m.target] += 1
    return Distribution(counts)


def replay(g: Graph, d: Distribution, moves: MoveSequence) -> Distribution:
    """Apply a whole move sequence; fails atomically on the first bad move."""
    current = d
    for step, m in enumerate(moves):
        try:
            current = apply_move(g, current, m)
        except (IllegalMoveError, ValueError) as exc:
            raise ReplayError(step, str(exc)) from None
    return current


# ---------------------------------------------------------------------------
# reachability


def _check_length(g: Graph, d: Distribution) -> None:
    """One count per vertex: the package's only length check."""
    if len(d.counts) != g.n:
        raise ValueError(f"distribution has {len(d.counts)} entries, "
                         f"graph has {g.n} vertices")


def _check_engine_inputs(g: Graph, d: Distribution, max_vertices: int,
                         max_pebbles: int, target: int = 0) -> None:
    """The inputs' shape first (length, then target), then the caps."""
    _check_length(g, d)
    if not 0 <= target < g.n:
        raise ValueError(f"target {target} out of range for {g.n} vertices")
    _check_cap(g.n, max_vertices)
    _check_cap(d.size, max_pebbles, "pebbles")


def _weight_table(g: Graph) -> tuple:
    """Per target t: the weights 2^(D - dist(v, t)), 0 where v cannot
    reach t, and the depth D, t's largest finite distance."""
    table = []
    for t in range(g.n):
        dist = g.distances_from(t)
        depth = max(dist)
        table.append(([0 if dv < 0 else 1 << (depth - dv) for dv in dist], depth))
    return tuple(table)


def _search_tables(g: Graph, width: int) -> tuple[tuple, tuple]:
    """What every search on g with states packed `width` bits per vertex
    needs: the weight table, and per vertex v: v, a mask nonzero when v
    holds two or more pebbles, and per neighbour u the pair (u, amount the
    move v->u subtracts)."""
    unit = [1 << v * width for v in range(g.n)]
    high = (1 << width) - 2
    return g.derived(_weight_table), tuple([(v, high * unit[v], tuple(
        [(u, 2 * unit[v] - unit[u]) for u in g.neighbors(v)])) for v in range(g.n)])


def _reach(g: Graph, counts: tuple[int, ...], target: int, need: int,
           state_budget: int | None) -> tuple[list[tuple[int, int]] | None, int]:
    """The first moves, as (source, target) pairs, that put `need` pebbles
    on `target`, or None; and the number of states expanded.

    A state is one integer, each count in whole bytes wide enough for the
    total, vertex 0 lowest, so a move is one subtraction.  A stack frame
    holds a state, the generator of its moves and the move that led to it:
    the moves on the stack are the witness.  A state with `need` on the
    target passes the prune and is never in the memo, so it ends the search.
    """
    if counts[target] >= need:
        return [], 0
    size = sum(counts).bit_length() // 8 + 1
    by_target, sources = g.derived(_search_tables, 8 * size)
    weights, depth = by_target[target]
    threshold = need << depth
    potential = sum(c * w for c, w in zip(counts, weights))
    if potential < threshold:
        return None, 0
    shift, field = 8 * size * target, (1 << 8 * size) - 1
    failed: set[int] = set()
    states = 0

    def children(state: int, pot: int):
        """Expand `state`: yield its moves that pass the prune and the memo."""
        nonlocal states
        states += 1
        if state_budget is not None and states > state_budget:
            raise BudgetError(f"reachability search exceeded {state_budget} states",
                              examined=states)
        for v, two_or_more, moves in sources:
            if state & two_or_more:
                base = pot - 2 * weights[v]
                for u, delta in moves:
                    child, child_pot = state - delta, base + weights[u]
                    if child_pot >= threshold and child not in failed:
                        yield (v, u), child, child_pot

    packed = bytes(counts) if size == 1 else b"".join(
        c.to_bytes(size, "little") for c in counts)
    root = int.from_bytes(packed, "little")
    stack = [(root, children(root, potential), None)]
    while stack:
        state, pending, _ = stack[-1]
        step = next(pending, None)
        if step is None:
            failed.add(state)
            stack.pop()
            continue
        move, child, child_pot = step
        if child >> shift & field == need:
            return [frame[2] for frame in stack[1:]] + [move], states
        stack.append((child, children(child, child_pot), move))
    return None, states


def is_reachable(g: Graph, d: Distribution, target: int, *,
                 max_vertices: int = MAX_ENGINE_VERTICES,
                 max_pebbles: int = MAX_ENGINE_PEBBLES,
                 state_budget: int | None = None) -> SolveReport:
    """Decide whether some move sequence puts a pebble on `target`.

    `state_budget` caps the states this one search expands; past it the
    search raises `BudgetError`.
    """
    _check_engine_inputs(g, d, max_vertices, max_pebbles, target)
    moves, states = _reach(g, d.counts, target, 1, state_budget)
    witness = None if moves is None else tuple(starmap(Move, moves))
    return SolveReport(witness is not None, witness, states)


def is_solvable(g: Graph, d: Distribution, *,
                max_vertices: int = MAX_ENGINE_VERTICES,
                max_pebbles: int = MAX_ENGINE_PEBBLES,
                state_budget: int | None = None) -> bool:
    """Decide whether every vertex is reachable from d.

    Starts with a cheap sufficient test (every vertex occupied or next to a
    vertex holding two or more pebbles); falls back to per-target search,
    targets in increasing index with early exit on the first failure.
    `state_budget` applies to each target's search separately, not to
    their total.
    """
    _check_engine_inputs(g, d, max_vertices, max_pebbles)
    counts = d.counts
    if all(counts[v] or any(counts[u] >= 2 for u in g.neighbors(v))
           for v in range(g.n)):
        return True
    return all(counts[t] or is_reachable(
        g, d, t, max_vertices=max_vertices, max_pebbles=max_pebbles,
        state_budget=state_budget).verdict for t in range(g.n))


def max_pebbles_to(g: Graph, d: Distribution, target: int, *,
                   max_vertices: int = MAX_ENGINE_VERTICES,
                   max_pebbles: int = MAX_ENGINE_PEBBLES) -> int:
    """Largest pebble count any move sequence can accumulate on `target`.

    Raises the demand one pebble at a time from the target's own count
    until the reachability search fails; the last demand met is exact.
    """
    _check_engine_inputs(g, d, max_vertices, max_pebbles, target)
    need = d.counts[target] + 1
    while _reach(g, d.counts, target, need, None)[0] is not None:
        need += 1
    return need - 1


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


def _fold(counts, target: int, schedule: tuple):
    """The transport fold toward t = target: counts[t] plus, per neighbour
    u of t, floor(m(u) / 2), where m(v) = c_v + the sum of floor(m(x) / 2)
    over the children x of v in u's component of G - t, rooted at u.
    `counts` is a tuple of ints or the columns of a chunk of rows, folded
    at once by the same + and >> 1.  On a tree this is the most pebbles
    moves can put on t; on a tree or a cycle t is reachable iff it is >= 1.
    Each neighbour's fold runs on its own copy m of the counts, since on a
    cycle both neighbours' trees hold the same vertices, and rebinds m[p]
    rather than adding in place, since a column is a view into the chunk.

    Lemma.  Let t hold no pebble.  No move before the first arrival at t
    takes a pebble from t (it has none) or puts one there (it is the
    first), so those moves stay inside G - t, and the first arrival is a
    move u -> t from a neighbour u holding 2.  So t is reachable iff some
    neighbour u of t can collect 2 pebbles in G - t.

    On a forest the most pebbles u can collect is m(u), rooted at u.
    Folding leaves first attains it.  No sequence beats it: if a_v moves
    go from v to its parent and b_v come back, the count left on v gives
    2a_v <= c_v + b_v + sum over children x of (a_x - 2b_x).  By induction
    from the leaves 2a_x <= m(x) + b_x, so the integer a_x - 2b_x is at
    most floor(m(x) / 2); hence 2a_v <= m(v) + b_v, and the count on the
    root u is at most m(u).  On a tree, rooting the same argument at t
    gives the maximum on t itself.  On a cycle G - t is one path that
    holds both neighbours, so the sum can count a pebble twice; but some
    term reaches 1 iff some neighbour collects 2, which is the verdict.
    """
    total = counts[target]
    for u, pairs in schedule[target]:
        m = list(counts)
        for c, p in pairs:
            m[p] = m[p] + (m[c] >> 1)
        total = total + (m[u] >> 1)
    return total


def max_pebbles_to_path_greedy(g: Graph, d: Distribution, target: int) -> int:
    """Closed-form transport maximum on a canonically indexed path: the
    fold toward `target`, exact on every tree; the test suite holds it to
    the generic engine."""
    if canonical_family(g) != "path":
        raise ValueError("greedy transport requires a canonically indexed path")
    _check_engine_inputs(g, d, g.n, d.size, target)
    return _fold(d.counts, target, g.derived(_fold_schedule))
