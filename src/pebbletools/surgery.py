"""Distribution surgeries: size-reducing rewrites on paths and cycles.

Each operation shrinks a path or cycle by one to three vertices while editing
the pebble counts so that, on suitable inputs, solvability is preserved.
They are the executable form of an inductive shrinking argument; the test
suite checks the preservation guarantee empirically against the engine.
Each rule only validates its input and finds its pattern, then names the
vertices that go and the pebbles that move; one rewrite step, `_rewrite`,
smooths those vertices out, composes the index maps and counts the net.

All operations require canonical indexing (edges {i, i+1}, and {n-1, 0}
for cycles), validate their stated preconditions, and refuse with a typed
error rather than guessing.  Tie-breaks are fixed: lowest vertex index
first, increasing direction preferred, so results are deterministic.  The
length check is the engine's `_check_length`, the package's only one.
Every rule keeps a path a path and a cycle a cycle, so a chain of
`try_reduce` steps, which takes no other graph, stays in the family it
started in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Distribution, _check_length
from .errors import (
    NotApplicableError,
    PreconditionError,
    SizeLimitError,
    StructureError,
    UnsupportedDegreeError,
)
from .graphs import (
    Graph,
    is_canonical_cycle,
    is_canonical_path,
    remove_vertex_smoothing,
)


@dataclass(frozen=True)
class SurgeryResult:
    """Outcome of one surgery.

    index_map sends each surviving pre-surgery vertex to its new index;
    pebbles_removed_net is |before| - |after| and is at least 1.
    """

    graph_after: Graph
    dist_after: Distribution
    index_map: dict[int, int]
    pebbles_removed_net: int
    rule: str
    branch: str | None = None


def _rewrite(g: Graph, d: Distribution, gone: list[int],
             edits: dict[int, int], rule: str,
             branch: str | None = None) -> SurgeryResult:
    """Smooth out the vertices in gone, move edits[v] pebbles onto each
    surviving old vertex v, and report the step; every rule ends here."""
    index_map = None
    # Highest index first, so each removal leaves the lower ones in place.
    for v in sorted(gone, reverse=True):
        g, step = remove_vertex_smoothing(g, v)
        index_map = step if index_map is None else {
            old: step[mid] for old, mid in index_map.items() if mid in step}
    counts, after = d.counts, [0] * g.n
    for old, new in index_map.items():
        after[new] = counts[old]
    for v, delta in edits.items():
        after[index_map[v]] += delta
    return SurgeryResult(g, Distribution(tuple(after)), index_map,
                         d.size - sum(after), rule, branch)


# ---------------------------------------------------------------------------
# operations


def remove_singleton(g: Graph, d: Distribution, v: int) -> SurgeryResult:
    """Delete a vertex carrying exactly one pebble, discarding the pebble.

    The vertex is removed by smoothing, so transport routes through it
    shorten rather than break: anything a neighbor could previously relay
    across v still arrives, which is why solvable inputs stay solvable.
    """
    _check_length(g, d)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for {g.n} vertices")
    if d.counts[v] != 1:
        raise PreconditionError(
            f"vertex {v} carries {d.counts[v]} pebbles, needs exactly 1")
    return _rewrite(g, d, [v], {}, "remove_singleton")


def collapse_two_pebble_block_path(g: Graph, d: Distribution) -> SurgeryResult:
    """On a path where every occupied vertex holds >= 2 pebbles, collapse
    the first pile that faces an empty vertex.

    Scanning from the low end (then from the high end if needed), find the
    first occupied vertex whose successor is unoccupied, and delete that
    empty successor.  The pile and its predecessor in scanning order are
    then rewritten by the first rule that fits:

    - the pile exceeds 2, or its predecessor is occupied: take two pebbles
      off the pile and, unless the pile is the first vertex in scanning
      order, add one pebble to the predecessor as compensation for
      transport that used to run forward through the pile;
    - the pile is exactly 2 and first in scanning order: take one pebble
      off it, so the vertex it stood on keeps a pebble of its own;
    - the pile is exactly 2 and its predecessor is empty: the three
      vertices read [0, 2, 0]; delete the predecessor and the pile as well,
      with both pebbles.  When they are the whole path (path:3 [0, 2, 0])
      this raises SizeLimitError: f_opt(P2) = 2 and f_opt(P1) = 1, so no
      rewrite that removes at least 2/3 of a pebble per deleted vertex
      leaves a solvable output.

    Every rule removes at least 2/3 of a pebble per deleted vertex, the
    ratio the lower bound f_opt(P_n) >= ceil(2n/3) needs, and keeps a
    solvable input solvable (checked against the engine on every path with
    n <= 10 and at most 10 pebbles).
    """
    _check_length(g, d)
    if not is_canonical_path(g):
        raise ValueError("requires a canonically indexed path")
    counts = d.counts
    if any(c == 1 for c in counts):
        raise PreconditionError(
            "every occupied vertex must carry at least 2 pebbles")
    n = g.n

    def find(order: list[int]) -> int | None:
        for p in range(len(order) - 1):
            if counts[order[p]] > 0 and counts[order[p + 1]] == 0:
                return p
        return None

    order = list(range(n))
    pos = find(order)
    if pos is None:
        order.reverse()
        pos = find(order)
    if pos is None:
        raise NotApplicableError(
            "no occupied vertex is followed by an unoccupied one "
            "in either direction")

    pile = order[pos]
    pred = order[pos - 1] if pos else None
    gone = [order[pos + 1]]
    if counts[pile] > 2 or (pred is not None and counts[pred] > 0):
        edits = {pile: -2} if pred is None else {pile: -2, pred: 1}
    elif pred is None:
        edits = {pile: -1}
    else:
        if n == 3:
            raise SizeLimitError(
                "collapsing the [0,2,0] block would delete the whole path")
        gone += [pile, pred]
        edits = {}
    return _rewrite(g, d, gone, edits, "collapse_two_pebble_block_path")


def cycle_remove_202_or_220(g: Graph, d: Distribution) -> SurgeryResult:
    """On a cycle where every occupied vertex holds exactly 2 pebbles,
    cut out the two vertices after a pile whose 3-window reads
    [2, 0, 2] or [2, 2, 0].

    Pebbles on the removed vertices are discarded, so the size drops by
    exactly 2.  The window guarantees the vertex after the cut is occupied
    or adjacent to the surviving pile, which keeps the result solvable.
    """
    _check_length(g, d)
    if not is_canonical_cycle(g):
        raise ValueError("requires a canonically indexed cycle")
    counts = d.counts
    if any(c not in (0, 2) for c in counts):
        raise PreconditionError(
            "every occupied vertex must carry exactly 2 pebbles")
    n = g.n
    window_start = None
    for i in range(n):
        window = (counts[i], counts[(i + 1) % n], counts[(i + 2) % n])
        if window in ((2, 0, 2), (2, 2, 0)):
            window_start = i
            break
    if window_start is None:
        raise NotApplicableError("no [2,0,2] or [2,2,0] window on the cycle")
    if n - 2 < 3:
        raise SizeLimitError(
            f"removing two vertices from a {n}-cycle leaves fewer than 3")

    gone = [(window_start + 1) % n, (window_start + 2) % n]
    return _rewrite(g, d, gone, {}, "cycle_remove_202_or_220")


def cycle_reduce_big_pile(g: Graph, d: Distribution) -> SurgeryResult:
    """On a cycle with a pile of >= 3 pebbles, shrink by one vertex.

    With v1 the lowest-indexed pile, the first matching rule applies:

    (a) a neighbor of v1 is unoccupied: delete it, take 2 pebbles off v1,
        add 1 pebble to the other neighbor;
    (b) both neighbors occupied and the pile is exactly 3: delete v1 with
        its pebbles and add 1 pebble to each former neighbor;
    (c) both neighbors occupied and the pile exceeds 3: orient toward the
        nearest unoccupied vertex (increasing direction on ties), take 3
        pebbles off v1, add 2 to the neighbor behind it, and delete that
        nearest unoccupied vertex.

    Every branch removes exactly one net pebble.
    """
    _check_length(g, d)
    if not is_canonical_cycle(g):
        raise ValueError("requires a canonically indexed cycle")
    counts = d.counts
    n = g.n
    pile = next((v for v in range(n) if counts[v] >= 3), None)
    if pile is None:
        raise NotApplicableError("no vertex carries 3 or more pebbles")
    succ = (pile + 1) % n
    pred = (pile - 1) % n

    rule = "cycle_reduce_big_pile"
    if counts[succ] == 0 or counts[pred] == 0:
        empty, other = (succ, pred) if counts[succ] == 0 else (pred, succ)
        return _rewrite(g, d, [empty], {pile: -2, other: 1}, rule, "a")
    if counts[pile] == 3:
        return _rewrite(g, d, [pile], {succ: 1, pred: 1}, rule, "b")
    nearest = None
    direction = 0
    for k in range(2, n // 2 + 1):
        forward = (pile + k) % n
        backward = (pile - k) % n
        if counts[forward] == 0:
            nearest, direction = forward, 1
            break
        if counts[backward] == 0:
            nearest, direction = backward, -1
            break
    if nearest is None:
        raise NotApplicableError(
            "every vertex is occupied; no nearest unoccupied vertex")
    behind = (pile - direction) % n
    return _rewrite(g, d, [nearest], {pile: -3, behind: 2}, rule, "c")


# ---------------------------------------------------------------------------
# dispatch


_SKIPPABLE = (PreconditionError, NotApplicableError, StructureError,
              SizeLimitError, UnsupportedDegreeError)


def try_reduce(g: Graph, d: Distribution) -> SurgeryResult:
    """Apply the first surgery that fits: singleton removal, then the
    family-specific block collapse, then (cycles) pile reduction.

    Raises NotApplicableError when nothing applies.
    """
    _check_length(g, d)
    if is_canonical_path(g):
        attempts = [_try_singleton, collapse_two_pebble_block_path]
    elif is_canonical_cycle(g):
        attempts = [_try_singleton, cycle_remove_202_or_220,
                    cycle_reduce_big_pile]
    else:
        raise ValueError("reduction requires a canonically indexed path or cycle")
    for op in attempts:
        try:
            return op(g, d)
        except _SKIPPABLE:
            continue
    raise NotApplicableError("no reduction applies to this distribution")


def _try_singleton(g: Graph, d: Distribution) -> SurgeryResult:
    v = next((u for u in range(g.n) if d.counts[u] == 1), None)
    if v is None:
        raise NotApplicableError("no vertex carries exactly 1 pebble")
    return remove_singleton(g, d, v)


# ---------------------------------------------------------------------------
# pattern scans and arithmetic backing


def cycle_gaps(counts) -> list[int]:
    """Lengths of the unoccupied runs between consecutive occupied vertices,
    walking the cycle in index order.

    A single occupied vertex yields one gap of n - 1; no occupied vertex
    yields an empty list.
    """
    occupied = [v for v, c in enumerate(counts) if c > 0]
    n = len(counts)
    m = len(occupied)
    return [(occupied[(j + 1) % m] - occupied[j] - 1) % n for j in range(m)]


def collapse_preserves_transport(a: int, b: int) -> bool:
    """The floor inequality behind the block collapse.

    With a pebbles on the pile (a >= 2) and b pebbles collectable on its
    predecessor, transport two past the pile after the collapse is at least
    transport two past it before:
    (floor((b+1)/2) + a - 2) // 2  >=  ((b // 2 + a) // 2) // 2.
    """
    if a < 2:
        raise ValueError("requires a >= 2")
    if b < 0:
        raise ValueError("requires b >= 0")
    post = ((b + 1) // 2 + a - 2) // 2
    pre = ((b // 2 + a) // 2) // 2
    return post >= pre
