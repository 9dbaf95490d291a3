"""Distribution surgeries: size-reducing rewrites on paths and cycles.

Each operation shrinks a path or cycle by one to three vertices while editing
the pebble counts so that, on suitable inputs, solvability is preserved.
They are the executable form of an inductive shrinking argument; the test
suite checks the preservation guarantee empirically against the engine.
Each rule only validates its input and finds its pattern, then names the
vertices that go and the pebbles that move; one rewrite step, `_rewrite`,
keeps the survivors in index order, numbers them 0..m-1, builds the path
or cycle on them and counts the net.  It is also the one place a result's
size is checked, against its family's least order (`graphs._LEAST_ORDER`).

Every rule and `try_reduce` open with one gate, `_gate`: the engine's
`_check_length` (the package's only length check) and
`graphs.canonical_family`, which must name a family the rule takes (edges
{i, i+1}, and {n-1, 0} for cycles); a wrong graph or length is a
ValueError.  A rule then either returns a `SurgeryResult` or raises
`NotApplicableError`, whether its pattern is absent, a pebble count breaks
its precondition or the result would be too small.  Tie-breaks are fixed:
lowest vertex index first, increasing direction preferred, so results are
deterministic.  Every rule keeps a path a path and a cycle a cycle, so a
chain of `try_reduce` steps, which takes no other graph, stays in the
family it started in.
"""

from __future__ import annotations

__all__ = [
    "SurgeryResult",
    "collapse_two_pebble_block_path",
    "cycle_reduce_big_pile",
    "cycle_remove_202_or_220",
    "remove_singleton",
    "try_reduce",
]

from dataclasses import dataclass

from .engine import Distribution, _check_length
from .errors import NotApplicableError
from .graphs import _LEAST_ORDER, Graph, canonical_family, make_cycle, make_path


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


def _gate(g: Graph, d: Distribution, *families: str) -> str:
    """The check every rule and `try_reduce` open with: d fits g, and g is
    the canonical member of one of `families`, which is returned.
    ValueError otherwise."""
    _check_length(g, d)
    family = canonical_family(g)
    if family not in families:
        raise ValueError(
            f"requires a canonically indexed {' or '.join(families)}")
    return family


def _rewrite(g: Graph, d: Distribution, family: str, gone: list[int],
             edits: dict[int, int], rule: str,
             branch: str | None = None) -> SurgeryResult:
    """Delete the vertices in gone from g, the canonical member of
    `family`, number the m survivors 0..m-1 in index order, move edits[v]
    pebbles onto each surviving old vertex v, and report the step on the
    member of order m; every rule ends here.  NotApplicableError when
    that leaves a path no vertex or a cycle fewer than 3."""
    make = make_path if family == "path" else make_cycle
    floor = _LEAST_ORDER[family]
    kept = [v for v in range(g.n) if v not in gone]
    if len(kept) < floor:
        raise NotApplicableError(
            f"deleting {len(gone)} of the {g.n} vertices of a {family} "
            f"leaves {len(kept)}; a {family} needs at least {floor}")
    index_map = {old: new for new, old in enumerate(kept)}
    after = [d.counts[old] for old in kept]
    for v, delta in edits.items():
        after[index_map[v]] += delta
    return SurgeryResult(make(len(kept)), Distribution(tuple(after)),
                         index_map, d.size - sum(after), rule, branch)


# ---------------------------------------------------------------------------
# operations


def remove_singleton(g: Graph, d: Distribution, v: int) -> SurgeryResult:
    """Delete a vertex carrying exactly one pebble, discarding the pebble.

    On a canonical path or cycle the neighbors of v become adjacent, so
    transport routes through it shorten rather than break: anything a
    neighbor could previously relay across v still arrives, which is why
    solvable inputs stay solvable.
    """
    family = _gate(g, d, "path", "cycle")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for {g.n} vertices")
    if d.counts[v] != 1:
        raise NotApplicableError(
            f"vertex {v} carries {d.counts[v]} pebbles, needs exactly 1")
    return _rewrite(g, d, family, [v], {}, "remove_singleton")


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
      this raises NotApplicableError: f_opt(P2) = 2 and f_opt(P1) = 1, so no
      rewrite that removes at least 2/3 of a pebble per deleted vertex
      leaves a solvable output.

    Every rule removes at least 2/3 of a pebble per deleted vertex, the
    ratio the lower bound f_opt(P_n) >= ceil(2n/3) needs, and keeps a
    solvable input solvable (checked against the engine on every path with
    n <= 10 and at most 10 pebbles).
    """
    _gate(g, d, "path")
    counts = d.counts
    if any(c == 1 for c in counts):
        raise NotApplicableError(
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
        gone += [pile, pred]
        edits = {}
    return _rewrite(g, d, "path", gone, edits,
                    "collapse_two_pebble_block_path")


def cycle_remove_202_or_220(g: Graph, d: Distribution) -> SurgeryResult:
    """On a cycle where every occupied vertex holds exactly 2 pebbles,
    cut out the two vertices after a pile whose 3-window reads
    [2, 0, 2] or [2, 2, 0].

    Pebbles on the removed vertices are discarded, so the size drops by
    exactly 2.  The window guarantees the vertex after the cut is occupied
    or adjacent to the surviving pile, which keeps the result solvable.
    """
    _gate(g, d, "cycle")
    counts = d.counts
    if any(c not in (0, 2) for c in counts):
        raise NotApplicableError(
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
    gone = [(window_start + 1) % n, (window_start + 2) % n]
    return _rewrite(g, d, "cycle", gone, {}, "cycle_remove_202_or_220")


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
    _gate(g, d, "cycle")
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
        return _rewrite(g, d, "cycle", [empty], {pile: -2, other: 1}, rule, "a")
    if counts[pile] == 3:
        return _rewrite(g, d, "cycle", [pile], {succ: 1, pred: 1}, rule, "b")
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
    return _rewrite(g, d, "cycle", [nearest], {pile: -3, behind: 2}, rule, "c")


# ---------------------------------------------------------------------------
# dispatch


def try_reduce(g: Graph, d: Distribution) -> SurgeryResult:
    """Apply the first surgery that fits: singleton removal, then the
    family-specific block collapse, then (cycles) pile reduction.

    Raises NotApplicableError when nothing applies.
    """
    for op in _RULES[_gate(g, d, "path", "cycle")]:
        try:
            return op(g, d)
        except NotApplicableError:
            continue
    raise NotApplicableError("no reduction applies to this distribution")


def _try_singleton(g: Graph, d: Distribution) -> SurgeryResult:
    v = next((u for u in range(g.n) if d.counts[u] == 1), None)
    if v is None:
        raise NotApplicableError("no vertex carries exactly 1 pebble")
    return remove_singleton(g, d, v)


# The rules try_reduce tries on each family, in order.
_RULES = {"path": (_try_singleton, collapse_two_pebble_block_path),
          "cycle": (_try_singleton, cycle_remove_202_or_220,
                    cycle_reduce_big_pile)}
