"""Simple undirected graphs with dense integer vertices.

Vertices are always 0..n-1.  Graphs are immutable once built and safe to
share between threads; derived data (BFS distances, the engine's move
tables) is computed on first use and kept with the graph.

`canonical_family` is the one test for the canonically indexed path or
cycle, the graphs the surgeries and the orbit filter take.  This module
owns each family's least order (`_LEAST_ORDER`: a path needs 1 vertex, a
cycle 3, the domains of the paper's two theorems) and the one refusal of
an order below it, `_check_family_order`; the constructors, the closed
forms, `verify` and the surgeries' size floor all read them here.  Every
number of an edge-list file follows `errors.parse_natural`, the rule for
typed numbers.
"""

from __future__ import annotations

__all__ = [
    "Graph",
    "MAX_PRODUCT_VERTICES",
    "canonical_family",
    "cartesian_product",
    "load_edge_list",
    "make_cycle",
    "make_path",
    "read_edge_list",
]

from collections import deque
from typing import Callable, Iterable, Iterator

from .errors import _check_cap, _quote, parse_natural

MAX_PRODUCT_VERTICES = 64

_LEAST_ORDER = {"path": 1, "cycle": 3}


def _check_family_order(family: str, n: int) -> None:
    """The one refusal of an order below its family's least: ValueError."""
    least = _LEAST_ORDER[family]
    if n < least:
        raise ValueError(f"{family} needs at least {least} "
                         f"{'vertex' if least == 1 else 'vertices'}, got {n}")


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Duplicate edges are ignored; self-loops are rejected.  A graph is its
    edges: equality and hashing read the adjacency alone.
    """

    __slots__ = ("n", "_nbrs", "_m", "_derived")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            sets[u].add(v)
            sets[v].add(u)
        self.n = n
        self._nbrs = tuple(tuple(sorted(s)) for s in sets)
        self._m = sum(len(s) for s in sets) // 2
        self._derived: dict[tuple, object] = {}

    @property
    def edge_count(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        """True when u and v are vertices joined by an edge."""
        return 0 <= u < self.n and v in self._nbrs[u]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self._nbrs[u]:
                if u < v:
                    yield (u, v)

    def derived(self, build: Callable, *args):
        """build(self, *args), computed on first use and kept with the
        graph; for values that depend on its structure and args alone."""
        key = (build, *args)
        if key not in self._derived:
            self._derived[key] = build(self, *args)
        return self._derived[key]

    def distances_from(self, source: int) -> tuple[int, ...]:
        """BFS distances from `source`; -1 marks unreachable vertices."""
        return self.derived(Graph._bfs, source)

    def _bfs(self, source: int) -> tuple[int, ...]:
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in self._nbrs[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    queue.append(w)
        return tuple(dist)

    def is_connected(self) -> bool:
        return -1 not in self.distances_from(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._nbrs == other._nbrs

    def __hash__(self) -> int:
        return hash(self._nbrs)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._m})"


# ---------------------------------------------------------------------------
# constructors


def make_path(n: int) -> Graph:
    """Path on n >= 1 vertices, edges {i, i+1}."""
    _check_family_order("path", n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, edges {i, (i+1) mod n}."""
    _check_family_order("cycle", n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def canonical_family(g: Graph) -> str | None:
    """"path" when g is exactly the path 0-1-...-(n-1), "cycle" when it is
    exactly the cycle 0-1-...-(n-1)-0, otherwise None."""
    n, m = g.n, g.edge_count
    if m == n - 1 and all(g.has_edge(i, i + 1) for i in range(n - 1)):
        return "path"
    if m == n >= _LEAST_ORDER["cycle"] and all(
            g.has_edge(i, (i + 1) % n) for i in range(n)):
        return "cycle"
    return None


# ---------------------------------------------------------------------------
# cartesian product


def cartesian_product(g: Graph, h: Graph, *,
                      max_vertices: int = MAX_PRODUCT_VERTICES) -> Graph:
    """Cartesian product: (a,b)~(a',b') iff one coordinate steps along an
    edge while the other stays fixed.  Vertex (a, b) gets index a*h.n + b.
    """
    n = g.n * h.n
    _check_cap(n, max_vertices)
    edges = []
    for a in range(g.n):
        base = a * h.n
        for b1, b2 in h.edges():
            edges.append((base + b1, base + b2))
    for a1, a2 in g.edges():
        for b in range(h.n):
            edges.append((a1 * h.n + b, a2 * h.n + b))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# edge-list files


def read_edge_list(text: str, max_vertices: int | None = None) -> Graph:
    """Parse an edge-list document.

    First significant line: vertex count n.  Every following significant
    line: `u v` for an edge.  Each number is ASCII digits
    (`errors.parse_natural`).  Lines starting with '#' and blank lines are
    ignored.  Duplicate edges are ignored; self-loops and out-of-range
    endpoints are errors.  An n over max_vertices raises SizeLimitError
    once every line has parsed, before the graph is built.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ValueError(f"line {lineno}: expected the vertex count "
                                 f"alone, got {_quote(line)}")
            try:
                n = parse_natural(parts[0])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: vertex count "
                                 f"{_quote(parts[0])}: {exc}") from None
            continue
        if len(parts) != 2:
            raise ValueError(
                f"line {lineno}: expected 'u v', got {_quote(line)}")
        try:
            u, v = map(parse_natural, parts)
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be "
                             f"integers, got {_quote(line)}") from None
        edges.append((u, v))
    if n is None:
        raise ValueError("empty edge-list document: missing vertex count")
    _check_cap(n, max_vertices)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"invalid edge list: {exc}") from None


def load_edge_list(path: str, max_vertices: int | None = None) -> Graph:
    """Read an edge-list file from disk (see read_edge_list).  An OSError
    from opening it quotes the path through `errors._quote`."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, f"{exc.strerror}: {_quote(path)}") from None
    with fh:
        return read_edge_list(fh.read(), max_vertices)
