"""Simple undirected graphs with dense integer vertices.

Vertices are always 0..n-1.  Graphs are immutable once built and safe to
share between threads; derived data (BFS distances, the engine's move
tables) is computed on first use and kept with the graph.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator

from .errors import SizeLimitError, StructureError, UnsupportedDegreeError

MAX_PRODUCT_VERTICES = 64
MAX_ISOMORPHISM_VERTICES = 10


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
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, edges {i, (i+1) mod n}."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def is_canonical_path(g: Graph) -> bool:
    """True when g is exactly the path 0-1-...-(n-1)."""
    if g.edge_count != g.n - 1:
        return False
    return all(g.has_edge(i, i + 1) for i in range(g.n - 1))


def is_canonical_cycle(g: Graph) -> bool:
    """True when g is exactly the cycle 0-1-...-(n-1)-0."""
    if g.n < 3 or g.edge_count != g.n:
        return False
    return all(g.has_edge(i, (i + 1) % g.n) for i in range(g.n))


# ---------------------------------------------------------------------------
# cartesian product


def product_vertex(a: int, b: int, h: Graph) -> int:
    """Index of the product vertex (a, b), where b runs over h."""
    if not 0 <= b < h.n:
        raise ValueError(f"second coordinate {b} out of range for {h.n} vertices")
    return a * h.n + b


def product_coords(i: int, h: Graph) -> tuple[int, int]:
    """Inverse of product_vertex: recover (a, b) from a product index."""
    return divmod(i, h.n)


def cartesian_product(g: Graph, h: Graph, *,
                      max_vertices: int = MAX_PRODUCT_VERTICES) -> Graph:
    """Cartesian product: (a,b)~(a',b') iff one coordinate steps along an
    edge while the other stays fixed.  Vertex (a, b) gets index a*h.n + b.
    """
    n = g.n * h.n
    if n > max_vertices:
        raise SizeLimitError(
            f"product would have {n} vertices, cap is {max_vertices}")
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
# smoothing


def remove_vertex_smoothing(g: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    """Delete vertex v, preserving the path structure through it.

    Degree-1: drop v and its edge.  Degree-2: drop v and join its two
    neighbors directly; if they are already adjacent the operation is
    refused (it would create a parallel edge).  Returns the new graph and
    a map from surviving old indices to their new dense indices.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for {g.n} vertices")
    if g.n == 1:
        raise StructureError("cannot remove the only vertex")
    deg = g.degree(v)
    if deg not in (1, 2):
        raise UnsupportedDegreeError(
            f"cannot smooth vertex {v} of degree {deg}; only degrees 1 and 2")
    index_map = {old: old - (1 if old > v else 0) for old in range(g.n) if old != v}
    edges = [(index_map[u], index_map[w])
             for u, w in g.edges() if u != v and w != v]
    if deg == 2:
        a, b = g.neighbors(v)
        if g.has_edge(a, b):
            raise StructureError(
                f"neighbors {a} and {b} of vertex {v} are already adjacent; "
                "smoothing would create a parallel edge")
        edges.append((index_map[a], index_map[b]))
    return Graph(g.n - 1, edges), index_map


# ---------------------------------------------------------------------------
# isomorphism


def are_isomorphic(g: Graph, h: Graph, *,
                   max_vertices: int = MAX_ISOMORPHISM_VERTICES) -> bool:
    """Exact isomorphism test by backtracking over vertex bijections.

    Exponential in the worst case, hence the small default vertex cap.
    """
    if max(g.n, h.n) > max_vertices:
        raise SizeLimitError(
            f"isomorphism test capped at {max_vertices} vertices")
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != \
            sorted(h.degree(v) for v in range(h.n)):
        return False

    n = g.n
    image = [-1] * n
    used = [False] * n

    def extend(u: int) -> bool:
        if u == n:
            return True
        du = g.degree(u)
        for cand in range(n):
            if not used[cand] and h.degree(cand) == du and all(
                    g.has_edge(u, w) == h.has_edge(image[w], cand)
                    for w in range(u)):
                image[u] = cand
                used[cand] = True
                if extend(u + 1):
                    return True
                used[cand] = False
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# edge-list files


def read_edge_list(text: str, max_vertices: int | None = None) -> Graph:
    """Parse an edge-list document.

    First significant line: vertex count n.  Every following significant
    line: `u v` for an edge.  Lines starting with '#' and blank lines are
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
                raise ValueError(
                    f"line {lineno}: expected the vertex count alone, got {line!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count {parts[0]!r} "
                                 "is not an integer") from None
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be "
                             f"integers, got {line!r}") from None
        edges.append((u, v))
    if n is None:
        raise ValueError("empty edge-list document: missing vertex count")
    if max_vertices is not None and n > max_vertices:
        raise SizeLimitError(f"{n} vertices exceeds cap {max_vertices}")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"invalid edge list: {exc}") from None


def load_edge_list(path: str, max_vertices: int | None = None) -> Graph:
    """Read an edge-list file from disk (see read_edge_list)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return read_edge_list(text, max_vertices)
