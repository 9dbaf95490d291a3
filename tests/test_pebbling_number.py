"""The classical pebbling number π held to sides that do not share its
brute force: closed forms on paths, cycles and grids, the path-partition
formula on trees, and the general diameter bounds on every small connected
graph.  The forms live here only; no code in the package needs them."""

from itertools import combinations, permutations, product

import pytest

from pebbletools import (
    BudgetError,
    Graph,
    cartesian_product,
    make_cycle,
    make_path,
    pebbling_number,
)


def _pi(g: Graph) -> int:
    return pebbling_number(g).value


@pytest.mark.parametrize("n", range(1, 7))
def test_paths(n):
    assert _pi(make_path(n)) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(3, 9))
def test_cycles(n):
    """π(C_2k) = 2^k and π(C_2k+1) = 2⌊2^(k+1)/3⌋ + 1 (Pachter, Snevily
    and Voxman 1995)."""
    k = n // 2
    expected = 2 ** k if n % 2 == 0 else 2 * (2 ** (k + 1) // 3) + 1
    assert _pi(make_cycle(n)) == expected


@pytest.mark.parametrize("b", range(2, 5))
def test_grids(b):
    """π(P_a × P_b) = 2^(a+b−2) (Chung 1989); a = 2 keeps the product
    inside the 8-vertex cap."""
    assert _pi(cartesian_product(make_path(2), make_path(b))) == 2 ** b


def test_grid_3x3():
    """π(P3 × P3) = 2^(3+3−2) = 16 (Chung 1989), with the vertex cap
    raised to its 9 vertices."""
    g = cartesian_product(make_path(3), make_path(3), max_vertices=9)
    assert pebbling_number(g, max_vertices=9).value == 16


# ---------------------------------------------------------------------------
# trees


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _rooted_form(adj, v, parent):
    return "(" + "".join(sorted(_rooted_form(adj, w, v)
                                for w in adj[v] if w != parent)) + ")"


def _tree_form(n, edges):
    """One string per isomorphism class: the least rooted form over roots."""
    adj = _adjacency(n, edges)
    return min(_rooted_form(adj, r, None) for r in range(n))


def _trees(max_n):
    """Every tree on 1..max_n vertices once up to isomorphism, from the
    Prüfer sequences of the labelled trees."""
    yield 1, []
    for n in range(2, max_n + 1):
        seen = set()
        for seq in product(range(n), repeat=n - 2):
            degree = [1] * n
            for v in seq:
                degree[v] += 1
            edges = []
            for v in seq:
                leaf = degree.index(1)
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
            u, w = (x for x in range(n) if degree[x] == 1)
            edges.append((u, w))
            form = _tree_form(n, edges)
            if form not in seen:
                seen.add(form)
                yield n, edges


def _height(adj, v, parent):
    return max((1 + _height(adj, w, v) for w in adj[v] if w != parent),
               default=0)


def _path_partition(adj, v, parent, length, parts):
    """Extend the path reaching v by `length` edges along v's tallest
    child; every other child starts a new path with its edge to v."""
    children = sorted((w for w in adj[v] if w != parent),
                      key=lambda w: _height(adj, w, v), reverse=True)
    if not children:
        parts.append(length)
        return
    _path_partition(adj, children[0], v, length + 1, parts)
    for w in children[1:]:
        _path_partition(adj, w, v, 1, parts)


def _tree_pi(n, edges):
    """max over roots of Σ 2^(a_i) − r + 1, the a_i the path lengths of a
    maximum path partition (Chung 1989; Moews 1992)."""
    if n == 1:
        return 1
    adj = _adjacency(n, edges)
    best = 0
    for root in range(n):
        parts = []
        _path_partition(adj, root, None, 0, parts)
        best = max(best, sum(2 ** a for a in parts) - len(parts) + 1)
    return best


_TREES = list(_trees(7))
_SMALL_TREES = [(n, edges) for n, edges in _TREES if _tree_pi(n, edges) <= 32]


def test_tree_enumeration_counts():
    """25 trees on at most 7 vertices (1, 1, 1, 2, 3, 6, 11); the path P7
    and two others of order 7 have π over the value cap of 32."""
    assert [sum(n == k for n, _ in _TREES) for k in range(1, 8)] == \
        [1, 1, 1, 2, 3, 6, 11]
    assert len(_SMALL_TREES) == 22


@pytest.mark.parametrize("n, edges", _SMALL_TREES,
                         ids=[_tree_form(n, e) for n, e in _SMALL_TREES])
def test_trees(n, edges):
    assert _pi(Graph(n, edges)) == _tree_pi(n, edges)


# ---------------------------------------------------------------------------
# general bounds


def _connected_graphs(max_n):
    """Every connected graph on 1..max_n vertices once up to isomorphism."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        perms = list(permutations(range(n)))
        seen = set()
        for m in range(n - 1, len(pairs) + 1):
            for edges in combinations(pairs, m):
                g = Graph(n, edges)
                if not g.is_connected():
                    continue
                form = min(tuple(sorted(tuple(sorted((p[u], p[v])))
                                        for u, v in edges)) for p in perms)
                if form not in seen:
                    seen.add(form)
                    yield g


_GRAPHS = list(_connected_graphs(5))


def test_graph_enumeration_count():
    """1, 1, 2, 6 and 21 connected graphs on 1 to 5 vertices."""
    assert [sum(g.n == k for g in _GRAPHS) for k in range(1, 6)] == \
        [1, 1, 2, 6, 21]


@pytest.mark.parametrize("g", _GRAPHS,
                         ids=[f"n{g.n}-{list(g.edges())}" for g in _GRAPHS])
def test_diameter_bounds(g):
    """max(n, 2^D) <= π <= (n − 1)(2^D − 1) + 1.  Below: one pebble on
    each vertex but the target, or 2^D − 1 on a vertex at distance D,
    is unsolvable.  Above: with the target empty, n − 1 vertices hold
    (n − 1)(2^D − 1) + 1 pebbles, so one holds 2^D, enough to move a
    pebble across any distance up to D."""
    d = max(max(g.distances_from(v)) for v in range(g.n))
    value = _pi(g)
    assert max(g.n, 2 ** d) <= value <= (g.n - 1) * (2 ** d - 1) + 1


_NONTRIVIAL = [g for g in _GRAPHS if g.n > 1]  # π >= n, and π(K1) = 1


@pytest.mark.parametrize("g", _NONTRIVIAL,
                         ids=[f"n{g.n}-{list(g.edges())}" for g in _NONTRIVIAL])
def test_value_cap_stop_carries_both_bounds(g):
    """Capped one below π, the search stops with a BudgetError whose
    interval holds π: every layer up to the cap held an unsolvable row, so
    its lower bound is π itself, and its upper bound is the diameter
    bound above."""
    d = max(max(g.distances_from(v)) for v in range(g.n))
    value = _pi(g)
    with pytest.raises(BudgetError) as info:
        pebbling_number(g, max_value=value - 1)
    stop = info.value
    assert stop.lower_bound == value <= stop.upper_bound
    assert stop.upper_bound == (g.n - 1) * (2 ** d - 1) + 1
    assert stop.examined > 0


def test_budget_stop_carries_the_same_upper_bound():
    """A stop by max_distributions carries the same upper bound as one by
    the value cap: on C5 (π = 5, diameter 2) that is 4 · 3 + 1 = 13."""
    with pytest.raises(BudgetError) as info:
        pebbling_number(make_cycle(5), max_distributions=30)
    assert (info.value.lower_bound, info.value.upper_bound,
            info.value.examined) == (3, 13, 55)
