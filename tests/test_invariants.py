"""Tests for formulas, constructions, brute-force numbers, and product bounds."""

import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from pebbletools import (
    BudgetError,
    Distribution,
    Graph,
    SizeLimitError,
    canonical_family,
    cartesian_product,
    compositions_array,
    construct_optimal_distribution,
    formula_fopt,
    graham_optimal_check,
    is_cycle_canonical,
    is_path_canonical,
    is_solvable,
    make_cycle,
    make_path,
    max_pebbles_to,
    pebbling_number,
    product_distribution,
)
from pebbletools import optimal_pebbling_number as _optimal_pebbling_number
from pebbletools.engine import _fold, _fold_schedule
from pebbletools.invariants import (
    _accept_filter,
    _fold_verdict,
    _LayerScanner,
    _neighbour_screen,
)


def optimal_pebbling_number(g, **caps):
    """The search under test, holding every value it returns in this file
    to f_opt(G) <= ceil(2n/3), which every connected graph meets (Bunde,
    Chambers, Cranston, Milans, West, J. Graph Theory 2008)."""
    report = _optimal_pebbling_number(g, **caps)
    assert report.value <= -(-2 * g.n // 3)
    return report


# value sequences pinned up front; every later check must reproduce them
PATH_VALUES = {1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 4, 7: 5, 8: 6, 9: 6,
               10: 7, 11: 8, 12: 8}
CYCLE_VALUES = {3: 2, 4: 3, 5: 4, 6: 4, 7: 5, 8: 6, 9: 6, 10: 7, 11: 8, 12: 8}

STAR_70 = Graph(70, [(0, v) for v in range(1, 70)])


# ---------------------------------------------------------------------------
# colex order


def _colex_reference(total, length):
    """The compositions of total into length parts by definition: each
    choice of length - 1 bar positions among total + length - 1 slots
    gives the parts as the runs of other slots between the bars.  Sorted
    colexicographically, that is by the reversed tuple."""
    rows = []
    for bars in combinations(range(total + length - 1), length - 1):
        edges = (-1, *bars, total + length - 1)
        rows.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return sorted(rows, key=lambda row: row[::-1])


def test_compositions_colex_order():
    assert compositions_array(2, 2).tolist() == [[2, 0], [1, 1], [0, 2]]


def test_compositions_array_matches_colex_reference():
    """Built from total 0, and in one step from the layer before it."""
    for total in range(9):
        for length in range(1, 9):
            built = [compositions_array(total, length)]
            if total:
                previous = compositions_array(total - 1, length)
                built.append(compositions_array(total, length, previous))
            for rows in built:
                assert rows.dtype == np.int16
                assert [tuple(r) for r in rows.tolist()] \
                    == _colex_reference(total, length)


def test_compositions_array_refuses_a_wrong_previous():
    """A `previous` that is not layer total - 1 by its shape, dtype or first
    row is refused.  The last one has the right shape, C(1004, 4) (about
    4 * 10^10) rows with no memory behind them, and a first row of the
    wrong layer: the check reads that row alone, not every row."""
    right = compositions_array(3, 4)
    wrong = [
        (4, 4, right[:-1]),
        (5, 4, right),
        (4, 4, right.astype(np.int32)),
        (4, 4, right[::-1].copy()),
        (4, 4, right.tolist()),
        (0, 4, compositions_array(0, 4)),
        (1001, 5, np.broadcast_to(np.array([0, 0, 0, 0, 1000], dtype=np.int16),
                                  (comb(1004, 4), 5))),
    ]
    for total, length, previous in wrong:
        with pytest.raises(ValueError) as info:
            compositions_array(total, length, previous)
        assert str(info.value) \
            == "previous must be compositions_array(total - 1, length)"


def test_composition_counts():
    # compositions of k into n parts: C(k+n-1, n-1)
    assert len(compositions_array(5, 4)) == 56


@pytest.mark.parametrize("compositions", [
    compositions_array,
    lambda t, n: compositions_array(t, n, np.zeros((1, 1), dtype=np.int16)),
], ids=["compositions_array", "before_previous"])
@pytest.mark.parametrize("total,length,message", [
    (3, 0, "length must be at least 1"),
    (-1, 3, "total must be non-negative"),
])
def test_compositions_reject_bad_arguments(compositions, total, length, message):
    """Built from total 0, or in one step from a `previous` that is wrong
    too: the refusal of the arguments comes before that of `previous`."""
    with pytest.raises(ValueError) as info:
        compositions(total, length)
    assert str(info.value) == message


def test_compositions_array_refuses_totals_past_int16():
    for total, length in ((32768, 1), (40000, 3)):
        with pytest.raises(SizeLimitError) as info:
            compositions_array(total, length)
        assert str(info.value) == f"{total} pebbles exceeds cap 32767"
    assert compositions_array(32767, 2).shape == (32768, 2)


def test_compositions_of_long_rows_do_not_recurse():
    """Rows far longer than the recursion limit, built from total 0 and in
    one step: row m of layer 1 holds its one pebble on vertex m."""
    for previous in (None, compositions_array(0, 5000)):
        rows = compositions_array(1, 5000, previous)
        assert rows.shape == (5000, 5000)
        assert rows.sum() == 5000
        assert np.array_equal(rows.argmax(axis=1), np.arange(5000))


def test_canonical_representative_predicates():
    assert is_path_canonical((0, 2, 1))
    assert not is_path_canonical((1, 2, 0))
    assert is_cycle_canonical((0, 1, 2))
    assert not is_cycle_canonical((1, 2, 0))
    assert not is_cycle_canonical((0, 2, 1))  # reflection (0,1,2) is smaller


def _permutation(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def _relabelled(g, seed):
    """g with vertex v renamed _permutation(g.n, seed)[v]."""
    perm = _permutation(g.n, seed)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _paths_and_cycles(top):
    """path:1..top-1 and cycle:3..top-1, each followed by a relabelled copy."""
    graphs = []
    for n in range(1, top):
        graphs += [make_path(n), _relabelled(make_path(n), n)]
        if n >= 3:
            graphs += [make_cycle(n), _relabelled(make_cycle(n), n)]
    return graphs


def _distances_avoiding(g, t, u):
    """d_{G-t}(v, u) for every v in u's component of G - t, by BFS."""
    dist, queue = {u: 0}, [u]
    for v in queue:
        for w in g.neighbors(v):
            if w != t and w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _neighbour_reaches_all(g, rows):
    """The neighbour screen's per-row definition in exact fractions: every
    target t holds a pebble or has a neighbour u whose potential in G - t,
    sum(c_v / 2^d_{G-t}(v, u)) over u's component, reaches 2."""
    avoiding = [[_distances_avoiding(g, t, u) for u in g.neighbors(t)]
                for t in range(g.n)]
    piles = [[(v, c) for v, c in enumerate(row) if c] for row in rows]
    return [all(row[t] or any(sum(Fraction(c, 2 ** dist[v])
                                  for v, c in pile if v in dist) >= 2
                              for dist in avoiding[t])
                for t in range(g.n)) for row, pile in zip(rows, piles)]


def _covered(dist, row):
    """The accept filter's cover, per row: every target t has a single pile
    of at least 2^dist(v, t) pebbles."""
    return all(any(c >= 2 ** dist[t][v] for v, c in enumerate(row) if c)
               for t in range(len(row)))


def test_layer_masks_match_per_row_definitions():
    """The scanner's reject and accept masks agree with their per-row
    definitions on every row: reject (an empty target none of whose
    neighbours has a potential of 2 in G - t) and accept (every target has
    a pile of 2^dist, else `engine._fold` is at least 1 at every target).
    On trees and cycles the accept mask is also `is_solvable`.  The last
    graphs run on layers up to 2.  On path:56 the distances through a
    neighbour reach 55 > 53 - k.bit_length(), so the reject filter caps its
    depth.  The stars of 9, 64, 65 and 70 vertices pack the accept filter's
    targets into 2, 8, 9 and 9 bytes per row; the 9-vertex star's centre
    is its last vertex, the one target in its second byte."""
    graphs = [cartesian_product(make_path(2), make_path(3)),
              cartesian_product(make_path(3), make_path(3)),
              Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
              Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])]
    graphs += _paths_and_cycles(8)
    stars = [Graph(n, [(n - 1, v) for v in range(n - 1)]) for n in (9, 64, 65)]
    cases = [(g, 6) for g in graphs] + [(g, 2) for g in
                                        [make_path(56), *stars, STAR_70]]
    for g, max_k in cases:
        dist = [g.distances_from(t) for t in range(g.n)]
        schedule = _fold_schedule(g)
        exact = g.edge_count == g.n - 1 or all(g.degree(v) == 2
                                                for v in range(g.n))
        for k in range(max_k + 1):
            rows = compositions_array(k, g.n)
            accepts = [_covered(dist, row)
                       or all(_fold(row, t, schedule) >= 1 for t in range(g.n))
                       for row in map(tuple, rows.tolist())]
            assert _neighbour_screen(g, k)(rows).tolist() \
                == _neighbour_reaches_all(g, rows.tolist())
            assert _accept_filter(g, k)(rows).tolist() == accepts
            if exact:
                assert accepts == [is_solvable(g, Distribution(row),
                                               max_vertices=g.n)
                                   for row in rows.tolist()]


def test_accept_filter_cover_alone_is_its_definition(monkeypatch):
    """With a fold that accepts no row, the accept filter's mask is its
    cover alone: every target has a single pile of at least 2^dist(v, t),
    a pile of exactly 2^dist included.  The fold re-accepts every row the
    cover misses, so only this case pins the cover's threshold; the stars
    of 9 and 65 vertices put targets in a second and a ninth byte."""
    monkeypatch.setattr("pebbletools.invariants._fold_verdict",
                        lambda g: lambda chunk: np.zeros(len(chunk), dtype=bool))
    stars = [Graph(n, [(n - 1, v) for v in range(n - 1)]) for n in (9, 65)]
    cases = [(g, 6) for g in [cartesian_product(make_path(2), make_path(3)),
                              Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
                              *_paths_and_cycles(7)]]
    for g, max_k in cases + [(g, 2) for g in stars]:
        dist = [g.distances_from(t) for t in range(g.n)]
        covered = 0
        for k in range(max_k + 1):
            rows = compositions_array(k, g.n)
            want = [_covered(dist, row) for row in rows.tolist()]
            assert _accept_filter(g, k)(rows).tolist() == want
            covered += sum(want)
        assert covered


def test_reject_filter_depth_cap_only_adds_rows():
    """Once depth + k.bit_length() > 53 the reject filter, in float64,
    caps the depth at C = 53 - k.bit_length(), and a vertex at distance C
    or more from t through u weighs 1.  On path:15 (depth 14 through a
    neighbour) at k = 2^40, C = 12: of the single-pile rows 2^j on v
    (j <= 16) it keeps all 94 that are solvable (j at least v's
    eccentricity), and 6 more, 2^12 on vertices 0, 1, 13,
    14 and 2^13 on vertices 0 and 14.  One is 2^12 on the last vertex,
    whose potential toward vertex 1 in G - 0 is 2^12 / 2^13 = 1/2 < 2, so
    the uncapped test rejects it."""
    g = make_path(15)
    rows = np.array([[(1 << j) * (u == v) for u in range(15)]
                     for j in range(17) for v in range(15)], dtype=np.int64)
    eccentricity = [max(g.distances_from(v)) for v in range(15)]
    exact = [j >= eccentricity[v] for j in range(17) for v in range(15)]
    kept = _neighbour_screen(g, 2 ** 40)(rows).tolist()
    assert sum(exact) == 94
    assert all(kept[i] for i, sure in enumerate(exact) if sure)
    assert kept[12 * 15 + 14] and not exact[12 * 15 + 14]
    assert not _neighbour_reaches_all(g, [rows[12 * 15 + 14].tolist()])[0]
    assert sum(kept) == 100


def test_reject_filter_takes_float64_past_float32s_integers():
    """The reject filter runs in float32 only when depth + k.bit_length()
    <= 24.  On path:30 (depth 29), 16,383 pebbles on vertex 14 and 32,767
    on vertex 29 (k = 49,150) give vertex 1 a potential of 2 - 2^-28
    toward target 0 in G - 0, so the row is unsolvable.  Its weighted sum
    there, 16,383 * 2^15 + 32,767 = 2^29 - 1, rounds to the threshold 2^29
    in float32; only float64 holds it and rejects the row."""
    g = make_path(30)
    row = np.zeros((1, 30), dtype=np.int64)
    row[0, 14], row[0, 29] = 16383, 32767
    assert not _neighbour_reaches_all(g, row.tolist())[0]
    assert not _neighbour_screen(g, int(row.sum()))(row)[0]


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_reject_filter_matches_its_definition_on_both_sides_of_float32(family):
    """On path:21 and cycle:21 (depth 20 through a neighbour) the reject
    filter runs in float32 at k = 15 (20 + 4 = 24) and in float64 at
    k = 16.  Rows near the optimal distribution of size 14 (3 pebbles
    moved at random, then 1 or 2 added) get the per-row definition's
    verdict on both sides, and both verdicts occur."""
    g = make_path(21) if family == "path" else make_cycle(21)
    rng = random.Random(family)
    for added in (1, 2):
        rows = []
        for _ in range(400):
            row = list(construct_optimal_distribution(family, 21).counts)
            for _ in range(3):
                row[rng.choice([v for v, c in enumerate(row) if c])] -= 1
                row[rng.randrange(21)] += 1
            for _ in range(added):
                row[rng.randrange(21)] += 1
            rows.append(row)
        want = _neighbour_reaches_all(g, rows)
        assert 0 < sum(want) < len(rows)
        assert _neighbour_screen(g, 14 + added)(
            np.array(rows, dtype=np.int16)).tolist() == want


def test_neighbour_screen_is_the_fold_on_paths_and_cycles():
    """On paths and cycles each component of G - t is a chain rooted at
    its end, where the fold is floor(sum(c_i * 2^-i)), so the screen's mask
    is the fold's verdict on every row with k <= 8, on path:1..10,
    cycle:3..10 and a relabelled copy of each (369,400 rows)."""
    graphs = _paths_and_cycles(11)
    checked = 0
    for g in graphs:
        for k in range(9):
            rows = compositions_array(k, g.n)
            assert np.array_equal(_neighbour_screen(g, k)(rows),
                                  _fold_verdict(g)(rows))
            checked += rows.shape[0]
    assert checked == 369400


@pytest.mark.parametrize("g", [
    cartesian_product(make_path(2), make_path(3)),
    cartesian_product(make_cycle(4), make_path(2)),
    Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
    Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
    Graph(6, [(0, v) for v in range(1, 6)]),
], ids=["grid_2x3", "c4_x_p2", "k4", "triangle_with_pendant", "spider", "star6"])
def test_neighbour_screen_rejects_only_unsolvable_rows(g):
    """Off paths and cycles the screen is only sound: no row with at most
    6 pebbles that it rejects is solvable by `is_solvable`."""
    rejected = 0
    for k in range(7):
        rows = compositions_array(k, g.n)
        for row in rows[~_neighbour_screen(g, k)(rows)].tolist():
            assert not is_solvable(g, Distribution(row)), row
            rejected += 1
    assert rejected


def test_orbit_test_follows_structure():
    """The search for a solvable row takes its per-row orbit test from the
    graph's structure, for n <= 11: the path's predicate exactly on the
    canonically indexed path, the cycle's exactly on the canonically
    indexed cycle, and none on a relabelled copy that is neither (all but
    the n = 1, 2 paths and the 3-cycle) or in the search for an unsolvable
    row."""
    predicates = {"path": is_path_canonical, "cycle": is_cycle_canonical}
    graphs = _paths_and_cycles(12)
    assert sum(canonical_family(g) is None for g in graphs) == 17
    for g in graphs:
        assert (_LayerScanner(g, 20, None, True).canonical
                is predicates.get(canonical_family(g)))
        assert _LayerScanner(g, 20, None, False).canonical is None


def _digits(rows):
    """Rows with entries below 10 as decimal integers, lexicographic order
    kept."""
    return rows @ 10 ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


def _least_image(images):
    """Rows to their lexicographically least image under the column
    permutations `images` (rows related by one share a verdict)."""
    def canonical(rows):
        stack = np.stack([rows[:, p] for p in images])
        best = _digits(stack).argmin(axis=0)
        return stack[best, np.arange(rows.shape[0])]
    return canonical


def _star(n):
    return Graph(n, [(0, v) for v in range(1, n)])


def _fold_cases():
    """(graph, map of its rows to orbit representatives) on n <= 9."""
    rng = random.Random(7)
    for n in range(1, 10):
        ring = list(range(n))
        yield pytest.param(make_path(n), _least_image([ring, ring[::-1]]),
                           id=f"path{n}")
        if n >= 3:
            yield pytest.param(make_cycle(n), _least_image(
                [ring[s:] + ring[:s] for s in range(n)]
                + [ring[::-1][s:] + ring[::-1][:s] for s in range(n)]),
                id=f"cycle{n}")
        if n >= 4:
            yield pytest.param(_star(n), lambda rows: np.concatenate(
                [rows[:, :1], np.sort(rows[:, 1:], axis=1)], axis=1),
                id=f"star{n}")
        if 4 <= n <= 8:
            yield pytest.param(
                Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]), None,
                id=f"random_tree{n}")
    # caterpillar: spine 0-1-2, legs 3,4 on 0, 5,6 on 1 and 7,8 on 2
    legs = ([3, 4], [5, 6], [7, 8])
    yield pytest.param(
        Graph(9, [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)]),
        _least_image([[a, 1, c] + legs[a][::x] + legs[1][::y] + legs[c][::z]
                      for a, c in ((0, 2), (2, 0)) for x in (1, -1)
                      for y in (1, -1) for z in (1, -1)]),
        id="caterpillar9")


@pytest.mark.parametrize("g,canonical", _fold_cases())
def test_fold_verdict_matches_engine(g, canonical):
    """On trees and cycles the fold decides every row with at most 9
    pebbles exactly as `is_solvable` does, on g and on a relabelled copy.
    The engine is asked once per orbit: a row of the copy is read back on
    g's labels, and rows an automorphism of g relates share a verdict.
    The fold never writes its chunk: a read-only chunk gives the same mask
    as a writable copy, and that copy is unchanged afterwards."""
    canonical = canonical or (lambda rows: rows)
    copy = _relabelled(g, g.n)
    for k in range(10):
        rows = compositions_array(k, g.n)
        rows.flags.writeable = False
        writable = rows.copy()
        folded = np.concatenate([_fold_verdict(g)(rows), _fold_verdict(copy)(rows)])
        assert np.array_equal(_fold_verdict(g)(writable), folded[:len(rows)])
        assert np.array_equal(writable, rows)
        on_g = np.concatenate([rows, rows[:, _permutation(g.n, g.n)]])
        keys = canonical(on_g)
        _, first, which = np.unique(_digits(keys), return_index=True,
                                    return_inverse=True)
        verdicts = np.array([is_solvable(g, Distribution(row))
                             for row in keys[first].tolist()])
        wrong = np.flatnonzero(folded != verdicts[which])
        assert wrong.size == 0, on_g[wrong[0]].tolist()


@pytest.mark.parametrize("g", [
    cartesian_product(make_path(2), make_path(3)),
    Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
    Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    cartesian_product(make_cycle(4), make_path(2)),
], ids=["grid_2x3", "triangle_with_pendant", "k4", "c4_x_p2"])
def test_fold_only_accepts_where_some_g_minus_t_has_a_cycle(monkeypatch, g):
    """Where some G - t has a cycle the fold is not exact: the search for
    an unsolvable row asks the engine of rows, each one the accept filter
    leaves, and the search for a solvable row runs the same with the fold
    made to fail.  Every row with at most 7 pebbles that the fold accepts
    is solvable by `is_solvable`."""
    accepts = _fold_verdict(g)
    calls = _count_engine_calls(monkeypatch)
    pebbling_number(g)
    assert calls and not accepts(np.array([d.counts for d in calls])).any()
    expected = optimal_pebbling_number(g)

    def no_fold(_):
        raise AssertionError("the search for a solvable row built a fold")

    monkeypatch.setattr("pebbletools.invariants._fold_verdict", no_fold)
    assert optimal_pebbling_number(g) == expected
    for k in range(8):
        rows = compositions_array(k, g.n)
        for row in rows[accepts(rows)].tolist():
            assert is_solvable(g, Distribution(row)), row


def _count_engine_calls(monkeypatch):
    """The list of distributions that the searches ask
    `invariants.is_solvable` about from now on, in order."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return is_solvable(*args, **kwargs)

    monkeypatch.setattr("pebbletools.invariants.is_solvable", counting)
    return calls


def test_optimal_number_asks_the_engine_once_on_paths_and_cycles(monkeypatch):
    """On paths and cycles the neighbour screen keeps only solvable rows,
    so the engine is asked of exactly one row, the one returned: on
    path:1..10, cycle:3..10 and a relabelled copy of each, where the copies
    have no orbit test."""
    calls = _count_engine_calls(monkeypatch)
    for g in _paths_and_cycles(11):
        calls.clear()
        report = optimal_pebbling_number(g)
        assert calls == [report.witness], g


def test_pebbling_number_asks_no_engine_on_trees_and_cycles(monkeypatch):
    """On trees and cycles the accept filter is the verdict: the search
    for an unsolvable row asks the engine of no row, on path:1..6,
    cycle:3..6, a relabelled copy of each, two stars and two other trees."""
    calls = _count_engine_calls(monkeypatch)
    for g in [*_paths_and_cycles(7), _star(5), _star(8),
              Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
              Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5)])]:
        pebbling_number(g)
    assert calls == []


@pytest.mark.parametrize("g,engine_calls", [
    (make_path(6), 53),
    (make_cycle(6), 18),
    (_star(5), 6),
    (cartesian_product(make_path(2), make_path(3)), 50),
], ids=["path6", "cycle6", "star5", "grid_2x3"])
def test_screen_only_picks_rows(monkeypatch, g, engine_calls):
    """With the neighbour screen made to keep every row, the search for a
    solvable row returns the same value, witness and rows examined: the
    screen only spares the engine rows whose verdict is unsolvable."""
    expected = optimal_pebbling_number(g)
    monkeypatch.setattr(
        "pebbletools.invariants._neighbour_screen",
        lambda g, k: lambda chunk: np.ones(chunk.shape[0], dtype=bool))
    calls = _count_engine_calls(monkeypatch)
    assert optimal_pebbling_number(g) == expected
    assert len(calls) == engine_calls


def _fold_graphs(trees_only=False):
    for case in _fold_cases():
        g = case.values[0]
        if not trees_only or g.edge_count == g.n - 1:
            yield pytest.param(g, id=case.id)


@pytest.mark.parametrize("g", _fold_graphs())
def test_fold_on_ints_equals_fold_on_columns(g):
    """The engine's fold gives the same value at every target on a tuple
    of ints as on the columns of a chunk, for every row with k <= 6."""
    schedule = _fold_schedule(g)
    for k in range(7):
        rows = compositions_array(k, g.n)
        tuples = list(map(tuple, rows.tolist()))
        for t in range(g.n):
            assert _fold(rows.T, t, schedule).tolist() \
                == [_fold(row, t, schedule) for row in tuples]


@pytest.mark.parametrize("g", _fold_graphs(trees_only=True))
def test_fold_is_max_pebbles_to_on_trees(g):
    """On a tree the fold at t is the most pebbles moves can put on t, for
    every row with k <= 6 and every target."""
    schedule = _fold_schedule(g)
    for k in range(7):
        for row in compositions_array(k, g.n).tolist():
            d = Distribution(row)
            assert [_fold(row, t, schedule) for t in range(g.n)] \
                == [max_pebbles_to(g, d, t) for t in range(g.n)], row


# ---------------------------------------------------------------------------
# closed forms


def test_formula_values():
    for n, want in PATH_VALUES.items():
        assert formula_fopt("path", n) == want
    for n, want in CYCLE_VALUES.items():
        assert formula_fopt("cycle", n) == want
    with pytest.raises(ValueError):
        formula_fopt("cycle", 2)


# ---------------------------------------------------------------------------
# constructions


def test_construction_frozen_examples():
    assert construct_optimal_distribution("path", 5).counts == (0, 2, 0, 1, 1)
    assert construct_optimal_distribution("path", 6).counts == (0, 2, 0, 0, 2, 0)
    assert construct_optimal_distribution("cycle", 7).counts \
        == (0, 2, 0, 0, 2, 0, 1)
    assert construct_optimal_distribution("path", 1).counts == (1,)
    assert construct_optimal_distribution("path", 2).counts == (1, 1)


def test_construction_sizes_match_formula():
    for n in range(1, 31):
        assert construct_optimal_distribution("path", n).size \
            == formula_fopt("path", n)
    for n in range(3, 31):
        assert construct_optimal_distribution("cycle", n).size \
            == formula_fopt("cycle", n)


def test_constructions_refuse_bad_orders():
    with pytest.raises(ValueError) as info:
        construct_optimal_distribution("cycle", 2)
    assert str(info.value) == "cycle needs at least 3 vertices, got 2"
    # the closed form and the construction share the one order check
    for closed_form in (formula_fopt, construct_optimal_distribution):
        with pytest.raises(ValueError) as info:
            closed_form("path", 0)
        assert str(info.value) == "path needs at least 1 vertex, got 0"
    # no list can index an order over sys.maxsize
    for family in ("path", "cycle"):
        with pytest.raises(SizeLimitError) as info:
            construct_optimal_distribution(family, sys.maxsize + 1)
        assert str(info.value) == (f"{sys.maxsize + 1} vertices exceeds cap "
                                   f"{sys.maxsize}")


def test_constructions_solvable_small():
    for n in range(1, 13):
        g = make_path(n)
        assert is_solvable(g, construct_optimal_distribution("path", n))
    for n in range(3, 13):
        g = make_cycle(n)
        assert is_solvable(g, construct_optimal_distribution("cycle", n))


# ---------------------------------------------------------------------------
# optimal pebbling number by brute force


def test_optimal_number_small_paths_and_cycles():
    for n in range(1, 9):
        report = optimal_pebbling_number(make_path(n))
        assert report.value == PATH_VALUES[n]
        assert report.witness.size == report.value
        assert is_solvable(make_path(n), report.witness)
    for n in range(3, 9):
        report = optimal_pebbling_number(make_cycle(n))
        assert report.value == CYCLE_VALUES[n]
        assert is_solvable(make_cycle(n), report.witness)


def test_optimal_number_frozen_witnesses():
    assert optimal_pebbling_number(make_cycle(4)).witness.counts == (0, 1, 0, 2)
    assert optimal_pebbling_number(make_path(5)).witness.counts == (0, 0, 4, 0, 0)
    assert optimal_pebbling_number(make_path(6)).witness.counts == (0, 2, 0, 0, 2, 0)


# (family, n, value, witness, distributions examined) of f_opt on path:1..15
# and cycle:3..15; the screen, the verdict and the orbit test must keep them
PINNED_REPORTS = [
    ("path", 1, 1, "1", 1),
    ("path", 2, 2, "1,1", 5),
    ("path", 3, 2, "0,2,0", 9),
    ("path", 4, 3, "0,1,2,0", 34),
    ("path", 5, 4, "0,0,4,0,0", 125),
    ("path", 6, 4, "0,2,0,0,2,0", 209),
    ("path", 7, 5, "0,1,2,0,0,2,0", 791),
    ("path", 8, 6, "0,1,2,0,0,2,1,0", 3002),
    ("path", 9, 6, "0,2,0,0,2,0,0,2,0", 5004),
    ("path", 10, 7, "0,1,2,0,0,2,0,0,2,0", 19447),
    ("path", 11, 8, "0,1,2,0,0,2,0,0,2,1,0", 75581),
    ("path", 12, 8, "0,2,0,0,2,0,0,2,0,0,2,0", 115923),
    ("path", 13, 9, "0,1,2,0,0,2,0,0,2,0,0,2,0", 400097),
    ("path", 14, 10, "0,1,2,0,0,2,0,0,2,0,0,2,1,0", 1341477),
    ("path", 15, 10, "0,2,0,0,2,0,0,2,0,0,2,0,0,2,0", 2290543),
    ("cycle", 3, 2, "0,0,2", 9),
    ("cycle", 4, 3, "0,1,0,2", 34),
    ("cycle", 5, 4, "0,0,1,2,1", 125),
    ("cycle", 6, 4, "0,0,2,0,0,2", 209),
    ("cycle", 7, 5, "0,0,1,2,0,0,2", 791),
    ("cycle", 8, 6, "0,0,1,2,0,0,2,1", 3002),
    ("cycle", 9, 6, "0,0,2,0,0,2,0,0,2", 5004),
    ("cycle", 10, 7, "0,0,1,2,0,0,2,0,0,2", 19447),
    ("cycle", 11, 8, "0,0,1,2,0,0,2,0,0,2,1", 75581),
    ("cycle", 12, 8, "0,0,2,0,0,2,0,0,2,0,0,2", 125969),
    ("cycle", 13, 9, "0,0,1,2,0,0,2,0,0,2,0,0,2", 465633),
    ("cycle", 14, 10, "0,0,1,2,0,0,2,0,0,2,0,0,2,1", 1734693),
    ("cycle", 15, 10, "0,0,2,0,0,2,0,0,2,0,0,2,0,0,2", 3076975),
]


@pytest.mark.parametrize("family,n,value,witness,examined", PINNED_REPORTS,
                         ids=[f"{f}:{n}" for f, n, *_ in PINNED_REPORTS])
def test_optimal_number_pinned_reports(family, n, value, witness, examined):
    g = make_path(n) if family == "path" else make_cycle(n)
    report = optimal_pebbling_number(g)
    assert (report.value, report.witness.format(),
            report.distributions_examined) == (value, witness, examined)


def test_optimal_number_asks_the_cycle_orbit_test(monkeypatch):
    """The search reads the orbit predicate from `invariants` when it starts,
    so a wrapper put there sees every call."""
    expected = optimal_pebbling_number(make_cycle(8))
    calls = []

    def counting(counts):
        calls.append(counts)
        return is_cycle_canonical(counts)

    monkeypatch.setattr("pebbletools.invariants.is_cycle_canonical", counting)
    assert optimal_pebbling_number(make_cycle(8)) == expected
    assert calls


@pytest.mark.parametrize("search,g,value", [
    (optimal_pebbling_number, make_path(9), 6),
    (pebbling_number, make_cycle(5), 5),
], ids=["fopt-path:9", "pi-cycle:5"])
def test_scanner_builds_each_layer_from_the_last(monkeypatch, search, g, value):
    """Both searches make one `compositions_array` call per layer, through
    `invariants`, and every call after the first passes the layer the call
    before it returned."""
    expected = search(g)
    calls, built = [], []

    def recording(total, length, previous=None):
        calls.append((total, length, previous))
        built.append(compositions_array(total, length, previous))
        return built[-1]

    monkeypatch.setattr("pebbletools.invariants.compositions_array", recording)
    assert search(g) == expected
    assert expected.value == value
    assert [(total, length) for total, length, _ in calls] \
        == [(k, g.n) for k in range(1, value + 1)]
    assert calls[0][2] is None
    assert all(previous is built[i] for i, (*_, previous) in enumerate(calls[1:]))


def test_optimal_number_deterministic():
    a = optimal_pebbling_number(make_cycle(7))
    b = optimal_pebbling_number(make_cycle(7))
    assert a == b


def test_optimal_number_symmetry_off_agrees_on_value():
    # a relabelled copy is not canonically indexed, so no orbit is skipped
    for g in (make_path(6), make_cycle(6)):
        perm = [3, 0, 4, 1, 5, 2]
        copy = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        with_sym = optimal_pebbling_number(g)
        without = optimal_pebbling_number(copy)
        assert with_sym.value == without.value
        assert is_solvable(copy, without.witness)


def test_optimal_number_orbit_filter_follows_structure():
    # a raw C5 indexed like make_cycle gets the same orbit filter
    raw_c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert optimal_pebbling_number(raw_c5) == optimal_pebbling_number(make_cycle(5))


def test_optimal_number_ignores_misleading_label():
    # a star with a path's vertex and edge counts, which a label once could
    # have called "path:3", must not be searched with path symmetry
    star = Graph(3, [(0, 1), (0, 2)])
    assert _LayerScanner(star, 20, None, True).canonical is None
    report = optimal_pebbling_number(star)
    assert report.value == 2
    assert is_solvable(star, report.witness)


@pytest.mark.parametrize("g,value,witness,examined,engine_calls", [
    (cartesian_product(make_path(4), make_path(4)), 7,
     "1,0,0,0,0,0,0,2,0,4,0,0,0,0,0,0", 140148, 32),
    (cartesian_product(make_cycle(4), make_cycle(4)), 6,
     "0,0,4,0,2,0,0,0,0,0,0,0,0,0,0,0", 74612, 2),
    (cartesian_product(make_cycle(3), make_path(3)), 4, "0,4,0,0,0,0,0,0,0", 714, 2),
], ids=["P4xP4", "C4xC4", "C3xP3"])
def test_optimal_number_pinned_engine_graphs(monkeypatch, g, value, witness,
                                             examined, engine_calls):
    """Neither trees nor cycles: the engine decides every row the
    neighbour screen keeps, and it keeps few (P4xP4 asked the engine of
    1,777 rows under the potential screen, C4xC4 of 4,158, C3xP3 of 8)."""
    calls = _count_engine_calls(monkeypatch)
    report = optimal_pebbling_number(g)
    assert (report.value, report.witness.format(), report.distributions_examined) \
        == (value, witness, examined)
    assert len(calls) == engine_calls


def test_optimal_number_budget_mid_layer_path_12():
    # the budget runs out inside layer 8, charged a whole chunk at a time
    with pytest.raises(BudgetError) as info:
        optimal_pebbling_number(make_path(12), max_distributions=70000)
    assert (info.value.examined, info.value.lower_bound) == (115923, 8)
    assert info.value.upper_bound == 8  # ceil(2 * 12 / 3)


def test_budget_stop_builds_no_layer_it_cannot_charge(monkeypatch):
    # layer 8 of path:12 has 75,582 rows; its first chunk of 65,536 passes
    # the budget of 70,000, so the stop comes before the layer is built
    built = []

    def recording(total, length, previous=None):
        built.append(total)
        return compositions_array(total, length, previous)

    monkeypatch.setattr("pebbletools.invariants.compositions_array", recording)
    with pytest.raises(BudgetError) as info:
        optimal_pebbling_number(make_path(12), max_distributions=70000)
    assert (info.value.examined, info.value.lower_bound,
            info.value.upper_bound) == (115923, 8, 8)
    assert built == [1, 2, 3, 4, 5, 6, 7]


def test_optimal_number_pinned_star_70():
    # more than 64 vertices: the neighbour screen, one slot per neighbour
    # of the centre, screens the star's rows and the engine decides each
    # row it keeps (the accept filter, whose cover packs the 70 targets
    # into 9 bytes per row, serves only pebbling_number's scan)
    report = optimal_pebbling_number(STAR_70, max_vertices=70)
    assert (report.value, report.distributions_examined) == (2, 2555)
    assert is_solvable(STAR_70, report.witness, max_vertices=70)


def test_optimal_number_budget_path_56():
    # G - 0 is a 55-vertex path rooted at vertex 1, of depth 54: from layer
    # 1 on the neighbour screen caps its depth at 52 - k.bit_length() < 54,
    # which only adds rows, so the stop and its counts stay
    with pytest.raises(BudgetError) as info:
        optimal_pebbling_number(make_path(56), max_vertices=56,
                                max_distributions=2000)
    assert (info.value.examined, info.value.lower_bound,
            info.value.upper_bound) == (32508, 3, 38)


def test_optimal_number_rejects_disconnected():
    with pytest.raises(ValueError):
        optimal_pebbling_number(Graph(4, [(0, 1), (2, 3)]))


def test_optimal_number_budget():
    with pytest.raises(BudgetError) as info:
        optimal_pebbling_number(make_cycle(6), max_distributions=5)
    assert info.value.examined >= 5
    assert info.value.lower_bound >= 1
    assert info.value.upper_bound == 4


def test_optimal_number_vertex_cap():
    with pytest.raises(SizeLimitError):
        optimal_pebbling_number(make_path(21))


# ---------------------------------------------------------------------------
# classical pebbling number


def test_pebbling_number_values_and_witnesses():
    cases = [
        (make_path(2), 2, (1, 0)),
        (make_path(3), 4, (3, 0, 0)),
        (make_cycle(4), 4, (3, 0, 0, 0)),
    ]
    for g, value, witness in cases:
        report = pebbling_number(g)
        assert report.kind == "pebbling"
        assert report.value == value
        assert report.witness.counts == witness
        assert report.witness.size == value - 1
        assert not is_solvable(g, report.witness)


def test_pebbling_number_pinned_cycle_7():
    report = pebbling_number(make_cycle(7))
    assert (report.value, report.witness.format(), report.distributions_examined) \
        == (11, "5,5,0,0,0,0,0", 31823)


def test_pebbling_number_pinned_path_6():
    report = pebbling_number(make_path(6))
    assert (report.value, report.witness.format(), report.distributions_examined) \
        == (32, "31,0,0,0,0,0", 1387022)


def test_pebbling_number_pinned_grid_2x3():
    # not a tree or a cycle: the engine decides the rows the fold leaves
    report = pebbling_number(cartesian_product(make_path(2), make_path(3)))
    assert (report.value, report.witness.format(), report.distributions_examined) \
        == (8, "7,0,0,0,0,0", 3002)


# (graph, pi, witness, rows examined), captured before the fold accepted
# rows on graphs other than trees and cycles (the 2 x 3 grid is pinned
# above); the accept drops only solvable rows, so none of them may move
PINNED_PI_REPORTS = [
    ("c3_x_p2", cartesian_product(make_cycle(3), make_path(2)),
     6, "1,1,1,1,1,0", 923),
    ("c4_x_p2", cartesian_product(make_cycle(4), make_path(2)),
     8, "7,0,0,0,0,0,0,0", 12869),
    ("grid_2x4", cartesian_product(make_path(2), make_path(4)),
     16, "15,0,0,0,0,0,0,0", 567734),
    ("k4", Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
     4, "1,1,1,0", 69),
    ("triangle_with_pendant", Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
     5, "3,1,0,0", 125),
]


@pytest.mark.parametrize("g,value,witness,examined",
                         [case[1:] for case in PINNED_PI_REPORTS],
                         ids=[case[0] for case in PINNED_PI_REPORTS])
def test_pebbling_number_pinned_reports(g, value, witness, examined):
    report = pebbling_number(g)
    assert (report.value, report.witness.format(),
            report.distributions_examined) == (value, witness, examined)


def test_pebbling_number_asks_the_engine_past_the_fold(monkeypatch):
    """On the 2 x 3 grid the engine decides only the rows that neither the
    cover screen nor the fold accepts: a counting wrapper on
    `invariants.is_solvable` sees at most 9 calls (the cover screen alone
    leaves 267), and the report does not change."""
    g = cartesian_product(make_path(2), make_path(3))
    expected = pebbling_number(g)
    calls = _count_engine_calls(monkeypatch)
    assert pebbling_number(g) == expected
    assert len(calls) <= 9


@pytest.mark.parametrize("g", [
    Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
    cartesian_product(make_path(2), make_path(3)),
    _relabelled(cartesian_product(make_path(2), make_path(3)), 7),
], ids=["k4", "triangle_with_pendant", "grid_2x3", "grid_2x3_relabelled"])
def test_searches_match_row_by_row_reference(g):
    """Both searches on graphs without an exact fold or an orbit test equal
    a scan that asks `is_solvable` of every row in colex order: the f_opt
    witness is the first solvable row of the first layer that has one, the
    pi witness the first unsolvable row of layer pi - 1, and layer pi has
    no unsolvable row."""
    def rows(k):
        return [Distribution(row) for row in compositions_array(k, g.n).tolist()]

    fopt = optimal_pebbling_number(g)
    for k in range(1, fopt.value):
        assert not any(is_solvable(g, d) for d in rows(k))
    assert fopt.witness == next(d for d in rows(fopt.value) if is_solvable(g, d))

    pi = pebbling_number(g)
    assert pi.witness == next(d for d in rows(pi.value - 1) if not is_solvable(g, d))
    assert all(is_solvable(g, d) for d in rows(pi.value))


def test_pebbling_number_trivial_graph():
    report = pebbling_number(make_path(1))
    assert report.value == 1
    assert report.witness.counts == (0,)


def test_pebbling_number_value_cap():
    # pi(P3) = 4: every layer up to the cap held an unsolvable row, so the
    # stop proves pi >= 4; the upper bound is (3 - 1)(2^2 - 1) + 1 = 7
    with pytest.raises(BudgetError) as info:
        pebbling_number(make_path(3), max_value=3)
    assert str(info.value) == "pebbling number exceeds cap 3"
    assert (info.value.lower_bound, info.value.upper_bound,
            info.value.examined) == (4, 7, 19)


def test_pebbling_number_vertex_cap():
    with pytest.raises(SizeLimitError):
        pebbling_number(make_path(9))


# ---------------------------------------------------------------------------
# products


def test_product_distribution_counts_multiply():
    dg = construct_optimal_distribution("path", 3)
    dh = construct_optimal_distribution("path", 3)
    prod = product_distribution(dg, dh)
    assert prod.counts == (0, 0, 0, 0, 4, 0, 0, 0, 0)
    assert prod.size == dg.size * dh.size


def test_graham_check_tight_and_strict():
    tight = graham_optimal_check(make_path(3), make_path(3))
    assert (tight.fopt_g, tight.fopt_h, tight.fopt_product) == (2, 2, 4)
    assert tight.holds and tight.tight
    assert tight.bound == 4

    strict = graham_optimal_check(make_path(2), make_path(2))
    assert strict.fopt_product == 3
    assert strict.holds and not strict.tight

    edge = graham_optimal_check(make_path(1), make_cycle(3))
    assert edge.fopt_product == 2
    assert edge.holds and edge.tight

    for check in (tight, strict, edge):
        for report in (check.report_g, check.report_h, check.report_product):
            assert report.value <= -(-2 * len(report.witness) // 3)


def test_graham_budget_names_the_search_that_stopped():
    """The product search stops: its bounds, and all the rows examined."""
    with pytest.raises(BudgetError) as info:
        graham_optimal_check(make_path(3), make_path(3), max_distributions=200)
    assert str(info.value) == "f_opt(G x H): distribution budget 200 exhausted"
    assert (info.value.lower_bound, info.value.upper_bound,
            info.value.examined) == (3, 6, 237)
    # The first factor stops: C4's bounds.
    with pytest.raises(BudgetError) as info:
        graham_optimal_check(make_cycle(4), make_path(3), max_distributions=20)
    assert str(info.value) == "f_opt(G): distribution budget 20 exhausted"
    assert (info.value.lower_bound, info.value.upper_bound,
            info.value.examined) == (3, 3, 34)


def test_graham_check_product_cap():
    with pytest.raises(SizeLimitError):
        graham_optimal_check(make_cycle(5), make_cycle(5))
