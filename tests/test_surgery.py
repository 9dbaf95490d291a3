"""Tests for distribution surgeries and their preservation guarantees.

The preservation sweeps here pin down what the operations guarantee:
singleton removal, the path block collapse and both cycle surgeries keep
every solvable input in the small-case domain solvable, and each removes at
least 2/3 of a pebble per deleted vertex.  The collapse refuses exactly one
input there, path:3 [0, 2, 0], where no such rewrite can stay solvable.
"""

import itertools

import pytest

from pebbletools import (
    Distribution,
    Graph,
    NotApplicableError,
    cartesian_product,
    collapse_two_pebble_block_path,
    compositions_array,
    cycle_reduce_big_pile,
    cycle_remove_202_or_220,
    is_solvable,
    make_cycle,
    make_path,
    max_pebbles_to,
    remove_singleton,
    try_reduce,
)


def solvable_distributions(g, max_size):
    for size in range(1, max_size + 1):
        for counts in compositions_array(size, g.n).tolist():
            d = Distribution(counts)
            if is_solvable(g, d):
                yield d


# ---------------------------------------------------------------------------
# remove_singleton


def test_singleton_interior_path():
    res = remove_singleton(make_path(3), Distribution((2, 1, 0)), 1)
    assert res.rule == "remove_singleton"
    assert res.graph_after.n == 2
    assert res.dist_after.counts == (2, 0)
    assert res.index_map == {0: 0, 2: 1}
    assert res.pebbles_removed_net == 1


def test_singleton_path_endpoint():
    res = remove_singleton(make_path(4), Distribution((0, 1, 2, 1)), 3)
    assert res.dist_after.counts == (0, 1, 2)


def test_singleton_cycle():
    res = remove_singleton(make_cycle(4), Distribution((1, 2, 0, 2)), 0)
    assert res.dist_after.counts == (2, 0, 2)
    assert res.index_map == {1: 0, 2: 1, 3: 2}


def test_singleton_requires_exactly_one():
    with pytest.raises(NotApplicableError):
        remove_singleton(make_path(3), Distribution((2, 2, 0)), 1)
    with pytest.raises(NotApplicableError):
        remove_singleton(make_path(3), Distribution((2, 0, 0)), 1)


def test_singleton_rejects_vertex_out_of_range():
    with pytest.raises(ValueError) as info:
        remove_singleton(make_path(3), Distribution((1, 0, 0)), 7)
    assert str(info.value) == "vertex 7 out of range for 3 vertices"


def test_singleton_rejects_triangle():
    with pytest.raises(NotApplicableError):
        remove_singleton(make_cycle(3), Distribution((1, 2, 2)), 0)


def test_singleton_requires_path_or_cycle():
    grid = cartesian_product(make_path(2), make_path(3))
    with pytest.raises(ValueError) as info:
        remove_singleton(grid, Distribution((1, 0, 0, 0, 0, 2)), 0)
    assert str(info.value) == "requires a canonically indexed path or cycle"


@pytest.mark.parametrize("rule,graph,counts,args,message", [
    (remove_singleton, make_path(1), (1,), (0,),
     "deleting 1 of the 1 vertices of a path leaves 0; "
     "a path needs at least 1"),
    (collapse_two_pebble_block_path, make_path(3), (0, 2, 0), (),
     "deleting 3 of the 3 vertices of a path leaves 0; "
     "a path needs at least 1"),
    (remove_singleton, make_cycle(3), (1, 2, 2), (0,),
     "deleting 1 of the 3 vertices of a cycle leaves 2; "
     "a cycle needs at least 3"),
    (cycle_remove_202_or_220, make_cycle(4), (2, 2, 0, 2), (),
     "deleting 2 of the 4 vertices of a cycle leaves 2; "
     "a cycle needs at least 3"),
    (cycle_reduce_big_pile, make_cycle(3), (3, 2, 2), (),
     "deleting 1 of the 3 vertices of a cycle leaves 2; "
     "a cycle needs at least 3"),
], ids=["singleton-path", "collapse-path", "singleton-cycle",
        "window-cycle", "big-pile-cycle"])
def test_every_rule_keeps_its_family_floor(rule, graph, counts, args,
                                           message):
    with pytest.raises(NotApplicableError) as info:
        rule(graph, Distribution(counts), *args)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# path block collapse


def test_collapse_first_pile_no_compensation():
    res = collapse_two_pebble_block_path(make_path(4), Distribution((2, 0, 0, 2)))
    assert res.rule == "collapse_two_pebble_block_path"
    assert res.graph_after.n == 3
    assert res.dist_after.counts == (1, 0, 2)
    assert res.pebbles_removed_net == 1


def test_collapse_interior_pile_compensates_predecessor():
    res = collapse_two_pebble_block_path(make_path(5), Distribution((0, 4, 0, 0, 2)))
    assert res.dist_after.counts == (1, 2, 0, 2)
    assert res.pebbles_removed_net == 1


def test_collapse_scans_reverse_when_forward_fails():
    res = collapse_two_pebble_block_path(make_path(2), Distribution((0, 2)))
    assert res.graph_after.n == 1
    assert res.dist_after.counts == (1,)


def test_collapse_empty_predecessor_deletes_020_block():
    res = collapse_two_pebble_block_path(make_path(5), Distribution((0, 2, 0, 0, 2)))
    assert res.graph_after.n == 2
    assert res.dist_after.counts == (0, 2)
    assert res.index_map == {3: 0, 4: 1}
    assert res.pebbles_removed_net == 2


def test_collapse_rejects_singleton_pile():
    with pytest.raises(NotApplicableError):
        collapse_two_pebble_block_path(make_path(3), Distribution((1, 0, 2)))


def test_collapse_not_applicable_when_fully_occupied():
    with pytest.raises(NotApplicableError):
        collapse_two_pebble_block_path(make_path(3), Distribution((2, 2, 2)))


def test_collapse_requires_path():
    with pytest.raises(ValueError):
        collapse_two_pebble_block_path(make_cycle(4), Distribution((2, 0, 2, 0)))


# ---------------------------------------------------------------------------
# cycle window removal


def test_cycle_window_202():
    res = cycle_remove_202_or_220(make_cycle(6), Distribution((2, 0, 2, 0, 2, 0)))
    assert res.rule == "cycle_remove_202_or_220"
    assert res.graph_after.n == 4
    assert res.dist_after.counts == (2, 0, 2, 0)
    assert res.index_map == {0: 0, 3: 1, 4: 2, 5: 3}
    assert res.pebbles_removed_net == 2


def test_cycle_window_220():
    res = cycle_remove_202_or_220(make_cycle(5), Distribution((2, 2, 0, 2, 0)))
    assert res.dist_after.counts == (2, 2, 0)


def test_cycle_window_not_applicable_for_wide_gaps():
    with pytest.raises(NotApplicableError):
        cycle_remove_202_or_220(make_cycle(6), Distribution((2, 0, 0, 2, 0, 0)))


def test_cycle_window_requires_exactly_two_per_pile():
    with pytest.raises(NotApplicableError):
        cycle_remove_202_or_220(make_cycle(5), Distribution((3, 0, 2, 0, 0)))


def test_cycle_window_too_small_to_shrink():
    with pytest.raises(NotApplicableError):
        cycle_remove_202_or_220(make_cycle(4), Distribution((2, 2, 0, 2)))


@pytest.mark.parametrize("rule", [cycle_remove_202_or_220,
                                  cycle_reduce_big_pile])
def test_cycle_rules_require_cycle(rule):
    with pytest.raises(ValueError) as info:
        rule(make_path(4), Distribution((2, 0, 2, 0)))
    assert str(info.value) == "requires a canonically indexed cycle"


# ---------------------------------------------------------------------------
# cycle big pile


def test_big_pile_branch_a_unoccupied_neighbor():
    res = cycle_reduce_big_pile(make_cycle(5), Distribution((3, 0, 2, 0, 2)))
    assert res.branch == "a"
    assert res.dist_after.counts == (1, 2, 0, 3)
    assert res.pebbles_removed_net == 1


def test_big_pile_branch_b_exact_three():
    res = cycle_reduce_big_pile(make_cycle(4), Distribution((3, 1, 2, 1)))
    assert res.branch == "b"
    assert res.dist_after.counts == (2, 2, 2)


def test_big_pile_branch_c_routes_toward_nearest_gap():
    res = cycle_reduce_big_pile(make_cycle(6), Distribution((4, 1, 0, 2, 0, 1)))
    assert res.branch == "c"
    assert res.dist_after.counts == (1, 1, 2, 0, 3)


def test_big_pile_not_applicable_without_pile():
    with pytest.raises(NotApplicableError):
        cycle_reduce_big_pile(make_cycle(4), Distribution((2, 2, 0, 2)))


def test_big_pile_branch_c_all_occupied():
    with pytest.raises(NotApplicableError):
        cycle_reduce_big_pile(make_cycle(4), Distribution((4, 2, 2, 2)))


def test_big_pile_triangle_structure_error():
    with pytest.raises(NotApplicableError):
        cycle_reduce_big_pile(make_cycle(3), Distribution((3, 2, 2)))


# ---------------------------------------------------------------------------
# dispatch


def test_try_reduce_prefers_singleton():
    res = try_reduce(make_cycle(4), Distribution((3, 1, 2, 1)))
    assert res.rule == "remove_singleton"
    assert res.dist_after.counts == (3, 2, 1)


def test_try_reduce_path_falls_through_to_collapse():
    res = try_reduce(make_path(3), Distribution((2, 0, 2)))
    assert res.rule == "collapse_two_pebble_block_path"


def test_try_reduce_cycle_falls_through_to_big_pile():
    res = try_reduce(make_cycle(5), Distribution((3, 0, 2, 0, 2)))
    assert res.rule == "cycle_reduce_big_pile"


def test_try_reduce_nothing_applies():
    with pytest.raises(NotApplicableError):
        try_reduce(make_path(2), Distribution((2, 2)))


def test_try_reduce_requires_path_or_cycle():
    grid = cartesian_product(make_path(2), make_path(3))
    relabelled_path = Graph(3, [(0, 2), (2, 1)])
    for g in (grid, relabelled_path):
        with pytest.raises(ValueError) as info:
            try_reduce(g, Distribution((1,) * g.n))
        assert str(info.value) == "requires a canonically indexed path or cycle"


@pytest.mark.parametrize("rule,graph,args", [
    (try_reduce, make_path(4), ()),
    (try_reduce, make_cycle(4), ()),
    (remove_singleton, make_path(4), (0,)),
    (collapse_two_pebble_block_path, make_path(4), ()),
    (cycle_remove_202_or_220, make_cycle(4), ()),
    (cycle_reduce_big_pile, make_cycle(4), ()),
], ids=["try_reduce-path", "try_reduce-cycle", "remove_singleton",
        "collapse_two_pebble_block_path", "cycle_remove_202_or_220",
        "cycle_reduce_big_pile"])
def test_every_rule_checks_the_length(rule, graph, args):
    with pytest.raises(ValueError) as info:
        rule(graph, Distribution((1, 3)), *args)
    assert str(info.value) == "distribution has 2 entries, graph has 4 vertices"


# ---------------------------------------------------------------------------
# guarantees: size accounting and index maps


def test_size_accounting_matches_reported_net():
    """Every rule reports its net, removes at least 2/3 of a pebble per
    deleted vertex, and leaves the input's family on the survivors,
    numbered 0..m-1 in their old order."""
    for make, rules in [
        (make_path, [collapse_two_pebble_block_path]),
        (make_cycle, [cycle_remove_202_or_220, cycle_reduce_big_pile]),
    ]:
        g = make(5)
        for d in solvable_distributions(g, 6):
            calls = [(op, ()) for op in rules] + [
                (remove_singleton, (v,)) for v in range(g.n) if d[v] == 1]
            for op, args in calls:
                try:
                    res = op(g, d, *args)
                except NotApplicableError:
                    continue
                net = res.pebbles_removed_net
                assert d.size - res.dist_after.size == net
                assert net >= 1
                assert 3 * net >= 2 * (g.n - res.graph_after.n)
                m = res.graph_after.n
                assert res.graph_after == make(m)
                survivors = sorted(res.index_map)
                assert [res.index_map[v] for v in survivors] == list(range(m))


def test_index_map_preserves_untouched_counts():
    g = make_cycle(6)
    d = Distribution((0, 1, 0, 2, 4, 0))
    res = remove_singleton(g, d, 1)
    for old, new in res.index_map.items():
        assert res.dist_after[new] == d[old]


# ---------------------------------------------------------------------------
# guarantees: solvability preservation where it actually holds


def test_singleton_removal_preserves_solvability():
    failures = []
    for make, lo in ((make_path, 2), (make_cycle, 3)):
        for n in range(lo, 7):
            g = make(n)
            for d in solvable_distributions(g, 6):
                for v in range(n):
                    if d[v] != 1:
                        continue
                    try:
                        res = remove_singleton(g, d, v)
                    except NotApplicableError:
                        continue
                    if not is_solvable(res.graph_after, res.dist_after):
                        failures.append((n, d.counts, v))
    assert failures == []


def test_cycle_surgeries_preserve_solvability():
    failures = []
    for n in range(3, 7):
        g = make_cycle(n)
        for d in solvable_distributions(g, 6):
            for op in (cycle_remove_202_or_220, cycle_reduce_big_pile):
                try:
                    res = op(g, d)
                except NotApplicableError:
                    continue
                if not is_solvable(res.graph_after, res.dist_after):
                    failures.append((op.__name__, n, d.counts))
    assert failures == []


def test_collapse_preservation_exceptions_characterized():
    """The block collapse keeps every solvable small input solvable; the
    only input it refuses is path:3 [0, 2, 0], whose block is the whole
    path."""
    failures = set()
    refused = set()
    for n in range(2, 5):
        g = make_path(n)
        for d in solvable_distributions(g, 4):
            try:
                res = collapse_two_pebble_block_path(g, d)
            except NotApplicableError as exc:
                if "a path needs at least 1" in str(exc):
                    refused.add((n, d.counts))
                continue
            if not is_solvable(res.graph_after, res.dist_after):
                failures.add((n, d.counts))
    assert failures == set()
    assert refused == {(3, (0, 2, 0))}


def test_collapse_preserves_when_remaining_piles_cover():
    """When every vertex of the shrunken path still sits on or next to a
    pile of >= 2, the collapse output stays solvable."""
    for n in range(2, 7):
        g = make_path(n)
        for d in solvable_distributions(g, 6):
            try:
                res = collapse_two_pebble_block_path(g, d)
            except NotApplicableError:
                continue
            after = res.dist_after
            ga = res.graph_after
            covered = all(
                after[v] > 0 or any(after[u] >= 2 for u in ga.neighbors(v))
                for v in range(ga.n))
            if covered:
                assert is_solvable(ga, after)


# ---------------------------------------------------------------------------
# supporting transport facts


def test_singleton_keeps_left_transport_past_removed_vertex():
    """Removing an interior 1-pebble vertex keeps at least floor((a+1)/2)
    pebbles deliverable to the next vertex, where a is what the left side
    could previously push onto the removed vertex."""
    for n in range(4, 7):
        g = make_path(n)
        for size in range(1, 7):
            for counts in compositions_array(size, n).tolist():
                d = Distribution(counts)
                for i in range(1, n - 1):
                    if counts[i] != 1:
                        continue
                    prefix = Distribution(
                        tuple(c if v < i else 0 for v, c in enumerate(counts)))
                    a = max_pebbles_to(g, prefix, i)
                    res = remove_singleton(g, d, i)
                    prefix_after = Distribution(tuple(
                        res.dist_after[res.index_map[v]] if v < i else 0
                        for v in range(n) if v != i))
                    post = max_pebbles_to(res.graph_after, prefix_after,
                                          res.index_map[i + 1])
                    assert post >= (a + 1) // 2


def test_all_gaps_exactly_two_impossible_off_multiples_of_three():
    """With every pile exactly 2, gaps of exactly 2 everywhere force the
    cycle length to a multiple of 3, so lengths 3t+1 never exhibit it."""
    for n in (4, 7):
        for occupied in itertools.chain.from_iterable(
                itertools.combinations(range(n), m) for m in range(1, n + 1)):
            # the empty run after each pile, walking the cycle in index order
            m = len(occupied)
            gaps = [(occupied[(j + 1) % m] - occupied[j] - 1) % n
                    for j in range(m)]
            assert not all(gap == 2 for gap in gaps)
