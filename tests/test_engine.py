"""Tests for moves, replay, reachability, solvability, and transport.

The engine's verdicts are cross-checked against a deliberately naive
breadth-first reference implementation defined in this file, so the prune
logic in the engine is never trusted on its own word.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pebbletools import (
    BudgetError,
    Distribution,
    IllegalMoveError,
    Move,
    ReplayError,
    SizeLimitError,
    apply_move,
    is_reachable,
    is_solvable,
    make_cycle,
    make_path,
    max_pebbles_to,
    max_pebbles_to_path_greedy,
    replay,
)


# ---------------------------------------------------------------------------
# naive reference: plain BFS over count vectors, no pruning


def naive_reachable(g, counts, target):
    """Breadth-first search over raw distribution states."""
    if counts[target] > 0:
        return True
    seen = {tuple(counts)}
    frontier = [tuple(counts)]
    while frontier:
        nxt = []
        for state in frontier:
            for v in range(g.n):
                if state[v] < 2:
                    continue
                for u in g.neighbors(v):
                    child = list(state)
                    child[v] -= 2
                    child[u] += 1
                    if u == target:
                        return True
                    key = tuple(child)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
        frontier = nxt
    return False


def naive_max_to(g, counts, target):
    """Exhaustive search for the most pebbles placeable on target."""
    best = counts[target]
    seen = set()
    stack = [tuple(counts)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        best = max(best, state[target])
        for v in range(g.n):
            if state[v] < 2:
                continue
            for u in g.neighbors(v):
                child = list(state)
                child[v] -= 2
                child[u] += 1
                stack.append(tuple(child))
    return best


# ---------------------------------------------------------------------------
# Distribution


def test_distribution_basics():
    d = Distribution((0, 2, 1))
    assert d.size == 3
    assert len(d) == 3
    assert d[1] == 2
    assert list(d) == [0, 2, 1]


def test_distribution_rejects_negative():
    with pytest.raises(ValueError):
        Distribution((1, -1))


@pytest.mark.parametrize("counts,bad", [
    ((1.9, 0, 0), "1.9"),
    (("3", 0), "'3'"),
    ((1.5, 0.7), "1.5"),
])
def test_distribution_rejects_counts_that_are_not_integers(counts, bad):
    # these were truncated to (1, 0, 0), (3, 0) and (1, 0), so
    # is_solvable(make_path(2), Distribution((1.5, 0.7))) answered False
    with pytest.raises(ValueError, match=f"pebble count {re.escape(bad)} "):
        Distribution(counts)


def test_distribution_accepts_numpy_ints():
    d = Distribution(tuple(np.array([0, 2, 1], dtype=np.int16)))
    assert d.counts == (0, 2, 1)
    assert all(type(c) is int for c in d.counts)


def test_distribution_parse_and_format():
    d = Distribution.parse("0,2, 0")
    assert d.counts == (0, 2, 0)
    assert d.format() == "0,2,0"


def test_distribution_parse_garbage():
    with pytest.raises(ValueError):
        Distribution.parse("1,x,3")


def test_distribution_parse_negative_count():
    with pytest.raises(ValueError, match="'1,-2' is not a comma-separated "
                                         "list of integers"):
        Distribution.parse("1,-2")


# ---------------------------------------------------------------------------
# moves and replay


def test_apply_move_legal():
    g = make_path(3)
    d = apply_move(g, Distribution((2, 0, 0)), Move(0, 1))
    assert d.counts == (0, 1, 0)


def test_apply_move_needs_two_pebbles():
    with pytest.raises(IllegalMoveError):
        apply_move(make_path(3), Distribution((1, 0, 0)), Move(0, 1))


def test_apply_move_needs_adjacency():
    with pytest.raises(IllegalMoveError):
        apply_move(make_path(3), Distribution((2, 0, 0)), Move(0, 2))


def test_apply_move_range_check():
    with pytest.raises(ValueError):
        apply_move(make_path(3), Distribution((2, 0, 0)), Move(0, 9))


def test_replay_sequence():
    g = make_path(4)
    moves = (Move(0, 1), Move(0, 1), Move(1, 2))
    final = replay(g, Distribution((4, 0, 0, 0)), moves)
    assert final.counts == (0, 0, 1, 0)


def test_replay_reports_failing_step():
    g = make_path(4)
    moves = (Move(0, 1), Move(1, 2))  # second move: only 1 pebble on v1
    with pytest.raises(ReplayError) as info:
        replay(g, Distribution((2, 0, 0, 0)), moves)
    assert info.value.step == 1


# ---------------------------------------------------------------------------
# reachability


def test_reachable_occupied_target_is_trivial():
    report = is_reachable(make_path(3), Distribution((0, 1, 0)), 1)
    assert report.verdict is True
    assert report.witness == ()
    assert report.states_explored == 0


def test_reachable_single_move():
    report = is_reachable(make_path(3), Distribution((0, 2, 0)), 0)
    assert report.verdict is True
    assert report.witness == (Move(1, 0),)


def test_unreachable_far_target():
    report = is_reachable(make_path(3), Distribution((1, 0, 0)), 2)
    assert report.verdict is False
    assert report.witness is None


def test_reachable_witness_is_deterministic():
    g = make_path(4)
    d = Distribution((8, 0, 0, 0))
    first = is_reachable(g, d, 3)
    second = is_reachable(g, d, 3)
    assert first.witness == second.witness
    assert [str(m) for m in first.witness] == [
        "0->1", "0->1", "0->1", "0->1", "1->2", "1->2", "2->3"]


def test_witness_replays_onto_target():
    g = make_cycle(5)
    d = Distribution((0, 0, 1, 2, 1))
    for target in range(g.n):
        report = is_reachable(g, d, target)
        assert report.verdict is True
        final = replay(g, d, report.witness)
        assert final[target] >= 1


def test_reachability_caps():
    with pytest.raises(SizeLimitError):
        is_reachable(make_path(21), Distribution((1,) * 21), 0)
    is_reachable(make_path(21), Distribution((1,) * 21), 0, max_vertices=21)
    with pytest.raises(SizeLimitError):
        is_reachable(make_path(2), Distribution((65, 0)), 1)


def test_reachability_state_budget():
    g = make_path(6)
    d = Distribution((0, 0, 8, 8, 0, 0))
    with pytest.raises(BudgetError):
        is_reachable(g, d, 0, state_budget=1)


def test_reachability_length_mismatch():
    with pytest.raises(ValueError):
        is_reachable(make_path(3), Distribution((1, 0)), 0)


def test_reachability_checks_target_before_caps():
    # 100 pebbles is over the pebble cap too; the bad target is named first
    with pytest.raises(ValueError, match="target 7 out of range for 3 vertices"):
        is_reachable(make_path(3), Distribution((100, 0, 0)), 7)


# Pinned searches: a different verdict, witness or states_explored means the
# move order, the prune or the memo changed.
CEILING_CYCLE = (make_cycle(12),
                 Distribution((4, 2, 0, 0, 0, 0, 0, 4, 4, 4, 2, 3)), 4)
CEILING_PATH = (make_path(12),
                Distribution((4, 5, 1, 3, 7, 1, 0, 0, 3, 0, 0, 1)), 10)


@pytest.mark.parametrize("query, states", [(CEILING_CYCLE, 82258),
                                           (CEILING_PATH, 32286)])
def test_reachability_pinned_unreachable_state_counts(query, states):
    report = is_reachable(*query)
    assert (report.verdict, report.witness, report.states_explored) == (
        False, None, states)


def test_reachability_pinned_witness():
    report = is_reachable(make_cycle(7), Distribution((3, 0, 1, 0, 0, 2, 1)), 3)
    assert report.verdict is True
    assert report.states_explored == 7
    assert " ".join(str(m) for m in report.witness) == "0->1 5->6 6->0 0->1 1->2 2->3"


@pytest.mark.parametrize("budget", [0, 100])
def test_reachability_budget_counts_the_root(budget):
    """The root is the first state expanded, so a budget of b stops at b + 1."""
    with pytest.raises(BudgetError) as excinfo:
        is_reachable(*CEILING_CYCLE, state_budget=budget)
    assert excinfo.value.examined == budget + 1
    assert str(excinfo.value) == f"reachability search exceeded {budget} states"


def test_reachability_deep_witness_does_not_recurse():
    """2,047 moves carry 2,048 pebbles down path:12; no recursion limit."""
    g = make_path(12)
    d = Distribution((0,) * 11 + (2048,))
    report = is_reachable(g, d, 0, max_pebbles=4096)
    assert report.verdict is True and len(report.witness) == 2047
    assert replay(g, d, report.witness)[0] == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reachability_matches_naive_reference(data):
    """Property: engine verdict equals the unpruned BFS on small instances."""
    family = data.draw(st.sampled_from(["path", "cycle"]))
    n = data.draw(st.integers(min_value=3, max_value=6))
    g = make_path(n) if family == "path" else make_cycle(n)
    counts = tuple(data.draw(
        st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n,
                 ).filter(lambda c: sum(c) <= 8)))
    target = data.draw(st.integers(min_value=0, max_value=n - 1))
    report = is_reachable(g, Distribution(counts), target)
    assert report.verdict == naive_reachable(g, counts, target)
    if report.verdict and report.witness:
        final = replay(g, Distribution(counts), report.witness)
        assert final[target] >= 1


# ---------------------------------------------------------------------------
# solvability


def test_solvable_examples():
    assert is_solvable(make_cycle(7), Distribution((0, 2, 0, 0, 2, 0, 1)))
    assert not is_solvable(make_path(3), Distribution((1, 0, 0)))
    assert is_solvable(make_path(1), Distribution((1,)))
    assert not is_solvable(make_path(1), Distribution((0,)))


def test_solvable_cover_fast_path_scales():
    """A covering distribution is accepted without search, even on wide graphs."""
    n = 30
    counts = [0] * n
    for i in range(1, n, 3):
        counts[i] = 2
    if n % 3 != 0:
        counts[n - 1] = 2
    assert is_solvable(make_path(n), Distribution(tuple(counts)),
                       max_vertices=n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solvable_matches_per_target_reachability(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    g = make_path(n)
    counts = tuple(data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n,
                 ).filter(lambda c: sum(c) <= 7)))
    d = Distribution(counts)
    expected = all(naive_reachable(g, counts, t) for t in range(n))
    assert is_solvable(g, d) == expected


# ---------------------------------------------------------------------------
# transport (max pebbles deliverable to a target)


def test_max_pebbles_to_examples():
    g = make_path(3)
    assert max_pebbles_to(g, Distribution((4, 0, 1)), 2) == 2
    assert max_pebbles_to(g, Distribution((0, 0, 3)), 2) == 3
    assert max_pebbles_to(g, Distribution((1, 1, 0)), 2) == 0


def test_max_pebbles_to_deep_inputs():
    deep = Distribution((0,) * 11 + (2048,))
    assert max_pebbles_to(make_path(12), deep, 0, max_pebbles=4096) == 1
    g, d = make_path(2), Distribution((0, 600))
    assert max_pebbles_to(g, d, 0, max_pebbles=600) == 300
    assert max_pebbles_to_path_greedy(g, d, 0) == 300


def test_greedy_transport_frozen_examples():
    g = make_path(5)
    d = Distribution((2, 0, 2, 0, 1))
    assert max_pebbles_to_path_greedy(g, d, 4) == 1
    assert max_pebbles_to_path_greedy(g, d, 2) == 2
    assert max_pebbles_to_path_greedy(g, d, 0) == 2


def test_greedy_requires_canonical_path():
    with pytest.raises(ValueError):
        max_pebbles_to_path_greedy(make_cycle(4), Distribution((2, 0, 0, 0)), 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_greedy_equals_generic_transport(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    g = make_path(n)
    counts = tuple(data.draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n,
                 ).filter(lambda c: sum(c) <= 8)))
    target = data.draw(st.integers(min_value=0, max_value=n - 1))
    d = Distribution(counts)
    assert (max_pebbles_to_path_greedy(g, d, target)
            == max_pebbles_to(g, d, target))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generic_transport_matches_naive_reference(data):
    family = data.draw(st.sampled_from(["path", "cycle"]))
    n = data.draw(st.integers(min_value=3, max_value=5))
    g = make_path(n) if family == "path" else make_cycle(n)
    counts = tuple(data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n,
                 ).filter(lambda c: sum(c) <= 6)))
    target = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert (max_pebbles_to(g, Distribution(counts), target)
            == naive_max_to(g, counts, target))


def test_transport_dominance_adding_pebbles():
    """Adding a pebble anywhere never lowers deliverable pebbles."""
    g = make_path(4)
    for counts in itertools.product(range(3), repeat=4):
        d = Distribution(counts)
        for target in range(4):
            base = max_pebbles_to(g, d, target)
            for u in range(4):
                bumped = list(counts)
                bumped[u] += 1
                assert max_pebbles_to(g, Distribution(tuple(bumped)),
                                      target) >= base
