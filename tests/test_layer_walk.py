"""The layer scanner's walk over colex suffixes, held to a scan of whole
layers: the same value, witness, rows examined and budget stops, and no
composition table of more than one chunk's rows."""

import json
import random
from math import comb

import pytest

import pebbletools.invariants as invariants
from pebbletools import (
    BudgetError,
    Distribution,
    Graph,
    canonical_family,
    cartesian_product,
    compositions_array,
    formula_fopt,
    is_cycle_canonical,
    is_path_canonical,
    is_solvable,
    make_cycle,
    make_path,
    optimal_pebbling_number,
    pebbling_number,
)
from pebbletools.cli import main
from pebbletools.invariants import _accept_filter, _neighbour_screen

CHUNK = 1 << 16


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _whole_layer_search(g, solvable, budget, max_size):
    """Both searches as they were before the walk: each layer built whole
    from the one before it and read in chunks of CHUNK rows, each chunk
    charged before it is built or screened.  The outcome as `_outcome`
    gives it."""
    canonical = ({"path": is_path_canonical, "cycle": is_cycle_canonical}
                 .get(canonical_family(g)) if solvable else None)
    exact = not solvable and (g.edge_count == g.n - 1 or all(
        g.degree(v) == 2 for v in range(g.n)))
    depth = max(max(g.distances_from(v)) for v in range(g.n))
    upper = (formula_fopt("path", g.n) if solvable
             else (g.n - 1) * ((1 << depth) - 1) + 1)
    examined, layer, witness = 0, None, (0,) * g.n
    for k in range(1, max_size + 1):
        screen = (_neighbour_screen if solvable else _accept_filter)(g, k)
        size, found = comb(k + g.n - 1, k), None
        for start in range(0, size, CHUNK):
            examined += min(CHUNK, size - start)
            if budget is not None and examined > budget:
                return ("stop", f"distribution budget {budget} exhausted",
                        examined, k, upper)
            if not start:
                layer = compositions_array(k, g.n, layer)
            chunk = layer[start:start + CHUNK]
            for array in chunk[screen(chunk) == solvable]:
                row = tuple(array.tolist())
                if canonical is not None and not canonical(row):
                    continue
                if exact or is_solvable(g, Distribution(row), max_vertices=g.n,
                                        max_pebbles=k) == solvable:
                    found = row
                    break
            if found is not None:
                break
        if solvable and found is not None:
            return ("value", k, found, examined)
        if not solvable:
            if found is None:
                return ("value", k, witness, examined)
            witness = found
    message = (f"no solvable distribution of size <= {max_size} found" if solvable
               else f"pebbling number exceeds cap {max_size}")
    return ("stop", message, examined, max_size + 1, upper)


def _outcome(g, solvable, budget, max_size):
    search = optimal_pebbling_number if solvable else pebbling_number
    cap = {"max_pebbles" if solvable else "max_value": max_size}
    try:
        report = search(g, max_vertices=g.n, max_distributions=budget, **cap)
    except BudgetError as exc:
        return ("stop", str(exc), exc.examined, exc.lower_bound, exc.upper_bound)
    return ("value", report.value, report.witness.counts,
            report.distributions_examined)


def _budgets(g, value):
    """A budget on each side of every chunk boundary up to the last layer
    searched, and no budget."""
    budgets, examined = {None}, 0
    for k in range(1, value + 2):
        size = comb(k + g.n - 1, k)
        for start in range(0, size, CHUNK):
            boundary = examined + min(start + CHUNK, size)
            budgets |= {boundary - 1, boundary}
        examined += size
    return sorted(budgets, key=lambda b: -1 if b is None else b)


SEARCHES = [
    pytest.param(make_path(12), True, 8, id="fopt-path:12"),
    pytest.param(make_cycle(12), True, 8, id="fopt-cycle:12"),
    pytest.param(_relabelled(make_cycle(10), 3), True, 7, id="fopt-relabelled-cycle:10"),
    pytest.param(cartesian_product(make_path(3), make_path(4)), True, 5, id="fopt-P3xP4"),
    pytest.param(cartesian_product(make_cycle(4), make_cycle(4)), True, 6, id="fopt-C4xC4"),
    pytest.param(make_cycle(6), False, 8, id="pi-cycle:6"),
    pytest.param(cartesian_product(make_path(2), make_path(3)), False, 8, id="pi-P2xP3"),
]


@pytest.mark.parametrize("block,width", [(None, None), (64, 16), (700, 50)],
                         ids=["default", "walk-64", "walk-700"])
@pytest.mark.parametrize("g,solvable,value", SEARCHES)
def test_walk_matches_the_whole_layer_search(monkeypatch, g, solvable, value,
                                             block, width):
    """Value, witness and rows examined, or the BudgetError's message,
    rows examined and bounds, at a budget on each side of every chunk
    boundary and with none, under a value cap one past the value and one
    short of it: at the default constants and with constants so small that
    every layer past the first few is walked."""
    if block is not None:
        monkeypatch.setattr("pebbletools.invariants._BLOCK", block)
        monkeypatch.setattr("pebbletools.invariants._WIDTH", width)
    for budget in _budgets(g, value):
        for max_size in (value + 1, value - 1):
            assert _outcome(g, solvable, budget, max_size) \
                == _whole_layer_search(g, solvable, budget, max_size), budget
    assert _outcome(g, solvable, None, value + 1)[1] == value


@pytest.fixture
def chunk_sized_tables(monkeypatch):
    """`invariants.compositions_array` refusing to return more than one
    chunk's rows, so no search that passes builds a layer of more rows
    whole."""
    def bounded(total, length, previous=None):
        rows = compositions_array(total, length, previous)
        assert len(rows) <= CHUNK, (total, length)
        return rows

    monkeypatch.setattr("pebbletools.invariants.compositions_array", bounded)


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_verify_to_16_builds_no_layer_past_a_chunk(chunk_sized_tables, capsys, family):
    assert main(["verify", family, "--max-n", "16", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["all_match"]
    assert [row["brute_force"] for row in result["rows"]] \
        == [formula_fopt(family, row["n"]) for row in result["rows"]]


def test_product_search_builds_no_layer_past_a_chunk(chunk_sized_tables):
    report = optimal_pebbling_number(cartesian_product(make_path(4), make_path(5)))
    assert (report.value, report.witness.format(), report.distributions_examined) \
        == (8, "0,0,0,0,0,2,0,0,0,2,0,0,4,0,0,0,0,0,0,0", 1019101)


def test_star_budget_stop_builds_no_layer_past_a_chunk(chunk_sized_tables):
    """pi of the 66-vertex star stops inside layer 5, 12.1 M rows, which
    a search that built each layer whole held in memory (1.6 GB)."""
    star = Graph(66, [(0, v) for v in range(1, 66)])
    with pytest.raises(BudgetError) as info:
        pebbling_number(star, max_vertices=66, max_value=70, max_distributions=200000)
    assert (str(info.value), info.value.examined, info.value.lower_bound,
            info.value.upper_bound) \
        == ("distribution budget 200000 exhausted", 249001, 6, 196)


def test_walk_counts_ranks_past_int64_exactly():
    """A layer of more than 2^62 rows counts its ranks in Python ints, so
    path:56's layer 22, charged from the rows below it, stops at the
    budget's chunk like a smaller layer."""
    below = comb(21 + 56, 56) - 1
    assert comb(22 + 55, 22) > 1 << 62
    scanner = invariants._LayerScanner(make_path(56), 56, below + 3 * CHUNK + 5, True)
    scanner.examined = below
    with pytest.raises(BudgetError) as info:
        scanner.first(22)
    assert info.value.examined == below + 4 * CHUNK
