"""Tests for formulas, constructions, brute-force numbers, and product bounds."""

import pytest

from pebbletools import (
    BudgetError,
    Distribution,
    Graph,
    SizeLimitError,
    compositions_array,
    construct_optimal_cycle_distribution,
    construct_optimal_path_distribution,
    decompose_3t_r,
    formula_fopt_cycle,
    formula_fopt_path,
    graham_optimal_check,
    is_cycle_canonical,
    is_path_canonical,
    is_solvable,
    iter_compositions,
    make_cycle,
    make_path,
    optimal_pebbling_number,
    pebbling_number,
    product_distribution,
)

# value sequences pinned up front; every later check must reproduce them
PATH_VALUES = {1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 4, 7: 5, 8: 6, 9: 6,
               10: 7, 11: 8, 12: 8}
CYCLE_VALUES = {3: 2, 4: 3, 5: 4, 6: 4, 7: 5, 8: 6, 9: 6, 10: 7, 11: 8, 12: 8}


# ---------------------------------------------------------------------------
# enumeration order


def test_compositions_colex_order():
    got = list(iter_compositions(2, 2))
    assert got == [(2, 0), (1, 1), (0, 2)]


def test_compositions_array_matches_iterator():
    rows = compositions_array(4, 3)
    assert [tuple(r) for r in rows.tolist()] == list(iter_compositions(4, 3))


def test_composition_counts():
    # compositions of k into n parts: C(k+n-1, n-1)
    assert len(list(iter_compositions(5, 4))) == 56


def test_canonical_representative_predicates():
    assert is_path_canonical((0, 2, 1))
    assert not is_path_canonical((1, 2, 0))
    assert is_cycle_canonical((0, 1, 2))
    assert not is_cycle_canonical((1, 2, 0))
    assert not is_cycle_canonical((0, 2, 1))  # reflection (0,1,2) is smaller


# ---------------------------------------------------------------------------
# closed forms


def test_decompose_3t_r():
    assert (decompose_3t_r(7).t, decompose_3t_r(7).r) == (2, 1)
    assert (decompose_3t_r(6).t, decompose_3t_r(6).r) == (2, 0)
    assert (decompose_3t_r(1).t, decompose_3t_r(1).r) == (0, 1)
    for n in range(1, 40):
        dec = decompose_3t_r(n)
        assert 3 * dec.t + dec.r == n and dec.r in (0, 1, 2)
    with pytest.raises(ValueError):
        decompose_3t_r(0)


def test_formula_values():
    for n, want in PATH_VALUES.items():
        assert formula_fopt_path(n) == want
    for n, want in CYCLE_VALUES.items():
        assert formula_fopt_cycle(n) == want
    with pytest.raises(ValueError):
        formula_fopt_cycle(2)


# ---------------------------------------------------------------------------
# constructions


def test_construction_frozen_examples():
    assert construct_optimal_path_distribution(5).counts == (0, 2, 0, 1, 1)
    assert construct_optimal_path_distribution(6).counts == (0, 2, 0, 0, 2, 0)
    assert construct_optimal_cycle_distribution(7).counts == (0, 2, 0, 0, 2, 0, 1)
    assert construct_optimal_path_distribution(1).counts == (1,)
    assert construct_optimal_path_distribution(2).counts == (1, 1)


def test_construction_sizes_match_formula():
    for n in range(1, 31):
        assert construct_optimal_path_distribution(n).size == formula_fopt_path(n)
    for n in range(3, 31):
        assert construct_optimal_cycle_distribution(n).size == formula_fopt_cycle(n)


def test_constructions_solvable_small():
    for n in range(1, 13):
        g = make_path(n)
        assert is_solvable(g, construct_optimal_path_distribution(n))
    for n in range(3, 13):
        g = make_cycle(n)
        assert is_solvable(g, construct_optimal_cycle_distribution(n))


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
    # an unlabelled C5 indexed like make_cycle gets the same orbit filter
    raw_c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert optimal_pebbling_number(raw_c5) == optimal_pebbling_number(make_cycle(5))


def test_optimal_number_ignores_misleading_label():
    # a star labelled as a path must not be searched with path symmetry
    star = Graph(3, [(0, 1), (0, 2)], label="path:3")
    report = optimal_pebbling_number(star)
    assert report.value == 2
    assert is_solvable(star, report.witness)


def test_optimal_number_pinned_path_12():
    report = optimal_pebbling_number(make_path(12))
    assert (report.value, report.witness.format(), report.distributions_examined) \
        == (8, "0,2,0,0,2,0,0,2,0,0,2,0", 115923)


def test_optimal_number_rejects_disconnected():
    with pytest.raises(ValueError):
        optimal_pebbling_number(Graph(4, [(0, 1), (2, 3)]))


def test_optimal_number_budget():
    with pytest.raises(BudgetError) as info:
        optimal_pebbling_number(make_cycle(6), max_distributions=5)
    assert info.value.examined >= 5
    assert info.value.lower_bound >= 1


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


def test_pebbling_number_trivial_graph():
    report = pebbling_number(make_path(1))
    assert report.value == 1
    assert report.witness.counts == (0,)


def test_pebbling_number_vertex_cap():
    with pytest.raises(SizeLimitError):
        pebbling_number(make_path(9))


# ---------------------------------------------------------------------------
# products


def test_product_distribution_counts_multiply():
    dg = construct_optimal_path_distribution(3)
    dh = construct_optimal_path_distribution(3)
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


def test_graham_check_product_cap():
    with pytest.raises(SizeLimitError):
        graham_optimal_check(make_cycle(5), make_cycle(5))
