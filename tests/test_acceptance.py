"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see every line.  Each test
measures its own wall-clock time and asserts the stated budget.

Criterion 8 (surgery preservation, zero failures) holds for all four
operations; on failure its line lists the count per operation and examples.
"""

import functools
import itertools
import time

from pebbletools import (
    Distribution,
    Graph,
    NotApplicableError,
    cartesian_product,
    collapse_two_pebble_block_path,
    compositions_array,
    construct_optimal_distribution,
    cycle_reduce_big_pile,
    cycle_remove_202_or_220,
    formula_fopt,
    graham_optimal_check,
    is_reachable,
    is_solvable,
    make_cycle,
    make_path,
    max_pebbles_to,
    max_pebbles_to_path_greedy,
    optimal_pebbling_number,
    pebbling_number,
    product_distribution,
    remove_singleton,
    replay,
)


def _record(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@functools.lru_cache(maxsize=None)
def brute_fopt_path(n: int) -> int:
    return optimal_pebbling_number(make_path(n)).value


@functools.lru_cache(maxsize=None)
def brute_fopt_cycle(n: int) -> int:
    return optimal_pebbling_number(make_cycle(n)).value


def solvable_distributions(g, max_size):
    for size in range(1, max_size + 1):
        for counts in compositions_array(size, g.n).tolist():
            d = Distribution(counts)
            if is_solvable(g, d):
                yield d


def test_criterion_01_path_closed_form_matches_brute_force():
    start = time.perf_counter()
    mismatches = [(n, formula_fopt("path", n), brute_fopt_path(n))
                  for n in range(1, 13)
                  if formula_fopt("path", n) != brute_fopt_path(n)]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300
    detail = (f"n=1..12 exact match, {elapsed:.2f}s"
              if not mismatches else f"mismatches {mismatches}")
    assert _record(1, "path optimal value closed form", ok, detail), detail


def test_criterion_02_cycle_closed_form_matches_brute_force():
    start = time.perf_counter()
    mismatches = [(n, formula_fopt("cycle", n), brute_fopt_cycle(n))
                  for n in range(3, 13)
                  if formula_fopt("cycle", n) != brute_fopt_cycle(n)]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300
    detail = (f"n=3..12 exact match, {elapsed:.2f}s"
              if not mismatches else f"mismatches {mismatches}")
    assert _record(2, "cycle optimal value closed form", ok, detail), detail


def test_criterion_03_constructions_solvable_with_exact_size():
    start = time.perf_counter()
    bad = []
    for n in range(1, 31):
        d = construct_optimal_distribution("path", n)
        if d.size != formula_fopt("path", n) or not is_solvable(
                make_path(n), d, max_vertices=30):
            bad.append(("path", n))
    for n in range(3, 31):
        d = construct_optimal_distribution("cycle", n)
        if d.size != formula_fopt("cycle", n) or not is_solvable(
                make_cycle(n), d, max_vertices=30):
            bad.append(("cycle", n))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    detail = f"58 constructions n<=30 solvable at formula size, {elapsed:.3f}s" \
        if not bad else f"failed {bad}"
    assert _record(3, "constructive distributions", ok, detail), detail


def test_criterion_04_grid_product_equality_case():
    start = time.perf_counter()
    grid = cartesian_product(make_path(3), make_path(3))
    value = optimal_pebbling_number(grid).value
    center = Distribution((0, 0, 0, 0, 4, 0, 0, 0, 0))
    center_ok = is_solvable(grid, center)
    elapsed = time.perf_counter() - start
    ok = value == 4 and center_ok and elapsed < 30
    detail = f"f_opt=4, center pile of 4 solvable, {elapsed:.2f}s" if ok else \
        f"value={value} center_solvable={center_ok} elapsed={elapsed:.2f}s"
    assert _record(4, "3x3 grid equality case", ok, detail), detail


def test_criterion_05_four_cycle_strictness_case():
    start = time.perf_counter()
    # (a, b) is vertex 2a + b, so P2xP2 is the cycle 0-1-3-2-0
    iso = cartesian_product(make_path(2), make_path(2)) == \
        Graph(4, [(0, 1), (1, 3), (3, 2), (2, 0)])
    value = brute_fopt_cycle(4)
    bound = brute_fopt_path(2) ** 2
    elapsed = time.perf_counter() - start
    ok = iso and value == 3 and value < bound == 4 and elapsed < 10
    detail = f"C4 = P2xP2, f_opt 3 < 4 bound, {elapsed:.2f}s" if ok else \
        f"iso={iso} value={value} bound={bound}"
    assert _record(5, "4-cycle strict product bound", ok, detail), detail


def test_criterion_06_product_bound_holds_on_small_factor_pairs():
    start = time.perf_counter()
    factors = [make_path(n) for n in range(1, 6)] + \
              [make_cycle(n) for n in range(3, 6)]
    violations = []
    pairs = 0
    for g, h in itertools.product(factors, repeat=2):
        if g.n * h.n > 16:
            continue
        pairs += 1
        check = graham_optimal_check(g, h)
        if not check.holds:
            violations.append((g, h, check.fopt_product,
                               check.bound))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 600
    detail = f"{pairs} factor pairs, zero violations, {elapsed:.2f}s" \
        if not violations else f"violations {violations}"
    assert _record(6, "product upper bound sweep", ok, detail), detail


def test_criterion_07_product_distributions_stay_solvable():
    start = time.perf_counter()
    factors = [make_path(2), make_path(3), make_cycle(3)]
    failures = []
    checked = 0
    for g, h in itertools.product(factors, repeat=2):
        prod = cartesian_product(g, h)
        for dg in solvable_distributions(g, 3):
            for dh in solvable_distributions(h, 3):
                checked += 1
                if not is_solvable(prod, product_distribution(dg, dh)):
                    failures.append((g, h, dg.counts, dh.counts))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600
    detail = f"{checked} factor-pair products solvable, {elapsed:.2f}s" \
        if not failures else f"failures {failures[:5]}"
    assert _record(7, "product distribution transport", ok, detail), detail


def test_criterion_08_surgery_preservation_zero_failures():
    """Every surgery applied to a solvable distribution meeting its
    preconditions gives a solvable output.  A surgery that refuses an input
    (such as the path block collapse on path:3 [0, 2, 0]) is not applied."""
    start = time.perf_counter()
    failures = []
    applied = 0
    for family, make, lo in (("path", make_path, 2), ("cycle", make_cycle, 3)):
        for n in range(lo, 8):
            g = make(n)
            for d in solvable_distributions(g, 7):
                ops = [("remove_singleton", lambda g=g, d=d, v=v:
                        remove_singleton(g, d, v))
                       for v in range(n) if d[v] == 1]
                if family == "path":
                    ops.append(("collapse_two_pebble_block_path",
                                lambda g=g, d=d:
                                collapse_two_pebble_block_path(g, d)))
                else:
                    ops.append(("cycle_remove_202_or_220", lambda g=g, d=d:
                                cycle_remove_202_or_220(g, d)))
                    ops.append(("cycle_reduce_big_pile", lambda g=g, d=d:
                                cycle_reduce_big_pile(g, d)))
                for name, op in ops:
                    try:
                        res = op()
                    except NotApplicableError:
                        continue
                    applied += 1
                    if not is_solvable(res.graph_after, res.dist_after):
                        failures.append((name, f"{family}:{n}", d.counts,
                                         res.dist_after.counts))
    elapsed = time.perf_counter() - start
    by_op = {}
    for name, *_ in failures:
        by_op[name] = by_op.get(name, 0) + 1
    ok = not failures and elapsed < 600
    detail = (f"{applied} surgeries all solvable, {elapsed:.1f}s" if ok else
              f"{len(failures)} of {applied} surgeries produced unsolvable "
              f"outputs (per op: {by_op}); e.g. "
              + "; ".join(f"{n} on {g} {b} -> {a}"
                          for n, g, b, a in failures[:3])
              + f"; {elapsed:.1f}s")
    assert _record(8, "surgery preservation sweep", ok, detail), detail


def test_criterion_09_collapse_floor_inequality():
    # a pebbles on the pile (a >= 2), b collectable on its predecessor:
    # transport two past the pile after the collapse, floor((b+1)/2) + a - 2
    # halved, is at least ((b // 2 + a) // 2) // 2 before it
    start = time.perf_counter()
    bad = [(a, b) for a in range(2, 65) for b in range(0, 65)
           if ((b + 1) // 2 + a - 2) // 2 < ((b // 2 + a) // 2) // 2]
    elapsed = time.perf_counter() - start
    ok = not bad
    detail = f"4032 (a,b) pairs hold, {elapsed:.3f}s" if ok else f"fails {bad[:5]}"
    assert _record(9, "collapse floor inequality", ok, detail), detail


def test_criterion_10_optimal_values_monotone_in_length():
    start = time.perf_counter()
    bad = [("path", n) for n in range(2, 13)
           if brute_fopt_path(n - 1) > brute_fopt_path(n)]
    bad += [("cycle", n) for n in range(4, 13)
            if brute_fopt_cycle(n - 1) > brute_fopt_cycle(n)]
    elapsed = time.perf_counter() - start
    ok = not bad
    detail = f"nondecreasing over all computed n (<=12), {elapsed:.2f}s" \
        if ok else f"violations {bad}"
    assert _record(10, "value monotonicity", ok, detail), detail


def test_criterion_11_engine_self_consistency():
    start = time.perf_counter()
    problems = []
    greedy_checks = 0
    for n in range(1, 8):
        g = make_path(n)
        for size in range(0, 9):
            for counts in compositions_array(size, n).tolist():
                d = Distribution(counts)
                for t in range(n):
                    greedy_checks += 1
                    if (max_pebbles_to_path_greedy(g, d, t)
                            != max_pebbles_to(g, d, t)):
                        problems.append(("greedy", n, counts, t))

    replay_checks = 0
    dominance_checks = 0
    for g in (make_path(4), make_cycle(5)):
        for size in range(0, 7):
            for counts in compositions_array(size, g.n).tolist():
                d = Distribution(counts)
                for t in range(g.n):
                    report = is_reachable(g, d, t)
                    if report.verdict:
                        replay_checks += 1
                        if replay(g, d, report.witness)[t] < 1:
                            problems.append(("replay", g, counts, t))
                    base = max_pebbles_to(g, d, t)
                    for u in range(g.n):
                        bumped = list(counts)
                        bumped[u] += 1
                        dominance_checks += 1
                        if max_pebbles_to(g, Distribution(tuple(bumped)),
                                          t) < base:
                            problems.append(("dominance", g, counts,
                                             u, t))
    elapsed = time.perf_counter() - start
    ok = not problems
    detail = (f"{greedy_checks} greedy=generic, {replay_checks} replays, "
              f"{dominance_checks} dominance checks, {elapsed:.1f}s"
              if ok else f"problems {problems[:5]}")
    assert _record(11, "engine self-consistency", ok, detail), detail


def test_criterion_12_classical_numbers_with_witnesses():
    start = time.perf_counter()
    expected = [(make_path(2), 2), (make_path(3), 4), (make_cycle(4), 4)]
    bad = []
    for g, want in expected:
        report = pebbling_number(g)
        witness_ok = (report.witness.size == report.value - 1
                      and not is_solvable(g, report.witness))
        if report.value != want or not witness_ok:
            bad.append((g, report.value, want, witness_ok))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60
    detail = (f"P2=2 P3=4 C4=4 with unsolvable witnesses of size value-1, "
              f"{elapsed:.2f}s" if not bad else f"failed {bad}")
    assert _record(12, "classical pebbling numbers", ok, detail), detail
