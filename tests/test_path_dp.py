"""The paper's path theorem, f_opt(P_n) = 2t + r for n = 3t + r, by a
second route: a dynamic program over the transport fold, with no
enumeration of distributions and no closed form.

On a path, a vertex v with no pebble is reachable iff L_{v-1} >= 2 or
R_{v+1} >= 2, where L_i = c_i + floor(L_{i-1} / 2) is the fold from the
left and R_i = c_i + floor(R_{i+1} / 2) the fold from the right (the
lemma of `engine._fold`).  Scanning from left to right, the state after
vertex i is (L_i, d): d is what the prefix's unreached vertices still
need of R_{i+1}.  Placing c pebbles on vertex i + 1 gives

    L' = c + floor(L / 2)
    d' = max(2 * max(0, d - c), 2 if c == 0 and L < 2 else 0),

since R_{i+1} = c + floor(R_{i+2} / 2) >= d iff R_{i+2} >= 2(d - c), and
the new vertex, unreached from its left and by its own pebbles, needs
R_{i+2} >= 2.  After the last vertex R_n = 0, so the value is the fewest
pebbles over the states with d = 0.

The witness is read back from the tables of the forward pass.  Colex
order compares the last vertex first, so going from the last vertex down
and taking at each the smallest count whose suffix some stored prefix
state completes to exactly f_opt pebbles with d = 0 gives the colex-first
solvable row.  A stored state keeps the fewest pebbles of its prefixes,
and no row has fewer than f_opt, so if any prefix with that state
completes the suffix, the stored one does.
"""

import pytest

from pebbletools import (Distribution, is_solvable, make_path,
                         optimal_pebbling_number)


def _step(state: tuple[int, int], c: int) -> tuple[int, int]:
    """The state (L, d) after placing c pebbles on the next vertex."""
    left, need = state
    return (c + left // 2,
            max(2 * max(0, need - c), 2 if c == 0 and left < 2 else 0))


def _tables(n: int) -> list[dict]:
    """The forward pass: tables[i] maps each state after the first i
    vertices to the fewest pebbles placed on them, searching totals up to
    ceil(2n/3) (Bunde et al.'s upper bound)."""
    cap = -(-2 * n // 3)
    tables = [{(0, 0): 0}]
    for _ in range(n):
        step = {}
        for state, used in tables[-1].items():
            for c in range(cap - used + 1):
                after = _step(state, c)
                # R of the next vertex is at most the pebbles still to come.
                if after[1] <= cap - used - c and used + c < step.get(after, cap + 1):
                    step[after] = used + c
        tables.append(step)
    return tables


def _value(tables: list[dict]) -> int:
    return min(used for (_, need), used in tables[-1].items() if need == 0)


def fopt_path_dp(n: int) -> int:
    """f_opt(P_n) by the fold DP."""
    return _value(_tables(n))


def witness_path_dp(n: int) -> tuple[int, ...]:
    """The colex-first solvable row of size f_opt(P_n), from the tables."""
    tables = _tables(n)
    value = _value(tables)

    def completes(state, used, suffix):
        for c in suffix:
            state = _step(state, c)
        return used + sum(suffix) == value and state[1] == 0

    suffix = ()
    for i in reversed(range(n)):
        suffix = next((c, *suffix) for c in range(value + 1)
                      if any(completes(state, used, (c, *suffix))
                             for state, used in tables[i].items()))
    return suffix


@pytest.mark.parametrize("n", [*range(1, 31), 45, 60])
def test_dp_gives_the_paths_theorem(n):
    t, r = divmod(n, 3)
    assert fopt_path_dp(n) == 2 * t + r


@pytest.mark.parametrize("n", range(1, 13))
def test_dp_equals_brute_force(n):
    assert fopt_path_dp(n) == optimal_pebbling_number(make_path(n)).value


@pytest.mark.parametrize("n", range(1, 13))
def test_dp_witness_is_the_unfiltered_search_witness(monkeypatch, n):
    # with every row its own orbit representative, the scanner returns the
    # colex-first solvable row of size f_opt
    monkeypatch.setattr("pebbletools.invariants.is_path_canonical",
                        lambda counts: True)
    report = optimal_pebbling_number(make_path(n))
    assert witness_path_dp(n) == report.witness.counts


@pytest.mark.parametrize("n", [30, 60])
def test_dp_witness_is_solvable_far_past_brute_force(n):
    witness = witness_path_dp(n)
    t, r = divmod(n, 3)
    assert (len(witness), sum(witness)) == (n, 2 * t + r)
    assert is_solvable(make_path(n), Distribution(witness), max_vertices=n)
