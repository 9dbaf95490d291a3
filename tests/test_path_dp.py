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
"""

import pytest

from pebbletools import make_path, optimal_pebbling_number


def fopt_path_dp(n: int) -> int:
    """f_opt(P_n) by the fold DP, searching totals up to ceil(2n/3)
    (Bunde et al.'s upper bound)."""
    cap = -(-2 * n // 3)
    best = {(0, 0): 0}  # (L, d) -> fewest pebbles placed so far
    for _ in range(n):
        step = {}
        for (left, need), used in best.items():
            for c in range(cap - used + 1):
                state = (c + left // 2,
                         max(2 * max(0, need - c), 2 if c == 0 and left < 2 else 0))
                # R of the next vertex is at most the pebbles still to come.
                if state[1] <= cap - used - c and used + c < step.get(state, cap + 1):
                    step[state] = used + c
        best = step
    return min(used for (_, need), used in best.items() if need == 0)


@pytest.mark.parametrize("n", [*range(1, 31), 45, 60])
def test_dp_gives_the_paths_theorem(n):
    t, r = divmod(n, 3)
    assert fopt_path_dp(n) == 2 * t + r


@pytest.mark.parametrize("n", range(1, 13))
def test_dp_equals_brute_force(n):
    assert fopt_path_dp(n) == optimal_pebbling_number(make_path(n)).value
