"""Reference answers that do not go through pebbletools.

Every check here is written from the definitions or from published closed
forms, so a wrong answer from the program cannot be confirmed by the same
code that produced it.  Graphs are plain adjacency lists (one sorted tuple
of neighbours per vertex); distributions are tuples of counts.

Closed forms:

* optimal pebbling number of the n-vertex path and cycle: 2t + r for
  n = 3t + r (paths n >= 1, cycles n >= 3);
* pebbling number of the path: pi(P_n) = 2^(n-1);
* pebbling number of the cycle (Pachter, Snevily, Voxman 1995):
  pi(C_2k) = 2^k and pi(C_2k+1) = 2 * floor(2^(k+1) / 3) + 1;
* pebbling number of the grid (Chung 1989): pi(P_a x P_b) = 2^(a+b-2).

Reachability is decided by an exhaustive search over move sequences with
a visited set; states whose weight sum(c_v * 2^(D - dist(v, t))) is below
2^D are cut, which is sound because no move raises that weight.  On
trees the maximum number of pebbles that can be moved to a target is the
leaf-to-target fold carry = (carry + c_v) // 2, which needs no search.
"""

from __future__ import annotations

from collections import deque


def fopt_path_or_cycle(n: int) -> int:
    t, r = divmod(n, 3)
    return 2 * t + r


def pi_path(n: int) -> int:
    return 1 << (n - 1)


def pi_cycle(n: int) -> int:
    k, odd = divmod(n, 2)
    if not odd:
        return 1 << k
    return 2 * ((1 << (k + 1)) // 3) + 1


def pi_grid(a: int, b: int) -> int:
    return 1 << (a + b - 2)


def adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    sets = [set() for _ in range(n)]
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    return tuple(tuple(sorted(s)) for s in sets)


def distances(adj, source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_tree(adj) -> bool:
    n = len(adj)
    edges = sum(len(a) for a in adj) // 2
    return edges == n - 1 and -1 not in distances(adj, 0)


def replay(adj, counts, moves) -> tuple[int, ...] | None:
    """Apply (source, target) moves; None if any move is illegal."""
    state = list(counts)
    for source, target in moves:
        if not (0 <= source < len(adj)) or target not in adj[source]:
            return None
        if state[source] < 2:
            return None
        state[source] -= 2
        state[target] += 1
    return tuple(state)


def tree_max_to(adj, counts, target: int) -> int:
    """Most pebbles any move sequence can put on `target` of a tree."""
    parent = [-1] * len(adj)
    order = [target]
    seen = {target}
    for u in order:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)
    carry = [0] * len(adj)
    for v in reversed(order[1:]):
        carry[parent[v]] += (carry[v] + counts[v]) // 2
    return counts[target] + carry[target]


def _weights(adj, target: int) -> tuple[list[int], int]:
    dist = distances(adj, target)
    depth = max(dist)
    return [0 if d < 0 else 1 << (depth - d) for d in dist], 1 << depth


def max_to(adj, counts, target: int) -> int:
    """Most pebbles any move sequence can put on `target`."""
    if is_tree(adj):
        return tree_max_to(adj, counts, target)
    return search_max_to(adj, counts, target)


def search_max_to(adj, counts, target: int) -> int:
    """max_to by exhaustive search, valid on every graph."""
    weights, unit = _weights(adj, target)
    best = counts[target]
    seen = {tuple(counts)}
    stack = [tuple(counts)]
    while stack:
        state = stack.pop()
        if state[target] > best:
            best = state[target]
        for v, c in enumerate(state):
            if c < 2:
                continue
            for u in adj[v]:
                nxt = list(state)
                nxt[v] -= 2
                nxt[u] += 1
                nxt = tuple(nxt)
                if nxt in seen:
                    continue
                pot = sum(x * w for x, w in zip(nxt, weights))
                if pot < unit * (best + 1):
                    continue
                seen.add(nxt)
                stack.append(nxt)
    return best


def reachable(adj, counts, target: int) -> bool:
    if counts[target] >= 1:
        return True
    if is_tree(adj):
        return tree_max_to(adj, counts, target) >= 1
    weights, unit = _weights(adj, target)
    if sum(c * w for c, w in zip(counts, weights)) < unit:
        return False
    seen = {tuple(counts)}
    stack = [tuple(counts)]
    while stack:
        state = stack.pop()
        for v, c in enumerate(state):
            if c < 2:
                continue
            for u in adj[v]:
                if u == target:
                    return True
                nxt = list(state)
                nxt[v] -= 2
                nxt[u] += 1
                nxt = tuple(nxt)
                if nxt in seen:
                    continue
                if sum(x * w for x, w in zip(nxt, weights)) < unit:
                    continue
                seen.add(nxt)
                stack.append(nxt)
    return False


def solvable(adj, counts) -> bool:
    return all(reachable(adj, counts, t) for t in range(len(adj)))
