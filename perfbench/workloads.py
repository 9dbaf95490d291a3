"""The three workloads: inputs from a seed, one round of calls, answer checks.

A workload object is built from the seed alone (pure Python, no
pebbletools import), so the program receives only the generated inputs.
`run_round` makes every program call of one round through `rnd.run` (one
timed query each) and `rnd.layer` (a span at the boundary it crosses);
`check` judges one answer against the independent oracle and returns the
list of problems found, empty when the answer is right.

Why these three:

* fopt-sweep -- the brute-force optimal-number search as users call it,
  through the CLI with --json.  The size-k layer loop in `invariants`
  dominates.  Labelled path:/cycle: specs go through the symmetry filter;
  the relabelled file: copies bypass it.
* classical -- the same layers used the opposite way: `pebbling_number`
  scans every row of every layer, never uses the symmetry filter, and its
  engine calls all return solvable.
* engine-queries -- thousands of small `engine` and `surgery` queries and
  no `enumeration` or `invariants`: the bypass for sweep-side changes and
  the target for engine changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import oracle


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def grid_edges(a, b):
    """Edges of P_a x P_b with vertex (i, j) at index i * b + j."""
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return edges


def relabel(edges, perm):
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _weight_ratio(adj, counts, target):
    """sum(c_v * 2^-dist(v, target)); below 1 the target is unreachable."""
    dist = oracle.distances(adj, target)
    depth = max(dist)
    return sum(c << (depth - d) for c, d in zip(counts, dist)) / (1 << depth)


class FoptSweep:
    """`verify path|cycle --json` and `fopt file:<relabelled copy> --json`."""

    name = "fopt-sweep"
    VERIFY_MAX_N = 12
    RELABELLED_N = 10
    COPIES = 16

    def __init__(self, seed, tiny, workdir, digests):
        rng = random.Random(f"{self.name}:{seed}")
        max_n = 6 if tiny else self.VERIFY_MAX_N
        copy_n = 5 if tiny else self.RELABELLED_N
        copies = 1 if tiny else self.COPIES
        self.seed = str(seed)
        self.digests = digests.setdefault(self.seed, {})
        self.commands = [["verify", family, "--max-n", str(max_n), "--json"]
                         for family in ("path", "cycle")]
        self.graphs = {}
        self.contents = {}
        inputs = workdir / "inputs" / f"{self.name}-{seed}"
        inputs.mkdir(parents=True, exist_ok=True)
        for family, edges_of in (("path", path_edges), ("cycle", cycle_edges)):
            for copy in range(copies):
                perm = list(range(copy_n))
                rng.shuffle(perm)
                edges = relabel(edges_of(copy_n), perm)
                path = inputs / f"{family}{copy_n}-{copy}.edges"
                text = f"{copy_n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
                path.write_text(text)
                spec = "file:" + path.relative_to(workdir.parent).as_posix()
                self.commands.append(["fopt", spec, "--json"])
                self.graphs[spec] = (copy_n, edges)
                self.contents[" ".join(self.commands[-1])] = _sha(text)

    def graph_inputs(self):
        return list(self.graphs.values())

    def run_round(self, rnd, pt):
        for argv in self.commands:
            rnd.run(" ".join(argv), self._cli, rnd, pt, argv)

    @staticmethod
    def _cli(rnd, pt, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rnd.layer("cli.main", pt.cli.main, argv)
        text = out.getvalue()
        rnd.count("cli.json_bytes", len(text.encode()))
        return code, text

    def work(self, key, answer):
        """Deterministic size of a query: distributions it examined."""
        return json.loads(answer[1])["stats"]["distributions_examined"]

    def check(self, key, answer, pt):
        code, text = answer
        problems = []
        digest = _sha(text)
        # Keyed by the input file's content too, so that only the same
        # input under the same seed must give the same bytes.
        known = self.digests.setdefault(f"{key} {self.contents.get(key, '')}".strip(),
                                        digest)
        if known != digest:
            problems.append(f"--json digest {digest[:16]} differs from "
                            f"{known[:16]} of an earlier run with seed {self.seed}")
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            payload = json.loads(text)
        except ValueError:
            return problems + ["output is not JSON"]
        result = payload["result"]
        if payload["command"] == "verify":
            family = payload["inputs"]["family"]
            start = 1 if family == "path" else 3
            ns = [row["n"] for row in result["rows"]]
            if ns != list(range(start, payload["inputs"]["max_n"] + 1)):
                problems.append(f"rows cover n = {ns}")
            for row in result["rows"]:
                want = oracle.fopt_path_or_cycle(row["n"])
                if (row["formula"], row["brute_force"], row["match"],
                        row["error"]) != (want, want, True, None):
                    problems.append(f"row {row}: expected f_opt {want}")
            if result["all_match"] is not True:
                problems.append("all_match is not true")
            return problems
        n, edges = self.graphs[payload["inputs"]["spec"]]
        want = oracle.fopt_path_or_cycle(n)
        witness = tuple(result["witness"])
        if result["value"] != want:
            problems.append(f"value {result['value']}, expected {want}")
        if len(witness) != n or sum(witness) != result["value"]:
            problems.append(f"witness {witness} does not have size {result['value']}")
        elif not oracle.solvable(oracle.adjacency(n, edges), witness):
            problems.append(f"witness {witness} is not solvable")
        return problems


class Classical:
    """`pebbling_number` on small paths, cycles and grids, each also relabelled."""

    name = "classical"
    GRAPHS = [("path", (5,)), ("cycle", (6,)), ("cycle", (7,)), ("grid", (2, 3))]
    TINY_GRAPHS = [("path", (3,)), ("cycle", (4,)), ("grid", (2, 2))]

    def __init__(self, seed, tiny, workdir, digests):
        rng = random.Random(f"{self.name}:{seed}")
        self.queries = {}
        for family, dims in self.TINY_GRAPHS if tiny else self.GRAPHS:
            if family == "grid":
                n, edges, value = dims[0] * dims[1], grid_edges(*dims), oracle.pi_grid(*dims)
            elif family == "path":
                n, edges, value = dims[0], path_edges(dims[0]), oracle.pi_path(dims[0])
            else:
                n, edges, value = dims[0], cycle_edges(dims[0]), oracle.pi_cycle(dims[0])
            spec = f"{family}:{'x'.join(map(str, dims))}"
            perm = list(range(n))
            rng.shuffle(perm)
            self.queries[spec] = (n, sorted(edges), value)
            self.queries[spec + " relabelled"] = (n, relabel(edges, perm), value)

    def graph_inputs(self):
        return [(n, edges) for n, edges, _ in self.queries.values()]

    def run_round(self, rnd, pt):
        graphs = rnd.run("load graphs", self._load, rnd, pt, sample=False)
        for key, g in graphs.items():
            rnd.run(key, self._query, rnd, pt, g)

    def _load(self, rnd, pt):
        return {key: rnd.layer("graphs.load", pt.Graph, n, edges)
                for key, (n, edges, _) in self.queries.items()}

    @staticmethod
    def _query(rnd, pt, g):
        report = rnd.layer("invariants.pebbling_number", pt.pebbling_number, g)
        return report.value, report.witness.counts, report.distributions_examined

    def work(self, key, answer):
        return answer[2]

    def check(self, key, answer, pt):
        n, edges, want = self.queries[key]
        value, witness, _ = answer
        problems = []
        if value != want:
            problems.append(f"value {value}, expected {want}")
        if len(witness) != n or sum(witness) != value - 1:
            problems.append(f"witness {witness} does not have size {value - 1}")
        elif oracle.solvable(oracle.adjacency(n, edges), witness):
            problems.append(f"witness {witness} is solvable")
        return problems


class EngineQueries:
    """Seeded `is_reachable`, `is_solvable`, `max_pebbles_to` and
    `try_reduce` chains on paths, cycles, grids and random connected graphs."""

    name = "engine-queries"
    GRAPHS = 384
    PER_GRAPH = {"reach": 12, "solve": 12, "max": 4, "chain": 4}
    GRIDS = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    # Unreachable targets whose search must visit every state left after
    # the weight test (82,258 and 32,286 states), so their work does not
    # depend on the seed's relabelling: the largest queries of a round.
    CEILING = [("cycle", 12, (4, 2, 0, 0, 0, 0, 0, 4, 4, 4, 2, 3), 4),
               ("path", 12, (4, 5, 1, 3, 7, 1, 0, 0, 3, 0, 0, 1), 10)]

    def __init__(self, seed, tiny, workdir, digests):
        rng = random.Random(f"{self.name}:{seed}")
        scale = 4 if tiny else 1
        self.graphs = []
        self.queries = {}
        for gi in range(4 if tiny else self.GRAPHS):
            family = ("path", "cycle", "grid", "random")[gi % 4]
            n = rng.randint(4, 6) if tiny else rng.randint(6, 12)
            if family == "path":
                edges = path_edges(n)
            elif family == "cycle":
                edges = cycle_edges(n)
            elif family == "grid":
                a, b = rng.choice(self.GRIDS[:1] if tiny else self.GRIDS)
                n, edges = a * b, grid_edges(a, b)
            else:
                edges = self._random_connected(rng, n)
            adj = oracle.adjacency(n, edges)
            self.graphs.append((family, n, sorted(edges), adj))
            for kind, count in self.PER_GRAPH.items():
                if kind == "chain" and family not in ("path", "cycle"):
                    continue
                for qi in range(max(1, count // scale)):
                    key = f"g{gi} {family}:{n} {kind} {qi}"
                    self.queries[key] = (gi, kind) + self._make(rng, kind, family, adj)
        for family, n, counts, target in [] if tiny else self.CEILING:
            perm = list(range(n))
            rng.shuffle(perm)
            edges = relabel(path_edges(n) if family == "path" else cycle_edges(n), perm)
            relabelled = [0] * n
            for v, c in enumerate(counts):
                relabelled[perm[v]] = c
            gi = len(self.graphs)
            self.graphs.append(("relabelled", n, edges, oracle.adjacency(n, edges)))
            self.queries[f"g{gi} relabelled {family}:{n} reach ceiling"] = (
                gi, "reach", tuple(relabelled), perm[target])
        self.unsound: list[str] = []

    @staticmethod
    def _random_connected(rng, n):
        """Random labelled tree plus 0-2 extra edges."""
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {tuple(sorted((perm[v], perm[rng.randrange(v)]))) for v in range(1, n)}
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    @staticmethod
    def _scatter(rng, n, size):
        counts = [0] * n
        for _ in range(size):
            counts[rng.randrange(n)] += 1
        return counts

    def _make(self, rng, kind, family, adj):
        """Inputs the weight test cannot decide, so the engine must search;
        the size windows give a large share of both verdicts."""
        n = len(adj)
        if kind == "reach":
            for _ in range(1000):
                target = rng.randrange(n)
                counts = self._scatter(rng, n, rng.randint(n // 2, n + 2))
                if counts[target] == 0 and 1 <= _weight_ratio(adj, counts, target) < 1.5:
                    break
            return tuple(counts), target
        if kind == "solve":
            for _ in range(1000):
                counts = self._scatter(rng, n, rng.randint(3 * n // 5, n + 1))
                if all(_weight_ratio(adj, counts, t) >= 1 for t in range(n)):
                    break
            return tuple(counts), None
        if kind == "max":
            return tuple(self._scatter(rng, n, rng.randint(4, 10))), rng.randrange(n)
        return self._covered_start(rng, n, family), None

    @staticmethod
    def _covered_start(rng, n, family):
        """A distribution that is solvable by construction: every vertex is
        occupied or next to a pile of two or more, plus up to two extras."""
        counts = [0] * n
        for v in range(n):
            left = counts[v - 1] if v > 0 or family == "cycle" else 0
            if counts[v] or left >= 2:
                continue
            if rng.random() < 0.6:
                counts[min(v + 1, n - 1)] += rng.choice((2, 2, 3))
            else:
                counts[v] = 1
        for _ in range(rng.randint(0, 2)):
            counts[rng.randrange(n)] += 1
        return tuple(counts)

    def graph_inputs(self):
        return [(n, edges) for _, n, edges, _ in self.graphs]

    def run_round(self, rnd, pt):
        graphs = rnd.run("load graphs", self._load, rnd, pt, sample=False)
        for key, (gi, kind, counts, target) in self.queries.items():
            rnd.run(key, getattr(self, "_" + kind), rnd, pt, graphs[gi],
                    counts, target)

    def _load(self, rnd, pt):
        return [rnd.layer("graphs.load", pt.Graph, n, edges)
                for _, n, edges, _ in self.graphs]

    @staticmethod
    def _reach(rnd, pt, g, counts, target):
        report = rnd.layer("engine.is_reachable", pt.is_reachable, g,
                           pt.Distribution(counts), target)
        witness = None
        if report.witness is not None:
            witness = tuple((m.source, m.target) for m in report.witness)
        return report.verdict, witness, report.states_explored

    @staticmethod
    def _solve(rnd, pt, g, counts, target):
        return rnd.layer("engine.is_solvable", pt.is_solvable, g,
                         pt.Distribution(counts))

    @staticmethod
    def _max(rnd, pt, g, counts, target):
        return rnd.layer("engine.max_pebbles_to", pt.max_pebbles_to, g,
                         pt.Distribution(counts), target)

    @staticmethod
    def _chain(rnd, pt, g, counts, target):
        """Reduce until no surgery applies, checking solvability each step."""
        steps = []
        d = pt.Distribution(counts)
        while True:
            try:
                result = rnd.layer("surgery.try_reduce", pt.try_reduce, g, d)
            except pt.NotApplicableError:
                return tuple(steps)
            g, d = result.graph_after, result.dist_after
            verdict = rnd.layer("engine.is_solvable", pt.is_solvable, g, d)
            steps.append((result.rule, result.branch, g.n, tuple(g.edges()),
                          d.counts, result.pebbles_removed_net, verdict))

    def work(self, key, answer):
        """Deterministic size of a query: states of a reachability search."""
        return answer[2] if self.queries[key][1] == "reach" else 0

    def check(self, key, answer, pt):
        gi, kind, counts, target = self.queries[key]
        family, n, edges, adj = self.graphs[gi]
        path = pt.Graph(n, edges) if family == "path" else None
        problems = []
        if kind == "reach":
            verdict, witness, _ = answer
            if verdict:
                final = oracle.replay(adj, counts, witness)
                if final is None or final[target] < 1:
                    problems.append(f"witness {witness} does not reach {target}")
            elif oracle.reachable(adj, counts, target):
                problems.append("reported unreachable, oracle reaches it")
            if path and verdict != (pt.max_pebbles_to_path_greedy(
                    path, pt.Distribution(counts), target) >= 1):
                problems.append("verdict disagrees with the path greedy")
        elif kind == "solve":
            if answer != oracle.solvable(adj, counts):
                problems.append(f"is_solvable {answer}, oracle disagrees")
            if path and answer != all(pt.max_pebbles_to_path_greedy(
                    path, pt.Distribution(counts), t) >= 1 for t in range(n)):
                problems.append("verdict disagrees with the path greedy")
        elif kind == "max":
            want = oracle.max_to(adj, counts, target)
            if answer != want:
                problems.append(f"max_pebbles_to {answer}, oracle {want}")
            if path and answer != pt.max_pebbles_to_path_greedy(
                    path, pt.Distribution(counts), target):
                problems.append("value disagrees with the path greedy")
        else:
            problems += self._check_chain(key, family, n, adj, counts, answer)
        return problems

    def _check_chain(self, key, family, n, adj, counts, steps):
        problems = []
        before_ok = oracle.solvable(adj, counts)
        if not before_ok:
            problems.append(f"start {counts} is not solvable")
        for rule, branch, n_after, edges, after, net, verdict in steps:
            canonical = path_edges(n_after) if family == "path" else cycle_edges(n_after)
            if sorted(tuple(sorted(e)) for e in canonical) != sorted(edges):
                problems.append(f"{rule}: result is not a canonical {family}")
            if len(after) != n_after or net < 1 or sum(counts) - sum(after) != net:
                problems.append(f"{rule}: {counts} -> {after} removes {net}")
            adj = oracle.adjacency(n_after, edges)
            after_ok = oracle.solvable(adj, after)
            if verdict != after_ok:
                problems.append(f"is_solvable {verdict} on {after}, oracle disagrees")
            if before_ok and not after_ok:
                self.unsound.append(f"{key}: {rule}{f' ({branch})' if branch else ''} "
                                    f"{family}:{len(counts)} {list(counts)} -> "
                                    f"{family}:{n_after} {list(after)}")
            counts, before_ok = after, after_ok
        return problems


WORKLOADS = {w.name: w for w in (FoptSweep, Classical, EngineQueries)}
