"""Check every golden report against perfbench/oracle.py, which shares no
code with pebbletools; this script imports none of it either.

Usage: python tests/golden_oracle.py [GOLDEN_DIR]

GOLDEN_DIR (default: tests/golden) holds the goldens and commands.txt,
which names them.  For each report it checks that

* a path or cycle f_opt value, a verify row's formula and brute force,
  and a graham factor's value equal the closed form 2t + r;
* an f_opt witness has one count per vertex, sums to the value and is
  solvable;
* each per-vertex verdict is the oracle's reachability;
* a --target witness replays onto its target;
* each reduce step's solvable_after is the oracle's solvability of its
  `after` on `graph_after`;
* graham's bound is the product of the factor values, and holds and
  tight compare the product's value with it.

Each failed check is printed; the exit code is 1 if any failed, else 0.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402


FAMILY = re.compile(r"\s*(path|cycle):(\d+)\s*")


def closed_form(spec: str) -> int | None:
    """f_opt of a `path:` or `cycle:` spec by the closed form, else None."""
    family = FAMILY.fullmatch(spec)
    return family and oracle.fopt_path_or_cycle(int(family[2]))


def graph(spec: str):
    """Adjacency of a `path:`, `cycle:` or `product(` spec; a product's
    vertex (a, b) has index a * |H| + b."""
    family = FAMILY.fullmatch(spec)
    if family:
        n = int(family[2])
        edges = [(i, i + 1) for i in range(n - 1)]
        if family[1] == "cycle":
            edges.append((n - 1, 0))
        return oracle.adjacency(n, edges)
    spec = spec.strip()
    if not (spec.startswith("product(") and spec.endswith(")")):
        raise ValueError(f"no oracle graph for the spec {spec!r}")
    inner = spec[len("product("):-1]
    depth = 0
    for i, c in enumerate(inner):  # the comma between the two factors
        depth += (c == "(") - (c == ")")
        if c == "," and depth == 0:
            break
    g, h = graph(inner[:i]), graph(inner[i + 1:])
    edges = [(a * len(h) + b, a * len(h) + c) for a in range(len(g))
             for b in range(len(h)) for c in h[b]]
    edges += [(a * len(h) + b, c * len(h) + b) for a in range(len(g))
              for c in g[a] for b in range(len(h))]
    return oracle.adjacency(len(g) * len(h), edges)


def check(report: dict) -> list[str]:
    """The failed checks of one report."""
    failed = []

    def expect(ok, what):
        if not ok:
            failed.append(what)

    inputs, result = report["inputs"], report["result"]
    command = report["command"]
    if command == "fopt":
        adj, closed = graph(inputs["spec"]), closed_form(inputs["spec"])
        value, witness = result["value"], result["witness"]
        expect(closed in (None, value), "value")
        expect(len(witness) == len(adj) and sum(witness) == value,
               "witness size")
        expect(oracle.solvable(adj, witness), "witness solvability")
    elif command == "verify":
        for row in result["rows"]:
            closed = oracle.fopt_path_or_cycle(row["n"])
            expect(row["formula"] == closed, f"n={row['n']} formula")
            expect(row["brute_force"] == closed, f"n={row['n']} brute_force")
            expect(row["match"] is True, f"n={row['n']} match")
        expect(result["all_match"] is True, "all_match")
    elif command == "solvable":
        adj = graph(inputs["spec"])
        counts = [int(c) for c in inputs["dist"].split(",")]
        if inputs["target"] is None:
            verdicts = [oracle.reachable(adj, counts, t) for t in range(len(adj))]
            expect([v["reachable"] for v in result["per_vertex"]] == verdicts,
                   "per-vertex verdicts")
            expect(result["solvable"] == all(verdicts), "solvable")
        else:
            target = inputs["target"]
            expect(result["reachable"]
                   == oracle.reachable(adj, counts, target), "reachable")
            if result["reachable"]:
                moves = [tuple(map(int, m.split("->")))
                         for m in result["witness"] or []]
                after = oracle.replay(adj, counts, moves)
                expect(after is not None and after[target] >= 1,
                       "the witness's replay")
    elif command == "reduce":
        for i, step in enumerate(result["steps"]):
            adj = graph(step["graph_after"])
            expect(step["solvable_after"] == oracle.solvable(adj, step["after"]),
                   f"step {i} solvable_after")
    elif command == "graham":
        for row in result["rows"]:
            where = f"{row['g']} x {row['h']}"
            for side in ("g", "h"):
                expect(closed_form(row[side]) in (None, row[f"fopt_{side}"]),
                       f"{where} fopt_{side}")
            expect(row["bound"] == row["fopt_g"] * row["fopt_h"], f"{where} bound")
            expect(row["holds"] == (row["fopt_product"] <= row["bound"]),
                   f"{where} holds")
            expect(row["tight"] == (row["fopt_product"] == row["bound"]),
                   f"{where} tight")
        expect(result["all_hold"] == all(r["holds"] for r in result["rows"]),
               "all_hold")
    else:
        failed.append(f"unknown command {command!r}")
    return failed


def main(golden: Path) -> int:
    lines = [shlex.split(line, comments=True)
             for line in (golden / "commands.txt").read_text().splitlines()]
    names = [words[0] for words in lines if words]
    status = 0
    for name in names:
        for what in check(json.loads((golden / name).read_text())):
            print(f"{name}: the oracle disagrees on {what}")
            status = 1
    assert "pebbletools" not in sys.modules
    print(f"{len(names)} goldens checked against the oracle")
    return status


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]) if len(sys.argv) > 1
                  else Path(__file__).resolve().parent / "golden"))
