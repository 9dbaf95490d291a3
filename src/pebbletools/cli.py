"""Command-line front end.

Subcommands
-----------
fopt      optimal pebbling number of a graph (or the closed-form
          construction for paths/cycles with --construct)
verify    sweep a family, comparing closed-form values against brute force
graham    check the product upper bound f_opt(GxH) <= f_opt(G)*f_opt(H)
solvable  reachability / solvability of one distribution
reduce    apply size-reducing surgeries to a distribution

Graph specs follow the grammar

    SPEC := "path:" INT | "cycle:" INT | "product(" SPEC "," SPEC ")"
          | "file:" PATH

Exit codes: 0 success/holds, 1 verification failure or unreachable,
2 usage or parse error, 3 budget or size cap exceeded, 4 no surgery
applies.  All results go to stdout, diagnostics to stderr.  JSON output
(--json) is byte-identical across runs for identical inputs; --timing adds
a wall-clock field and therefore breaks byte-identity.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .engine import Distribution, is_reachable, is_solvable
from .errors import BudgetError, NotApplicableError, PebblingError, SizeLimitError
from .graphs import (
    Graph,
    cartesian_product,
    is_canonical_cycle,
    is_canonical_path,
    load_edge_list,
    make_cycle,
    make_path,
)
from .invariants import (
    construct_optimal_cycle_distribution,
    construct_optimal_path_distribution,
    formula_fopt_cycle,
    formula_fopt_path,
    graham_optimal_check,
    optimal_pebbling_number,
)
from .surgery import try_reduce

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NOT_APPLICABLE = 4


# ---------------------------------------------------------------------------
# graph spec grammar


class _SpecParser:
    """Recursive-descent parser for the graph spec grammar."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> ValueError:
        return ValueError(f"spec parse error at position {self.pos}: "
                          f"{message} (in {self.text!r})")

    def literal(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.fail("expected an integer")
        return int(self.text[start:self.pos])

    def spec(self) -> Graph:
        if self.literal("path:"):
            return make_path(self.integer())
        if self.literal("cycle:"):
            return make_cycle(self.integer())
        if self.literal("product("):
            left = self.spec()
            if not self.literal(","):
                raise self.fail("expected ',' between product factors")
            right = self.spec()
            if not self.literal(")"):
                raise self.fail("expected ')' closing product")
            return cartesian_product(left, right)
        if self.literal("file:"):
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] not in ",)":
                self.pos += 1
            path = self.text[start:self.pos].strip()
            if not path:
                raise self.fail("expected a file path")
            return load_edge_list(path)
        raise self.fail("expected path:, cycle:, product(, or file:")


def parse_graph_spec(s: str) -> Graph:
    """Parse a graph spec string into a Graph."""
    parser = _SpecParser(s.strip())
    g = parser.spec()
    if parser.pos != len(parser.text):
        raise parser.fail("unexpected trailing input")
    return g


def _split_pair(s: str) -> tuple[str, str]:
    """Split "SPEC,SPEC" at the single top-level comma."""
    depth = 0
    cut = None
    for idx, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            if cut is not None:
                raise ValueError(f"pair {s!r} has more than one top-level comma")
            cut = idx
    if cut is None:
        raise ValueError(f"pair {s!r} needs a top-level comma between factors")
    return s[:cut].strip(), s[cut + 1:].strip()


# ---------------------------------------------------------------------------
# shared plumbing


def _search_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {}
    if args.max_vertices is not None:
        kwargs["max_vertices"] = args.max_vertices
    if args.max_pebbles is not None:
        kwargs["max_pebbles"] = args.max_pebbles
    return kwargs


def _emit(args: argparse.Namespace, started: float, command: str,
          inputs: dict, result: dict, human_lines: list[str], *,
          states: int = 0, examined: int = 0) -> None:
    """Print the report as JSON or as human_lines; every command ends here."""
    payload = {"command": command, "inputs": inputs, "result": result,
               "stats": {"states_explored": states,
                         "distributions_examined": examined}}
    if args.timing:
        payload["stats"]["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    for line in human_lines:
        print(line)
    if args.timing:
        print(f"elapsed_ms: {payload['stats']['elapsed_ms']}")


def _csv_out(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if cell is None else
                         (str(cell).lower() if isinstance(cell, bool) else cell)
                         for cell in row])


def _run_rows(worker, items: list, jobs: int) -> list:
    """Run worker over items, preserving input order regardless of jobs."""
    if jobs <= 1:
        return [worker(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


# ---------------------------------------------------------------------------
# fopt


def cmd_fopt(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g = parse_graph_spec(args.spec)
    if args.construct:
        if is_canonical_path(g):
            dist = construct_optimal_path_distribution(g.n)
            value = formula_fopt_path(g.n)
        elif is_canonical_cycle(g):
            dist = construct_optimal_cycle_distribution(g.n)
            value = formula_fopt_cycle(g.n)
        else:
            raise ValueError("--construct requires a path or cycle spec")
        lines = [f"f_opt({args.spec}) = {value} (closed form)",
                 f"witness: {dist.format()}"]
        _emit(args, started, "fopt", {"spec": args.spec, "construct": True},
              {"value": value, "witness": list(dist.counts)}, lines)
        return EXIT_OK

    report = optimal_pebbling_number(
        g, max_distributions=args.budget_states, **_search_kwargs(args))
    lines = [f"f_opt({args.spec}) = {report.value}",
             f"witness: {report.witness.format()}"]
    _emit(args, started, "fopt", {"spec": args.spec, "construct": False},
          {"value": report.value, "witness": list(report.witness.counts)},
          lines, examined=report.distributions_examined)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_row(item: tuple) -> dict:
    family, n, budget, caps = item
    if family == "path":
        g, formula = make_path(n), formula_fopt_path(n)
    else:
        g, formula = make_cycle(n), formula_fopt_cycle(n)
    try:
        report = optimal_pebbling_number(g, max_distributions=budget, **caps)
    except (BudgetError, SizeLimitError) as exc:
        return {"n": n, "formula": formula, "brute_force": None,
                "match": False, "examined": 0, "error": str(exc)}
    return {"n": n, "formula": formula, "brute_force": report.value,
            "match": report.value == formula,
            "examined": report.distributions_examined, "error": None}


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    start_n = 1 if args.family == "path" else 3
    if args.max_n < start_n:
        raise ValueError(f"--max-n must be at least {start_n} for the "
                         f"{args.family} family, got {args.max_n}")
    caps = _search_kwargs(args)
    items = [(args.family, n, args.budget_states, caps)
             for n in range(start_n, args.max_n + 1)]
    rows = _run_rows(_verify_row, items, args.jobs)

    budget_hit = any(row["error"] is not None for row in rows)
    all_match = all(row["match"] for row in rows)
    examined = sum(row["examined"] for row in rows)
    for row in rows:
        if row["error"] is not None:
            print(f"n={row['n']}: {row['error']}", file=sys.stderr)

    if args.csv:
        _csv_out(["n", "formula", "brute_force", "match"],
                 [[r["n"], r["formula"], r["brute_force"], r["match"]]
                  for r in rows])
    else:
        lines = [f"{'n':>4} {'formula':>8} {'brute':>6} match"]
        for r in rows:
            brute = "-" if r["brute_force"] is None else r["brute_force"]
            lines.append(f"{r['n']:>4} {r['formula']:>8} {brute:>6} "
                         f"{str(r['match']).lower()}")
        lines.append(f"all rows match: {str(all_match).lower()}")
        result = {"rows": [{k: r[k] for k in ("n", "formula", "brute_force",
                                              "match", "error")} for r in rows],
                  "all_match": all_match}
        _emit(args, started, "verify",
              {"family": args.family, "max_n": args.max_n}, result, lines,
              examined=examined)

    if budget_hit:
        return EXIT_BUDGET
    return EXIT_OK if all_match else EXIT_FAILURE


# ---------------------------------------------------------------------------
# graham


def _graham_row(item: tuple) -> dict:
    pair, budget, max_vertices = item
    spec_g, spec_h = _split_pair(pair)
    base = {"g": spec_g, "h": spec_h, "fopt_g": None, "fopt_h": None,
            "fopt_product": None, "bound": None, "holds": None,
            "tight": None, "examined": 0, "error": None}
    try:
        g = parse_graph_spec(spec_g)
        h = parse_graph_spec(spec_h)
        kwargs = {}
        if max_vertices is not None:
            kwargs["max_product_vertices"] = max_vertices
        check = graham_optimal_check(g, h, max_distributions=budget, **kwargs)
    except (BudgetError, SizeLimitError) as exc:
        base["error"] = str(exc)
        return base
    base.update(fopt_g=check.fopt_g, fopt_h=check.fopt_h,
                fopt_product=check.fopt_product, bound=check.bound,
                holds=check.holds, tight=check.tight,
                examined=check.distributions_examined)
    return base


def cmd_graham(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    for pair in args.pairs:
        _split_pair(pair)  # surface malformed pairs as usage errors up front
    items = [(pair, args.budget_states, args.max_vertices)
             for pair in args.pairs]
    rows = _run_rows(_graham_row, items, args.jobs)

    budget_hit = any(row["error"] is not None for row in rows)
    all_hold = all(row["holds"] is True for row in rows)
    examined = sum(row["examined"] for row in rows)
    for row in rows:
        if row["error"] is not None:
            print(f"{row['g']} x {row['h']}: {row['error']}", file=sys.stderr)

    header = ["g", "h", "fopt_g", "fopt_h", "fopt_product", "bound",
              "holds", "tight"]
    if args.csv:
        _csv_out(header, [[r[k] for k in header] for r in rows])
    else:
        lines = []
        for r in rows:
            if r["error"] is not None:
                lines.append(f"{r['g']} x {r['h']}: error ({r['error']})")
                continue
            rel = "=" if r["tight"] else "<"
            verdict = "holds" if r["holds"] else "VIOLATED"
            lines.append(
                f"{r['g']} x {r['h']}: f_opt = {r['fopt_product']} {rel} "
                f"{r['fopt_g']}*{r['fopt_h']} = {r['bound']} -> {verdict}")
        lines.append(f"all pairs hold: {str(all_hold).lower()}")
        result = {"rows": [{k: r[k] for k in header + ["error"]} for r in rows],
                  "all_hold": all_hold}
        _emit(args, started, "graham",
              {"pairs": [list(_split_pair(p)) for p in args.pairs]}, result,
              lines, examined=examined)

    if budget_hit:
        return EXIT_BUDGET
    return EXIT_OK if all_hold else EXIT_FAILURE


# ---------------------------------------------------------------------------
# solvable


def cmd_solvable(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g = parse_graph_spec(args.spec)
    dist = Distribution.parse(args.dist, n=g.n)
    kwargs = _search_kwargs(args)

    if args.target is not None:
        if not 0 <= args.target < g.n:
            raise ValueError(f"target {args.target} out of range for "
                             f"{g.n} vertices")
        report = is_reachable(g, dist, args.target,
                              state_budget=args.budget_states, **kwargs)
        witness = None
        if report.witness is not None:
            witness = [str(move) for move in report.witness]
        if report.verdict:
            moves = " ".join(witness) if witness else "(already occupied)"
            lines = [f"target {args.target} reachable: {moves}"]
        else:
            lines = [f"target {args.target} unreachable"]
        _emit(args, started, "solvable",
              {"spec": args.spec, "dist": args.dist, "target": args.target},
              {"target": args.target, "reachable": report.verdict,
               "witness": witness},
              lines, states=report.states_explored)
        return EXIT_OK if report.verdict else EXIT_FAILURE

    per_vertex = []
    states = 0
    for t in range(g.n):
        report = is_reachable(g, dist, t, state_budget=args.budget_states,
                              **kwargs)
        states += report.states_explored
        per_vertex.append({"target": t, "reachable": report.verdict})
    solvable = all(entry["reachable"] for entry in per_vertex)
    unreachable = [e["target"] for e in per_vertex if not e["reachable"]]
    if solvable:
        lines = [f"solvable: every vertex of {args.spec} is reachable"]
    else:
        lines = ["unsolvable: unreachable targets " +
                 ",".join(str(t) for t in unreachable)]
    _emit(args, started, "solvable",
          {"spec": args.spec, "dist": args.dist, "target": None},
          {"solvable": solvable, "per_vertex": per_vertex}, lines, states=states)
    return EXIT_OK if solvable else EXIT_FAILURE


# ---------------------------------------------------------------------------
# reduce


def _family_label(g: Graph) -> str:
    if is_canonical_path(g):
        return f"path:{g.n}"
    if is_canonical_cycle(g):
        return f"cycle:{g.n}"
    return f"graph:{g.n}"


def cmd_reduce(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g = parse_graph_spec(args.spec)
    dist = Distribution.parse(args.dist, n=g.n)
    kwargs = _search_kwargs(args)

    steps = []
    checks_ok = True
    while True:
        try:
            result = try_reduce(g, dist)
        except NotApplicableError:
            if not steps:
                raise
            break
        step = {
            "rule": result.rule,
            "branch": result.branch,
            "graph_before": _family_label(g),
            "graph_after": _family_label(result.graph_after),
            "before": list(dist.counts),
            "after": list(result.dist_after.counts),
            "index_map": {str(old): new
                          for old, new in sorted(result.index_map.items())},
            "net_removed": result.pebbles_removed_net,
            "solvable_after": None,
        }
        if args.check:
            ok = is_solvable(result.graph_after, result.dist_after, **kwargs)
            step["solvable_after"] = ok
            checks_ok = checks_ok and ok
        steps.append(step)
        g, dist = result.graph_after, result.dist_after
        if not args.to_fixpoint:
            break

    result = {"steps": steps,
              "final_graph": _family_label(g),
              "final_dist": list(dist.counts),
              "checks_passed": checks_ok if args.check else None}
    lines = []
    for step in steps:
        branch = f" (branch {step['branch']})" if step["branch"] else ""
        note = ""
        if step["solvable_after"] is not None:
            note = " [solvable]" if step["solvable_after"] else " [UNSOLVABLE]"
        mapping = " ".join(f"{old}->{new}"
                           for old, new in step["index_map"].items())
        lines.append(
            f"applied {step['rule']}{branch}: {step['graph_before']} "
            f"{step['before']} -> {step['graph_after']} {step['after']}"
            f"{note}; index map {mapping}")
    lines.append(f"final: {result['final_graph']} {result['final_dist']}")
    _emit(args, started, "reduce",
          {"spec": args.spec, "dist": args.dist,
           "to_fixpoint": args.to_fixpoint, "check": args.check},
          result, lines)
    if args.check and not checks_ok:
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    shared.add_argument("--timing", action="store_true",
                        help="include wall-clock elapsed_ms in the output "
                             "(breaks byte-identical JSON)")
    shared.add_argument("--max-pebbles", type=int, default=None, metavar="N",
                        help="cap on distribution size (default 64)")
    shared.add_argument("--max-vertices", type=int, default=None, metavar="N",
                        help="cap on vertex count for exact search "
                             "(default 20; 16 for graham products)")
    shared.add_argument("--budget-states", type=int, default=None, metavar="N",
                        help="abort after exploring/examining N states or "
                             "distributions (default unlimited)")

    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--csv", action="store_true",
                       help="emit the result table as CSV")
    table.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for sweeps (default 1); "
                            "results are independent of N")

    parser = argparse.ArgumentParser(
        prog="pebbletools",
        description="Exact pebbling computations on paths, cycles, products, "
                    "and small edge-list graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fopt", parents=[shared],
                       help="optimal pebbling number of a graph")
    p.add_argument("spec", help="graph spec, e.g. cycle:7 or "
                                "product(path:3,path:3)")
    p.add_argument("--construct", action="store_true",
                   help="emit the closed-form optimal distribution "
                        "(paths and cycles only, no search)")
    p.set_defaults(func=cmd_fopt)

    p = sub.add_parser("verify", parents=[shared, table],
                       help="closed-form values vs brute force over a family")
    p.add_argument("family", choices=["path", "cycle"])
    p.add_argument("--max-n", type=int, required=True, metavar="N",
                   help="largest member of the family to check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graham", parents=[shared, table],
                       help="product upper bound checks for factor pairs")
    p.add_argument("pairs", nargs="+", metavar="G,H",
                   help="factor pair, e.g. path:3,path:3")
    p.set_defaults(func=cmd_graham)

    p = sub.add_parser("solvable", parents=[shared],
                       help="solvability / reachability of a distribution")
    p.add_argument("spec")
    p.add_argument("--dist", required=True,
                   help="comma-separated pebble counts, one per vertex")
    p.add_argument("--target", type=int, default=None,
                   help="single target vertex (default: all vertices)")
    p.set_defaults(func=cmd_solvable)

    p = sub.add_parser("reduce", parents=[shared],
                       help="apply size-reducing surgeries")
    p.add_argument("spec")
    p.add_argument("--dist", required=True,
                   help="comma-separated pebble counts, one per vertex")
    p.add_argument("--to-fixpoint", action="store_true",
                   help="keep reducing until nothing applies")
    p.add_argument("--check", action="store_true",
                   help="verify solvability after every step")
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SizeLimitError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except (ValueError, OSError, PebblingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
