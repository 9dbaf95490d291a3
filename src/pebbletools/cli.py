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
    PAIR := SPEC "," SPEC        (graham; whitespace allowed around each SPEC)

INT is ASCII digits 0-9 (`errors.parse_natural`), and so is every other
number typed on the command line (each --dist count, --target, --max-n
and the three caps) or read from a `file:` edge list.  A run of digits
too long for int() and a product nested deeper than the stack allows are
parse errors, not a Python ValueError or RecursionError; an error quotes
at most `errors._QUOTE` characters of a spec, a --dist, a number, a
`file:` line or a `file:` path the OS refuses.  Every spec a command
builds is parsed under the command's vertex cap, so a `path:`, `cycle:`,
`file:` or `product(` spec over it is refused before it is built.
`fopt --construct` builds no graph: it takes `path:N` or `cycle:N` and
reads the order alone; an order over 10**6 is a size cap error, refused
before its witness is built.
Paths and cycles share one closed form, `formula_fopt`, and one
construction, `construct_optimal_distribution`, for `--construct` and
`verify` alike.  Each rule on a query's path has one place:
`_SpecParser.family` is the one reader of a `path:` or `cycle:` prefix
(the families of `graphs._LEAST_ORDER`), for a spec and for
`--construct`; `_row` is the one place where
a sweep's search stopped by a budget or a cap becomes a row with its
`examined` and `error`.

Exit codes: 0 success/holds, 1 verification failure or unreachable,
2 usage or parse error, 3 budget or size cap exceeded, 4 no surgery
applies.  All results go to stdout, diagnostics to stderr.  JSON output
(--json) is byte-identical across runs for identical inputs; --timing adds
a wall-clock field and therefore breaks byte-identity.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from collections.abc import Iterable

from .engine import (MAX_ENGINE_PEBBLES, MAX_ENGINE_VERTICES, Distribution,
                     is_reachable, is_solvable)
from .errors import (BudgetError, NotApplicableError, PebblingError,
                     SizeLimitError, _check_cap, _quote, parse_natural)
from .graphs import (
    _LEAST_ORDER,
    Graph,
    canonical_family,
    cartesian_product,
    load_edge_list,
    make_cycle,
    make_path,
)
from .invariants import (
    MAX_GRAHAM_PRODUCT_VERTICES,
    _check_connected,
    construct_optimal_distribution,
    formula_fopt,
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
    """Recursive-descent parser for the graph spec grammar.  A `path:`,
    `cycle:`, `file:` or `product(` spec over `max_vertices` is refused
    before it is built."""

    def __init__(self, text: str, max_vertices: int):
        self.text = text
        self.pos = 0
        self.max_vertices = max_vertices

    def fail(self, message: str) -> ValueError:
        """A parse error at the current position, quoting the spec around
        it (`errors._quote`)."""
        return ValueError(f"spec parse error at position {self.pos}: {message} "
                          f"({_quote(self.text, self.pos, 'in ')})")

    def literal(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def run(self, accept) -> str:
        """Advance over the longest run of characters that `accept` takes,
        and return it."""
        start = self.pos
        while self.pos < len(self.text) and accept(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self) -> int:
        digits = self.run(lambda c: "0" <= c <= "9")
        try:
            return parse_natural(digits)
        except ValueError as exc:
            self.pos -= len(digits)
            raise self.fail(str(exc)) from None

    def order(self) -> int:
        """The vertex count of a path: or cycle: spec, within the cap."""
        n = self.integer()
        _check_cap(n, self.max_vertices)
        return n

    def family(self) -> str | None:
        """Read a `path:` or `cycle:` prefix and return its family; None,
        with nothing read, before any other text."""
        return next((f for f in _LEAST_ORDER if self.literal(f"{f}:")), None)

    def spec(self) -> Graph:
        family = self.family()
        if family is not None:
            return (make_path if family == "path" else make_cycle)(self.order())
        if self.literal("product("):
            try:
                left = self.spec()
            except RecursionError:
                # Each stack depth is first reached inside a left factor, so
                # the stack runs out here, however the products nest.
                raise self.fail("product( nested too deeply") from None
            if not self.literal(","):
                raise self.fail("expected ',' between product factors")
            right = self.spec()
            if not self.literal(")"):
                raise self.fail("expected ')' closing product")
            return cartesian_product(left, right,
                                     max_vertices=self.max_vertices)
        if self.literal("file:"):
            path = self.run(lambda c: c not in ",)").strip()
            if not path:
                raise self.fail("expected a file path")
            return load_edge_list(path, self.max_vertices)
        raise self.fail("expected path:, cycle:, product(, or file:")

    def spaced_spec(self) -> tuple[str, Graph]:
        """A spec with optional whitespace on either side, and its text
        stripped of that whitespace."""
        self.run(str.isspace)
        start = self.pos
        g = self.spec()
        self.run(str.isspace)
        return self.text[start:self.pos].strip(), g

    def pair(self) -> tuple[tuple[str, str], tuple[Graph, Graph]]:
        """PAIR: the two spec texts and their graphs."""
        spec_g, g = self.spaced_spec()
        if not self.literal(","):
            raise self.fail("expected a comma between the two specs of a pair")
        spec_h, h = self.spaced_spec()
        self.end()
        return (spec_g, spec_h), (g, h)

    def end(self) -> None:
        if self.pos != len(self.text):
            raise self.fail("unexpected trailing input")


def parse_graph_spec(s: str, max_vertices: int) -> Graph:
    """Parse a graph spec string into a Graph; a path:, cycle:, file: or
    product( spec over max_vertices raises SizeLimitError before it is
    built."""
    parser = _SpecParser(s.strip(), max_vertices)
    g = parser.spec()
    parser.end()
    return g


# ---------------------------------------------------------------------------
# shared plumbing


def _emit(args: argparse.Namespace, inputs: dict, result: dict,
          human_lines: Iterable[str], *, states: int = 0,
          examined: int = 0) -> None:
    """Print the report of args.command as JSON or as human_lines; every
    command ends here.  The JSON is written as it is encoded, so a `_Rows`
    in `result` is never held whole.  --timing reports the time since
    `main` stamped args.started."""
    payload = {"command": args.command, "inputs": inputs, "result": result,
               "stats": {"states_explored": states,
                         "distributions_examined": examined}}
    if args.timing:
        payload["stats"]["elapsed_ms"] = int(
            (time.perf_counter() - args.started) * 1000)
    if args.json:
        json.dump(payload, sys.stdout, sort_keys=True, indent=2)
        print()
        return
    for line in human_lines:
        print(line)
    if args.timing:
        print(f"elapsed_ms: {payload['stats']['elapsed_ms']}")


def _bounds(exc: PebblingError) -> str:
    """The suffix of a stopped search's stderr line, for `main` and a
    sweep row alike: its bounds and the rows it examined, or "" when it
    carries no bounds."""
    lower, upper = (getattr(exc, "lower_bound", None),
                    getattr(exc, "upper_bound", None))
    if lower is None and upper is None:
        return ""
    return f" (lower bound {lower}, upper bound {upper}, {exc.examined} examined)"


def _row(row: dict, search) -> dict:
    """A sweep row: `row` updated by `search()`, which returns the
    report's fields and its `examined`.  The one place where a search
    stopped by BudgetError or SizeLimitError becomes a row: its fields
    stay as `row` has them, and `examined`, `error` and the stderr suffix
    `bounds` come from the exception."""
    try:
        return {**row, **search(), "error": None}
    except (BudgetError, SizeLimitError) as exc:
        return {**row, "examined": getattr(exc, "examined", 0), "error": str(exc),
                "bounds": _bounds(exc)}


class _Rows(list):
    """The rows `make(x)` for each x of `items`, made afresh on every pass
    and never held whole.  json.dump under `indent` writes a list through
    its `__iter__`, after `__bool__` has told it the list is not empty;
    the list itself stays empty, so only iteration and truth see the
    rows, not `len` or indexing."""

    def __init__(self, make, items):
        self.make, self.items = make, items

    def __iter__(self):
        return map(self.make, self.items)

    def __bool__(self):
        return bool(self.items)


def _table(args: argparse.Namespace, inputs: dict, header: list[str],
           rows: list[dict], name: str, summary: str, ok: bool,
           human_lines: Iterable[str]) -> int:
    """Report a sweep's rows as CSV or through `_emit`, and return its exit
    code; name formats a row for its stderr error line, summary is the
    result key holding ok.  Rows are read in two passes, one for stderr
    and one for the output, so a `_Rows` makes each unheld row twice."""
    examined, failed = 0, False
    for row in rows:
        examined += row["examined"]
        if row["error"] is not None:
            failed = True
            print(f"{name.format(**row)}: {row['error']}{row['bounds']}",
                  file=sys.stderr)
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            ["" if c is None else str(c).lower() if isinstance(c, bool) else c
             for c in (r[k] for k in header)] for r in rows)
    else:
        keys = header + ["error"]
        result = {"rows": _Rows(lambda r: {k: r[k] for k in keys}, rows),
                  summary: ok}
        _emit(args, inputs, result, human_lines, examined=examined)
    if failed:
        return EXIT_BUDGET
    return EXIT_OK if ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# fopt

# The largest order whose witness `fopt --construct` builds.
_MAX_CONSTRUCT_VERTICES = 10**6


def cmd_fopt(args: argparse.Namespace) -> int:
    if args.construct:
        # The closed form needs the order alone, so no graph is built.
        parser = _SpecParser(args.spec.strip(), _MAX_CONSTRUCT_VERTICES)
        family = parser.family()
        if family is None:
            raise ValueError("--construct requires a path or cycle spec")
        n = parser.order()
        parser.end()
        value = formula_fopt(family, n)
        witness = construct_optimal_distribution(family, n)
        examined, note = 0, " (closed form)"
    else:
        g = parse_graph_spec(args.spec, args.caps["max_vertices"])
        report = optimal_pebbling_number(g, max_distributions=args.budget_states,
                                         **args.caps)
        value, witness = report.value, report.witness
        examined, note = report.distributions_examined, ""
    _emit(args, {"spec": args.spec, "construct": args.construct},
          {"value": value, "witness": list(witness.counts)},
          [f"f_opt({args.spec}) = {value}{note}",
           f"witness: {witness.format()}"], examined=examined)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_row(args: argparse.Namespace, n: int) -> dict:
    formula = formula_fopt(args.family, n)

    def search():
        g = parse_graph_spec(f"{args.family}:{n}", args.caps["max_vertices"])
        report = optimal_pebbling_number(g, max_distributions=args.budget_states,
                                         **args.caps)
        return {"brute_force": report.value, "match": report.value == formula,
                "examined": report.distributions_examined}

    return _row({"n": n, "formula": formula, "brute_force": None,
                 "match": False}, search)


def cmd_verify(args: argparse.Namespace) -> int:
    start_n = _LEAST_ORDER[args.family]
    if args.max_n < start_n:
        raise ValueError(f"--max-n must be at least {start_n} for the "
                         f"{args.family} family, got {args.max_n}")
    # A row past the vertex cap is an error row that depends on n alone,
    # so it is made on each pass rather than held; it does not match.
    cap = args.caps["max_vertices"]
    held = {n: _verify_row(args, n)
            for n in range(start_n, min(cap, args.max_n) + 1)}
    rows = _Rows(lambda n: held.get(n) or _verify_row(args, n),
                 range(start_n, args.max_n + 1))
    all_match = args.max_n <= cap and all(r["match"] for r in held.values())

    def lines():
        yield f"{'n':>4} {'formula':>8} {'brute':>6} match"
        for r in rows:
            brute = "-" if r["brute_force"] is None else r["brute_force"]
            yield (f"{r['n']:>4} {r['formula']:>8} {brute:>6} "
                   f"{str(r['match']).lower()}")
        yield f"all rows match: {str(all_match).lower()}"

    return _table(args, {"family": args.family, "max_n": args.max_n},
                  ["n", "formula", "brute_force", "match"], rows, "n={n}",
                  "all_match", all_match, lines())


# ---------------------------------------------------------------------------
# graham


def cmd_graham(args: argparse.Namespace) -> int:
    # Parse every pair and build its graphs before any search, so any bad
    # spec, a factor over the vertex cap or a disconnected factor ends the
    # run before a search starts.
    pairs = [_SpecParser(p, args.caps["max_vertices"]).pair() for p in args.pairs]
    for g in (g for _, graphs in pairs for g in graphs):
        _check_connected(g)
    # The report fields of a row, and the CSV header after g and h.
    fields = ["fopt_g", "fopt_h", "fopt_product", "bound", "holds", "tight"]

    def search(graphs):
        check = graham_optimal_check(*graphs, max_distributions=args.budget_states,
                                     **args.caps)
        return {**{f: getattr(check, f) for f in fields},
                "examined": check.distributions_examined}

    rows = [_row({"g": g, "h": h, **dict.fromkeys(fields)},
                 functools.partial(search, graphs)) for (g, h), graphs in pairs]
    all_hold = all(row["holds"] is True for row in rows)
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
    return _table(args, {"pairs": [list(specs) for specs, _ in pairs]},
                  ["g", "h", *fields], rows, "{g} x {h}", "all_hold", all_hold,
                  lines)


# ---------------------------------------------------------------------------
# solvable


def cmd_solvable(args: argparse.Namespace) -> int:
    g = parse_graph_spec(args.spec, args.caps["max_vertices"])
    dist = Distribution.parse(args.dist)
    targets = range(g.n) if args.target is None else [args.target]
    reports = [is_reachable(g, dist, t, state_budget=args.budget_states,
                            **args.caps) for t in targets]
    ok = all(report.verdict for report in reports)

    if args.target is not None:
        witness = reports[0].witness
        witness = None if witness is None else [str(move) for move in witness]
        moves = " ".join(witness or ["(already occupied)"])
        lines = [f"target {args.target} reachable: {moves}" if ok
                 else f"target {args.target} unreachable"]
        result = {"target": args.target, "reachable": ok, "witness": witness}
    else:
        unreachable = ",".join(str(t) for t in targets if not reports[t].verdict)
        lines = [f"unsolvable: unreachable targets {unreachable}" if unreachable
                 else f"solvable: every vertex of {args.spec} is reachable"]
        result = {"solvable": ok,
                  "per_vertex": [{"target": t, "reachable": reports[t].verdict}
                                 for t in targets]}
    _emit(args, {"spec": args.spec, "dist": args.dist, "target": args.target},
          result, lines, states=sum(r.states_explored for r in reports))
    return EXIT_OK if ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args: argparse.Namespace) -> int:
    g = parse_graph_spec(args.spec, args.caps["max_vertices"])
    dist = Distribution.parse(args.dist)
    # Every surgery keeps a path a path and a cycle a cycle, and try_reduce
    # refuses any other graph before a label is printed.
    family = canonical_family(g)

    steps, lines = [], []
    while True:
        try:
            result = try_reduce(g, dist)
        except NotApplicableError:
            if not steps:
                raise
            break
        solvable = (is_solvable(result.graph_after, result.dist_after,
                                state_budget=args.budget_states, **args.caps)
                    if args.check else None)
        step = {
            "rule": result.rule,
            "branch": result.branch,
            "graph_before": f"{family}:{g.n}",
            "graph_after": f"{family}:{result.graph_after.n}",
            "before": list(dist.counts),
            "after": list(result.dist_after.counts),
            "index_map": {str(old): new
                          for old, new in sorted(result.index_map.items())},
            "net_removed": result.pebbles_removed_net,
            "solvable_after": solvable,
        }
        steps.append(step)
        branch = f" (branch {step['branch']})" if step["branch"] else ""
        note = ("" if solvable is None
                else " [solvable]" if solvable else " [UNSOLVABLE]")
        mapping = " ".join(f"{old}->{new}"
                           for old, new in step["index_map"].items())
        lines.append(
            f"applied {step['rule']}{branch}: {step['graph_before']} "
            f"{step['before']} -> {step['graph_after']} {step['after']}"
            f"{note}; index map {mapping}")
        g, dist = result.graph_after, result.dist_after
        if not args.to_fixpoint:
            break

    result = {"steps": steps,
              "final_graph": f"{family}:{g.n}",
              "final_dist": list(dist.counts),
              "checks_passed": (all(step["solvable_after"] for step in steps)
                                if args.check else None)}
    lines.append(f"final: {result['final_graph']} {result['final_dist']}")
    _emit(args, {"spec": args.spec, "dist": args.dist,
                 "to_fixpoint": args.to_fixpoint, "check": args.check},
          result, lines)
    return EXIT_FAILURE if result["checks_passed"] is False else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _cap(text: str) -> int:
    """argparse type of every integer flag: `parse_natural` digits."""
    try:
        return parse_natural(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {_quote(text)}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    shared.add_argument("--timing", action="store_true",
                        help="include wall-clock elapsed_ms in the output "
                             "(breaks byte-identical JSON)")
    shared.add_argument("--max-pebbles", type=_cap, default=MAX_ENGINE_PEBBLES,
                        metavar="N", help="cap on distribution size (default "
                                          f"{MAX_ENGINE_PEBBLES})")
    shared.add_argument("--max-vertices", type=_cap, default=None, metavar="N",
                        help="cap on vertex count for exact search (default "
                             f"{MAX_ENGINE_VERTICES}; {MAX_GRAHAM_PRODUCT_VERTICES}"
                             " for every graham search)")
    shared.add_argument("--budget-states", type=_cap, default=None, metavar="N",
                        help="abort after exploring/examining N states or "
                             "distributions (default unlimited); solvable "
                             "applies it to each target's search separately")

    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--csv", action="store_true",
                       help="emit the result table as CSV")

    # solvable and reduce: one graph and one distribution on it
    placed = argparse.ArgumentParser(add_help=False)
    placed.add_argument("spec")
    placed.add_argument("--dist", required=True,
                        help="comma-separated pebble counts, one per vertex")

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
    p.add_argument("--max-n", type=_cap, required=True, metavar="N",
                   help="largest member of the family to check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graham", parents=[shared, table],
                       help="product upper bound checks for factor pairs")
    p.add_argument("pairs", nargs="+", metavar="G,H",
                   help="factor pair, e.g. path:3,path:3")
    p.set_defaults(func=cmd_graham)

    p = sub.add_parser("solvable", parents=[shared, placed],
                       help="solvability / reachability of a distribution")
    p.add_argument("--target", type=_cap, default=None,
                   help="single target vertex (default: all vertices)")
    p.set_defaults(func=cmd_solvable)

    p = sub.add_parser("reduce", parents=[shared, placed],
                       help="apply size-reducing surgeries")
    p.add_argument("--to-fixpoint", action="store_true",
                   help="keep reducing until nothing applies")
    p.add_argument("--check", action="store_true",
                   help="verify solvability after every step")
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.started = time.perf_counter()
    # Every search and spec of the command runs under these caps; a graham
    # search is a product search, so its vertex cap defaults to the product's.
    cap = (MAX_GRAHAM_PRODUCT_VERTICES if args.command == "graham"
           else MAX_ENGINE_VERTICES)
    args.caps = {"max_pebbles": args.max_pebbles, "max_vertices":
                 cap if args.max_vertices is None else args.max_vertices}
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}{_bounds(exc)}", file=sys.stderr)
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
