"""pebbletools benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are fopt-sweep, classical and engine-queries (see workloads.py).
Each run is a closed loop with a single caller in this one process: it
repeats rounds of the workload's fixed, seed-generated query set until the
next round would end after S seconds (at least three rounds, four when
traced), and checks every answer against an independent oracle.

--trace 0 prints the end-to-end metrics: set-up time (median of seven fresh
interpreters importing pebbletools and building the workload's graphs, run
between rounds across the whole run), round wall time, the time of the
largest query, per-query p50 and p99 and peak RSS.  Round and query times
are medians over rounds; the percentiles are taken over the per-query
medians.  Every time is scaled by a reference workload timed next to it
(see reference.py), because the speed of a shared machine drifts by far
more than the bounds.  --trace 1 alternates untraced and traced rounds and
prints the per-layer metrics derived from the spans (see spans.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is a JSON
summary with the environment, sample counts and failed_share; each failed
check and each unsound surgery step is logged to standard error with its
input.  Spans of traced rounds are written to .bench_work/ at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from spans import HOOKS, LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4


class Raised:
    """Answer standing in for an exception the program raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


class Round:
    """One pass over the workload's queries, optionally traced."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.spans = None
        self.times: dict[str, float] = {}
        self.queries: list[str] = []
        self.answers: dict[str, object] = {}
        self.program_s = 0.0
        self.counters = None

    def run(self, key, fn, *args, sample=True):
        if self.tracer:
            self.tracer.query = key
        start = time.perf_counter()
        try:
            answer = fn(*args)
        except Exception as exc:  # a raising query is a failed operation
            answer = Raised(exc)
        spent = time.perf_counter() - start
        self.program_s += spent
        self.times[key] = spent
        if sample:
            self.queries.append(key)
        self.answers[key] = answer
        return answer

    def layer(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args, on_result=HOOKS.get(name))

    def count(self, name, value):
        if self.tracer:
            self.tracer.counters[name] += value


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SetupProbe:
    """Times the program's set-up in fresh interpreters (setup_probe.py)."""

    def __init__(self, workload, seed):
        graphs_file = WORK / f"setup-{workload.name}-{seed}.json"
        graphs_file.write_text(json.dumps(workload.graph_inputs()))
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                     str(graphs_file)]
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def measure(self):
        """One probe, scaled by the reference timed just before and after."""
        before = reference.measure()
        done = subprocess.run(self.argv, check=True, capture_output=True,
                              text=True, timeout=120)
        scale = 2 * reference.REFERENCE_S / (before + reference.measure())
        self.raw.append(float(done.stdout))
        self.scaled.append(self.raw[-1] * scale)


def p99(values):
    """99th percentile, interpolated between samples, never beyond the largest."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "pebbletools" / "__init__.py").is_file():
        print(f"perfbench: no pebbletools sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    digests_file = WORK / "digests.json"
    digests = json.loads(digests_file.read_text()) if digests_file.is_file() else {}
    workload = WORKLOADS[args.workload](args.seed, args.tiny, WORK, digests)

    setup = SetupProbe(workload, args.seed)
    sys.path.insert(0, str(SRC))
    import numpy
    import pebbletools
    import pebbletools.cli
    if Path(pebbletools.__file__).resolve().parent != SRC / "pebbletools":
        print(f"perfbench: imported {pebbletools.__file__}, not {SRC}", file=sys.stderr)
        return 2
    pt = pebbletools

    tracer = Tracer() if args.trace else None
    min_rounds = MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS
    rounds: list[Round] = []
    first: Round | None = None
    bad: dict[str, list[str]] = {}
    attempted = failed = 0
    started = time.perf_counter()
    reference_s = [reference.measure()]
    while True:
        # Set-up probes are spread over the run, between rounds, so that
        # they see the same machine phases as the rounds do.
        if len(setup.raw) * args.seconds <= (time.perf_counter() - started) * SETUP_PROBES:
            setup.measure()
        traced = tracer is not None and len(rounds) % 2 == 1
        round_start = time.perf_counter()
        rnd = Round(tracer if traced else None)
        if traced:
            first_span = len(tracer.spans)
            tracer.counters.clear()
            tracer.install(pt)
        try:
            workload.run_round(rnd, pt)
        finally:
            if traced:
                tracer.uninstall()
                rnd.counters = dict(tracer.counters)
                rnd.spans = (first_span, len(tracer.spans))
        reference_s.append(reference.measure())
        rnd.scale = 2 * reference.REFERENCE_S / (reference_s[-2] + reference_s[-1])
        for key, answer in rnd.answers.items():
            attempted += 1
            if first is None:
                problems = ([answer.text] if isinstance(answer, Raised)
                            else workload.check(key, answer, pt)
                            if key in rnd.queries else [])
                if problems:
                    bad[key] = problems
            elif answer != first.answers[key]:
                bad.setdefault(key, []).append(
                    f"round {len(rounds) + 1} answer differs from round 1")
            if key in bad:
                failed += 1
        if first is None:
            first = rnd
        else:
            rnd.answers = None
        rounds.append(rnd)
        elapsed = time.perf_counter() - started
        if (len(rounds) >= min_rounds
                and elapsed + time.perf_counter() - round_start > args.seconds):
            break
    while len(setup.raw) < SETUP_PROBES:
        setup.measure()
    if tracer and any(r.counters != rounds[1].counters for r in rounds[1::2]):
        bad["per-layer counters"] = ["counters differ between traced rounds"]
        failed += 1

    for key, problems in bad.items():
        for problem in problems:
            print(f"FAILED {workload.name} seed {args.seed} [{key}]: {problem}",
                  file=sys.stderr)
    unsound = getattr(workload, "unsound", [])
    for line in unsound:
        print(f"UNSOUND surgery step {line}", file=sys.stderr)

    plain = [r for r in rounds if r.tracer is None]
    keys = first.queries
    per_query = {k: statistics.median(r.times[k] * r.scale for r in plain) for k in keys}
    largest = max(keys, key=lambda k: (0 if isinstance(first.answers[k], Raised)
                                       else workload.work(k, first.answers[k])))
    summary = {
        "workload": workload.name, "seed": args.seed,
        "env": {"git_sha": git_sha(), "python": platform.python_version(),
                "numpy": numpy.__version__, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0))},
        "rounds": len(rounds), "traced_rounds": len(rounds) - len(plain),
        "query_samples": len(keys), "largest_query": largest,
        "failed_share": failed / attempted, "surgery_unsound": len(unsound),
        "raw_setup_s": setup.raw, "raw_round_s": [r.program_s for r in rounds],
        "reference_s": reference_s, "reference_nominal_s": reference.REFERENCE_S,
    }

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup.scaled), "s"),
            "wall_s": (statistics.median(r.program_s * r.scale for r in plain), "s"),
            "largest_query_s": (per_query[largest], "s"),
            "query_ms.p50": (statistics.median(per_query.values()) * 1e3, "ms"),
            "query_ms.p99": (p99(list(per_query.values())) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics, summary["accounting"] = layer_metrics(tracer, rounds, len(unsound))
        tracer.write(WORK / f"trace-{workload.name}-{args.seed}.jsonl.gz")

    tmp = digests_file.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True, indent=1))
    os.replace(tmp, digests_file)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, rounds, unsound):
    traced = [r for r in rounds if r.tracer is not None]
    plain = [r for r in rounds if r.tracer is None]
    per_round = []
    for r in traced:
        layer_self = dict.fromkeys(set(LAYERS.values()), 0.0)
        by_span = tracer.self_times(*r.spans)
        for name, spent in by_span.items():
            layer_self[LAYERS[name]] += spent
        by_span["bench"] = r.program_s - tracer.top_level_time(*r.spans)
        by_span["wall"] = r.program_s
        by_span["accounted"] = sum(layer_self.values()) + by_span["bench"]
        per_round.append({name: spent * r.scale for name, spent in by_span.items()})

    def median_of(name):
        return statistics.median(t.get(name, 0.0) for t in per_round)

    c = traced[0].counters
    calls = c.get("engine.solvable_calls", 0) + c.get("engine.reachable_calls", 0)
    rows = c.get("invariants.rows_examined", 0)
    metrics = {
        "invariants.self_s": (median_of("invariants.optimal_pebbling_number")
                              + median_of("invariants.pebbling_number"), "s"),
        "invariants.layers": (c.get("invariants.layers", 0), "count"),
        "invariants.rows_examined": (rows, "count"),
        "invariants.engine_calls": (c.get("invariants.engine_calls", 0), "count"),
        "invariants.engine_call_ratio": (
            c.get("invariants.engine_calls", 0) / rows if rows else 0.0, "ratio"),
        "invariants.unsolvable_verdicts": (
            c.get("invariants.unsolvable_verdicts", 0), "count"),
        "enumeration.compositions_s": (median_of("enumeration.compositions_array"), "s"),
        "enumeration.rows_built": (c.get("enumeration.rows_built", 0), "count"),
        "enumeration.rows_unused": (c.get("enumeration.rows_built", 0) - rows, "count"),
        "enumeration.bytes_built": (c.get("enumeration.bytes_built", 0), "B_computed"),
        "enumeration.canonical_calls": (c.get("enumeration.canonical_calls", 0), "count"),
        "enumeration.canonical_rejects": (
            c.get("enumeration.canonical_rejects", 0), "count"),
        "enumeration.canonical_s": (median_of("enumeration.canonical"), "s"),
        "engine.solvable_calls": (c.get("engine.solvable_calls", 0), "count"),
        "engine.solvable_s": (median_of("engine.is_solvable"), "s"),
        "engine.reachable_calls": (c.get("engine.reachable_calls", 0), "count"),
        "engine.reachable_s": (median_of("engine.is_reachable"), "s"),
        "engine.states": (c.get("engine.states", 0), "count"),
        "engine.max_pebbles_s": (median_of("engine.max_pebbles_to"), "s"),
        "engine.true_ratio": (
            c.get("engine.true_verdicts", 0) / calls if calls else 0.0, "ratio"),
        "engine.errors": (c.get("engine.errors", 0), "count"),
        "cli.self_s": (median_of("cli.main"), "s"),
        "cli.json_bytes": (c.get("cli.json_bytes", 0), "B"),
        "graphs.load_s": (median_of("graphs.load"), "s"),
        "surgery.try_reduce_s": (median_of("surgery.try_reduce"), "s"),
        "surgery.unsound": (unsound, "count"),
        "bench.self_s": (median_of("bench"), "s"),
        "trace.overhead_s": (statistics.median(r.program_s * r.scale for r in traced)
                             - statistics.median(r.program_s * r.scale for r in plain), "s"),
    }
    accounting = {"traced_wall_s": median_of("wall"),
                  "accounted_s": median_of("accounted")}
    return metrics, accounting


if __name__ == "__main__":
    sys.exit(main())
