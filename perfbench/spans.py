"""Span tracing at the boundaries between pebbletools modules.

Nothing inside the package is changed: for a traced round the tracer
replaces each public function at the module attribute the calling layer
looks it up through (for example `pebbletools.invariants.is_solvable`)
with a wrapper that records a span around the call, and puts the original
back when the round ends.  The benchmark's own calls into the package go
through `Tracer.call` with the same span names.  Spans are kept in memory
and written out once, when the run ends.

Calls that happen hundreds of thousands of times per query (the symmetry
checks) are not recorded one by one: they are folded into a count and a
summed time per parent span, and that time is charged to the parent like a
child span when self times are derived.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

# Span name -> layer.  A layer's self time is the sum over its span names.
LAYERS = {
    "cli.main": "cli",
    "invariants.optimal_pebbling_number": "invariants",
    "invariants.pebbling_number": "invariants",
    "enumeration.compositions_array": "enumeration",
    "enumeration.canonical": "enumeration",
    "engine.is_solvable": "engine",
    "engine.is_reachable": "engine",
    "engine.max_pebbles_to": "engine",
    "graphs.load": "graphs",
    "surgery.try_reduce": "surgery",
}


def _number_report(counters, args, report):
    counters["invariants.rows_examined"] += report.distributions_examined


def _compositions(counters, args, rows):
    counters["invariants.layers"] += 1
    counters["enumeration.rows_built"] += rows.shape[0]
    counters["enumeration.bytes_built"] += rows.nbytes


def _solvable(counters, args, verdict):
    counters["engine.solvable_calls"] += 1
    counters["engine.true_verdicts"] += bool(verdict)


def _solvable_from_invariants(counters, args, verdict):
    _solvable(counters, args, verdict)
    counters["invariants.engine_calls"] += 1
    counters["invariants.unsolvable_verdicts"] += not verdict


def _reachable(counters, args, report):
    counters["engine.reachable_calls"] += 1
    counters["engine.true_verdicts"] += bool(report.verdict)
    counters["engine.states"] += report.states_explored


# Counter hooks for the benchmark's own calls, by span name.
HOOKS = {
    "invariants.optimal_pebbling_number": _number_report,
    "invariants.pebbling_number": _number_report,
    "engine.is_solvable": _solvable,
    "engine.is_reachable": _reachable,
}


class Tracer:
    """Collects spans [name, start, end, parent, query] and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.aggregates: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.query = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, on_result=None, **kwargs):
        """Run fn inside a span named `name`."""
        sid = len(self.spans)
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.query]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counters[LAYERS[name] + ".errors"] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(self.counters, args, result)
        return result

    def _aggregate(self, name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        slot = self.aggregates[(self._stack[-1] if self._stack else -1, name)]
        slot[0] += 1
        slot[1] += time.perf_counter() - start
        self.counters[name + "_calls"] += 1
        self.counters[name + "_rejects"] += not result
        return result

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attr, name, on_result=None, aggregated=False):
        original = getattr(module, attr)
        if aggregated:
            def wrapper(*args):
                return self._aggregate(name, original, *args)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, original, *args,
                                 on_result=on_result, **kwargs)
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def install(self, pt) -> None:
        """Wrap every cross-module call site the workloads go through."""
        for attr in ("load_edge_list", "make_path", "make_cycle",
                     "cartesian_product"):
            self._patch(pt.cli, attr, "graphs.load")
        self._patch(pt.cli, "optimal_pebbling_number",
                    "invariants.optimal_pebbling_number", _number_report)
        self._patch(pt.cli, "is_solvable", "engine.is_solvable", _solvable)
        self._patch(pt.cli, "is_reachable", "engine.is_reachable", _reachable)
        self._patch(pt.cli, "try_reduce", "surgery.try_reduce")
        self._patch(pt.invariants, "compositions_array",
                    "enumeration.compositions_array", _compositions)
        for attr in ("is_path_canonical", "is_cycle_canonical"):
            self._patch(pt.invariants, attr, "enumeration.canonical",
                        aggregated=True)
        self._patch(pt.invariants, "is_solvable", "engine.is_solvable",
                    _solvable_from_invariants)
        self._patch(pt.invariants, "cartesian_product", "graphs.load")
        self._patch(pt.engine, "is_reachable", "engine.is_reachable", _reachable)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- derived values ----------------------------------------------------

    def self_times(self, first: int, stop: int) -> dict[str, float]:
        """Self time per span name over spans[first:stop].

        A span's self time is its duration minus the durations of its
        direct children and of the aggregated calls made directly from it.
        """
        spans = self.spans
        child_time = defaultdict(float)
        totals = defaultdict(float)
        for sid in range(first, stop):
            _, start, end, parent, _ = spans[sid]
            if parent >= first:
                child_time[parent] += end - start
        for (parent, name), (_, spent) in self.aggregates.items():
            if first <= parent < stop:
                child_time[parent] += spent
                totals[name] += spent
        for sid in range(first, stop):
            name, start, end, _, _ = spans[sid]
            totals[name] += end - start - child_time[sid]
        return dict(totals)

    def top_level_time(self, first: int, stop: int) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans[first:stop]
                   if parent < first)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (parent, name), (count, spent) in sorted(self.aggregates.items()):
                fh.write(json.dumps(["aggregate", name, parent, count, spent]) + "\n")
