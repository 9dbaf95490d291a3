"""Every committed BENCH_*.json is readable evidence: parent and change
runs of all three perfbench workloads, with the versions they ran on and
the engine counters of a traced fopt-sweep run, compared with the BENCH
file before it, and a claim that names a metric it compared."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {"fopt-sweep", "classical", "engine-queries"}
TRACED_COUNTERS = {"invariants.engine_calls", "engine.solvable_calls"}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_names_workloads_versions_and_counters(path):
    bench = json.loads(path.read_text())
    runs = bench["runs"]
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        assert {r["summary"]["workload"] for r in mine} == WORKLOADS
        for r in mine:
            assert {"git_sha", "python", "numpy"} <= set(r["summary"]["env"])
            assert r["result"]["metrics"]
        traced = [r for r in mine if r["summary"]["workload"] == "fopt-sweep"
                  and r["summary"]["traced_rounds"]]
        assert traced, f"no traced fopt-sweep run for {side}"
        for r in traced:
            assert TRACED_COUNTERS <= set(r["result"]["metrics"])


def _number(path: Path) -> int:
    return int(path.stem.removeprefix("BENCH_"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_names_an_earlier_previous(path):
    """`previous` names the BENCH file with the highest number below this
    one's, so the files form one chain; only the first BENCH file has
    none."""
    previous = json.loads(path.read_text())["previous"]
    earlier = [p for p in BENCH_FILES if _number(p) < _number(path)]
    assert previous == (max(earlier, key=_number).name if earlier else None)


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_claim_names_a_compared_metric(path):
    """A non-null `claim` names a workload of `comparison` and a metric of
    that workload's `metrics`, and says by a bool whether it was met."""
    bench = json.loads(path.read_text())
    claim = bench.get("claim")
    if claim is None:
        return
    assert claim["workload"] in bench["comparison"]
    assert claim["metric"] in bench["comparison"][claim["workload"]]["metrics"]
    assert isinstance(claim["met"], bool)
