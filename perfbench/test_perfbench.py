"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Tiny-size smoke runs of every workload, traced and untraced, and checks
that wrong, raising or non-deterministic answers are counted as failures.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import pebbletools  # noqa: E402


def run_tiny(workload, trace, seed=7):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace), "--tiny"])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_smoke_run(workload, trace):
    code, summary, result = run_tiny(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert summary["failed_share"] == 0.0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        accounting = summary["accounting"]
        assert accounting["accounted_s"] == pytest.approx(accounting["traced_wall_s"])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_answer_is_counted(monkeypatch):
    real = pebbletools.pebbling_number

    def off_by_one(g):
        report = real(g)
        return type(report)(report.kind, report.value + 1, report.witness,
                            report.distributions_examined)

    monkeypatch.setattr(pebbletools, "pebbling_number", off_by_one)
    _, summary, result = run_tiny("classical", 0)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert summary["failed_share"] == result["failed"] / result["attempted"]


def test_raising_answer_is_counted(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(pebbletools, "max_pebbles_to", broken)
    _, summary, result = run_tiny("engine-queries", 0)
    assert result["failed"] > 0 and summary["failed_share"] > 0


def test_changed_json_digest_is_counted(tmp_path):
    digests = {}
    sweep = workloads.FoptSweep(3, True, tmp_path, digests)
    key = " ".join(sweep.commands[0])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pebbletools.cli.main(sweep.commands[0])
    assert sweep.check(key, (code, out.getvalue()), pebbletools) == []
    assert sweep.check(key, (code, out.getvalue() + " "), pebbletools) != []


def test_closed_forms():
    assert [oracle.pi_cycle(n) for n in (3, 4, 5, 6, 7, 8)] == [3, 4, 5, 8, 11, 16]
    assert [oracle.pi_path(n) for n in (1, 2, 6)] == [1, 2, 32]
    assert oracle.pi_grid(2, 4) == 16
    assert [oracle.fopt_path_or_cycle(n) for n in (3, 4, 5, 15)] == [2, 3, 4, 10]


def test_tree_fold_matches_exhaustive_search():
    adj = oracle.adjacency(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    for counts in [(0, 0, 4, 0, 3, 5), (1, 2, 0, 0, 9, 0), (0, 3, 3, 3, 0, 2)]:
        for target in range(6):
            assert oracle.tree_max_to(adj, counts, target) == \
                oracle.search_max_to(adj, counts, target)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:],
                           "--workload", "classical", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
