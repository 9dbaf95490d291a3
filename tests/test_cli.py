"""Tests for the command-line interface: grammar, commands, output, exit codes."""

import argparse
import errno
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pebbletools.cli import _CLOSED_FORMS, _build_parser, main, parse_graph_spec
from pebbletools import (
    MAX_ENGINE_PEBBLES,
    MAX_ENGINE_VERTICES,
    Distribution,
    Move,
    SurgeryResult,
    cartesian_product,
    construct_optimal_cycle_distribution,
    construct_optimal_path_distribution,
    formula_fopt_cycle,
    formula_fopt_path,
    make_cycle,
    make_path,
    replay,
)

# Pinned --json bytes: any difference is a change to the output format.
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# graph spec grammar


def test_parse_spec_families():
    assert parse_graph_spec("cycle:7", MAX_ENGINE_VERTICES) == make_cycle(7)
    assert parse_graph_spec("path:1", MAX_ENGINE_VERTICES) == make_path(1)


def test_parse_spec_product():
    g = parse_graph_spec("product(path:3,path:3)", MAX_ENGINE_VERTICES)
    assert g == cartesian_product(make_path(3), make_path(3))


def test_parse_spec_nested_product():
    g = parse_graph_spec("product(product(path:2,path:2),path:2)",
                         MAX_ENGINE_VERTICES)
    assert g.n == 8


def test_parse_spec_file(tmp_path):
    path = tmp_path / "c3.edges"
    path.write_text("3\n0 1\n1 2\n2 0\n")
    assert parse_graph_spec(f"file:{path}", MAX_ENGINE_VERTICES) == make_cycle(3)


def test_parse_spec_has_no_uncapped_mode():
    with pytest.raises(TypeError):
        parse_graph_spec("path:3")


def test_parse_spec_invalid_argument():
    with pytest.raises(ValueError):
        parse_graph_spec("path:0", MAX_ENGINE_VERTICES)


@pytest.mark.parametrize("spec,position,message", [
    ("path:x", 5, "expected an integer"),
    # only ASCII digits make an integer
    ("path:\u00b2", 5, "expected an integer"),
    ("path:\uff11\uff12", 5, "expected an integer"),
    ("product(path:2,path:2", 21, "expected ')' closing product"),
    ("file:", 5, "expected a file path"),
])
def test_fopt_spec_parse_error_exit_2(capsys, spec, position, message):
    code, out, err = run(capsys, "fopt", spec)
    assert (code, out) == (2, "")
    assert err == (f"error: spec parse error at position {position}: "
                   f"{message} (in {spec!r})\n")


def test_spec_order_too_long_for_int_exit_2(capsys):
    spec = "path:" + "1" * 5000
    code, out, err = run(capsys, "fopt", spec)
    assert (code, out) == (2, "")
    assert err == ("error: spec parse error at position 5: integer of 5000 "
                   f"digits is too long (near {spec[:80]!r})\n")


def test_long_spec_error_quotes_a_window_around_the_position(capsys):
    spec = "product(" * 6 + "path:1" + ",path:1)" * 6 + "x" * 100
    code, out, err = run(capsys, "fopt", spec)
    assert (code, out) == (2, "")
    assert err == ("error: spec parse error at position 102: unexpected "
                   f"trailing input (near {spec[62:142]!r})\n")


def test_parse_spec_errors_carry_position():
    with pytest.raises(ValueError, match="position 14"):
        parse_graph_spec("product(path:3", MAX_ENGINE_VERTICES)
    with pytest.raises(ValueError, match="trailing"):
        parse_graph_spec("path:3extra", MAX_ENGINE_VERTICES)
    with pytest.raises(ValueError, match="position 0"):
        parse_graph_spec("triangle:3", MAX_ENGINE_VERTICES)


# ---------------------------------------------------------------------------
# fopt


def test_fopt_human_output(capsys):
    code, out, _ = run(capsys, "fopt", "cycle:4")
    assert code == 0
    assert out == "f_opt(cycle:4) = 3\nwitness: 0,1,0,2\n"


def test_fopt_json_schema(capsys):
    code, out, _ = run(capsys, "fopt", "cycle:4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "fopt"
    assert payload["inputs"] == {"construct": False, "spec": "cycle:4"}
    assert payload["result"]["value"] == 3
    assert payload["result"]["witness"] == [0, 1, 0, 2]
    assert payload["stats"]["distributions_examined"] > 0
    assert "elapsed_ms" not in payload["stats"]


def test_fopt_json_byte_identical_across_runs(capsys):
    code1, out1, _ = run(capsys, "fopt", "product(path:3,path:3)", "--json")
    code2, out2, _ = run(capsys, "fopt", "product(path:3,path:3)", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_fopt_timing_flag_adds_elapsed(capsys):
    _, out, _ = run(capsys, "fopt", "cycle:4", "--json", "--timing")
    assert "elapsed_ms" in json.loads(out)["stats"]


def test_fopt_timing_flag_human_line(capsys):
    code, out, _ = run(capsys, "fopt", "cycle:4", "--timing")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["f_opt(cycle:4) = 3", "witness: 0,1,0,2"]
    assert re.fullmatch(r"elapsed_ms: \d+", lines[2]) and len(lines) == 3


def test_fopt_construct_path(capsys):
    code, out, _ = run(capsys, "fopt", "path:30", "--construct", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["value"] == formula_fopt_path(30)
    assert sum(payload["result"]["witness"]) == payload["result"]["value"]
    # the emitted construction must itself pass the solvable command
    dist = ",".join(str(c) for c in payload["result"]["witness"])
    code, _, _ = run(capsys, "solvable", "path:30", "--dist", dist,
                     "--max-vertices", "30")
    assert code == 0


def test_fopt_construct_cycle(capsys):
    code, out, _ = run(capsys, "fopt", "cycle:7", "--construct", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"value": 5, "witness": [0, 2, 0, 0, 2, 0, 1]}
    code, _, _ = run(capsys, "solvable", "cycle:7", "--dist", "0,2,0,0,2,0,1")
    assert code == 0


def test_fopt_construct_builds_no_graph(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("--construct built a graph")

    for name in ("parse_graph_spec", "make_path", "make_cycle",
                 "load_edge_list", "cartesian_product"):
        monkeypatch.setattr(f"pebbletools.cli.{name}", refuse)
    code, out, _ = run(capsys, "fopt", "path:30", "--construct", "--json")
    assert code == 0
    payload = {"command": "fopt",
               "inputs": {"construct": True, "spec": "path:30"},
               "result": {"value": formula_fopt_path(30),
                          "witness": [0, 2, 0] * 10},
               "stats": {"distributions_examined": 0, "states_explored": 0}}
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_fopt_construct_rejects_other_graphs(capsys, tmp_path):
    # a product or file: spec is refused even when its graph is a path
    path4 = tmp_path / "path4.edges"
    path4.write_text("4\n0 1\n1 2\n2 3\n")
    for spec in ("product(path:2,path:3)", "product(path:1,path:5)",
                 f"file:{path4}"):
        code, out, err = run(capsys, "fopt", spec, "--construct")
        assert (code, out) == (2, "")
        assert err == "error: --construct requires a path or cycle spec\n"


@pytest.mark.parametrize("spec,message", [
    ("path:0", "path needs at least 1 vertex, got 0"),
    ("cycle:2", "cycle needs at least 3 vertices, got 2"),
    ("path:5x", "spec parse error at position 6: unexpected trailing input "
                "(in 'path:5x')"),
])
def test_fopt_construct_bad_order_exit_2(capsys, spec, message):
    code, out, err = run(capsys, "fopt", spec, "--construct")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("family,least,make,formula,construct", [
    ("path", 1, make_path, formula_fopt_path,
     construct_optimal_path_distribution),
    ("cycle", 3, make_cycle, formula_fopt_cycle,
     construct_optimal_cycle_distribution),
], ids=["path", "cycle"])
def test_each_family_refuses_an_order_below_its_least_with_one_message(
        capsys, family, least, make, formula, construct):
    """The family's constructor, closed form and construction, and `fopt`
    with and without --construct, refuse the order below the family's
    least with the same message, and take the least."""
    message = (f"{family} needs at least {least} "
               f"{'vertex' if least == 1 else 'vertices'}, got {least - 1}")
    for build in (make, formula, construct):
        with pytest.raises(ValueError) as info:
            build(least - 1)
        assert str(info.value) == message
        build(least)
    for construct_flag in ([], ["--construct"]):
        assert run(capsys, "fopt", f"{family}:{least - 1}", *construct_flag) \
            == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_fopt_construct_order_no_list_can_index_exit_3(capsys, family):
    code, out, err = run(capsys, "fopt", f"{family}:{10**19}", "--construct")
    assert (code, out) == (3, "")
    assert err == f"size cap exceeded: {10**19} vertices exceeds cap 1000000\n"


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_fopt_construct_refuses_an_order_over_its_cap(capsys, monkeypatch,
                                                      family):
    # a witness of 10^10 counts would take about 80 GB; one over 10^6 is
    # refused before the list is built
    def refuse(n):
        raise AssertionError("--construct built a witness over its cap")

    # path's closed form is held by _CLOSED_FORMS; cycle's calls path's
    monkeypatch.setitem(_CLOSED_FORMS, "path", (formula_fopt_path, refuse))
    monkeypatch.setattr("pebbletools.invariants.construct_optimal_path_distribution",
                        refuse)
    code, out, err = run(capsys, "fopt", f"{family}:1000001", "--construct")
    assert (code, out) == (3, "")
    assert err == "size cap exceeded: 1000001 vertices exceeds cap 1000000\n"


def test_fopt_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "fopt", "path:0")
    assert code == 2
    assert "error" in err


def test_fopt_cap_exit_3(capsys):
    code, _, err = run(capsys, "fopt", "cycle:21")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("argv,size,cap", [
    (["fopt", "path:100000000"], 100000000, 20),
    (["fopt", "product(cycle:100000000,path:2)"], 100000000, 20),
    (["fopt", "path:100000000", "--max-vertices", "30"], 100000000, 30),
    (["solvable", "path:100000000", "--dist", "1"], 100000000, 20),
    (["graham", "path:2,path:2", "path:2,product(path:2,cycle:100000000)"],
     100000000, 16),
    (["fopt", "file:{big}"], 100000000, 20),
    (["graham", "path:2,path:2", "file:{big},path:2"], 100000000, 16),
    (["reduce", "path:100000000", "--dist", "1"], 100000000, 20),
    (["reduce", "file:{big}", "--dist", "1"], 100000000, 20),
    (["fopt", "product(path:5,path:5)"], 25, 20),
])
def test_oversized_spec_refused_before_it_is_built(capsys, tmp_path, argv, size,
                                                   cap):
    # a graph of 10^8 vertices would take tens of GB to build
    big = tmp_path / "big.edges"
    big.write_text("100000000\n0 1\n")
    code, out, err = run(capsys, *(arg.format(big=big) for arg in argv))
    assert (code, out) == (3, "")
    assert err == f"size cap exceeded: {size} vertices exceeds cap {cap}\n"


@pytest.mark.parametrize("argv,err", [
    (["fopt", "product(path:9,path:9)", "--max-vertices", "100",
      "--budget-states", "1"],
     "budget exceeded: distribution budget 1 exhausted "
     "(lower bound 1, upper bound 54, 81 examined)\n"),
], ids=["raised-cap"])
def test_product_spec_obeys_the_vertex_cap(capsys, argv, err):
    assert run(capsys, *argv) == (3, "", err)


def test_solvable_pebble_cap_exit_3(capsys):
    assert run(capsys, "solvable", "path:2", "--dist", "70,0") == (
        3, "", "size cap exceeded: 70 pebbles exceeds cap 64\n")


def test_fopt_budget_exit_3(capsys):
    code, _, err = run(capsys, "fopt", "cycle:6", "--budget-states", "5")
    assert code == 3
    assert "budget" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_path_table(capsys):
    code, out, _ = run(capsys, "verify", "path", "--max-n", "5")
    assert code == 0
    assert "all rows match: true" in out


def test_verify_cycle_csv_bytes(capsys):
    code, out, _ = run(capsys, "verify", "cycle", "--max-n", "5", "--csv")
    assert code == 0
    assert out == ("n,formula,brute_force,match\n"
                   "3,2,2,true\n"
                   "4,3,3,true\n"
                   "5,4,4,true\n")


def test_verify_single_trivial_row(capsys):
    code, out, _ = run(capsys, "verify", "path", "--max-n", "1", "--csv")
    assert code == 0
    assert out == "n,formula,brute_force,match\n1,1,1,true\n"


def test_verify_builds_no_row_over_the_cap(capsys, monkeypatch):
    _, expected, _ = run(capsys, "verify", "path", "--max-n", "30",
                         "--max-vertices", "5", "--csv")
    built = []

    def recording_make_path(n):
        built.append(n)
        return make_path(n)

    monkeypatch.setattr("pebbletools.cli.make_path", recording_make_path)
    code, out, err = run(capsys, "verify", "path", "--max-n", "30",
                         "--max-vertices", "5", "--csv")
    assert (code, out) == (3, expected)
    assert out.splitlines()[6] == "6,4,,false"
    assert err.splitlines()[0] == "n=6: 6 vertices exceeds cap 5"
    assert built == [1, 2, 3, 4, 5]


def test_verify_budget_annotates_and_exits_3(capsys):
    code, out, err = run(capsys, "verify", "path", "--max-n", "6", "--json",
                         "--budget-states", "30")
    assert code == 3
    payload = json.loads(out)
    flagged = [row for row in payload["result"]["rows"] if row["error"]]
    assert flagged and "n=" in err
    # Rows 1-3 finish (15); rows 4, 5 and 6 stop after 34, 55 and 83.
    assert payload["stats"]["distributions_examined"] == 187


@pytest.mark.parametrize("family,max_n", [("cycle", "2"), ("path", "0")])
def test_verify_empty_family_range_exit_2(capsys, family, max_n):
    code, out, err = run(capsys, "verify", family, "--max-n", max_n, "--json")
    assert code == 2
    assert out == ""
    assert "--max-n" in err


def _golden_commands():
    """(argv, golden file name) for each command in golden/commands.txt."""
    for line in (GOLDEN / "commands.txt").read_text().splitlines():
        words = shlex.split(line, comments=True)
        if words:
            yield words[1:], words[0]


@pytest.mark.parametrize("argv,golden", list(_golden_commands()))
def test_json_bytes_match_golden(capsys, argv, golden):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_fopt_file_spec_matches_family_spec(capsys, tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    _, from_file, _ = run(capsys, "fopt", f"file:{path}", "--json")
    _, from_family, _ = run(capsys, "fopt", "cycle:4", "--json")
    file_payload, family_payload = json.loads(from_file), json.loads(from_family)
    assert file_payload["result"] == family_payload["result"]
    assert file_payload["stats"] == family_payload["stats"]
    assert file_payload["result"]["witness"] == [0, 1, 0, 2]


# ---------------------------------------------------------------------------
# graham


def test_graham_rows_and_exit(capsys):
    code, out, _ = run(capsys, "graham", "path:3,path:3", "path:2,path:2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["result"]["rows"]
    assert rows[0]["tight"] is True and rows[0]["fopt_product"] == 4
    assert rows[1]["tight"] is False and rows[1]["fopt_product"] == 3
    assert payload["result"]["all_hold"] is True


def test_graham_csv(capsys):
    code, out, _ = run(capsys, "graham", "path:1,cycle:3", "--csv")
    assert code == 0
    assert out == ("g,h,fopt_g,fopt_h,fopt_product,bound,holds,tight\n"
                   "path:1,cycle:3,1,2,2,2,true,true\n")


def test_graham_budget_counts_finished_searches(capsys):
    code, out, err = run(capsys, "graham", "path:3,path:3", "--json",
                         "--budget-states", "200")
    assert code == 3 and "path:3 x path:3: " in err
    payload = json.loads(out)
    assert payload["result"]["rows"][0]["error"]
    # Both factors finish (9 + 9); the product stops after 219.
    assert payload["stats"]["distributions_examined"] == 237


def test_graham_malformed_pair_exit_2(capsys):
    code, _, err = run(capsys, "graham", "path:3")
    assert code == 2
    assert "comma" in err


def test_graham_pair_follows_the_spec_grammar(capsys, tmp_path):
    # a file path may hold "(": the pair splits where the grammar does
    path = tmp_path / "p(3.edges"
    path.write_text("3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "graham", f" file:{path} , path:2 ", "--json")
    assert code == 0
    row = json.loads(out)["result"]["rows"][0]
    assert (row["g"], row["h"]) == (f"file:{path}", "path:2")
    code, out, _ = run(capsys, "fopt", f"product(file:{path},path:2)", "--json")
    assert code == 0
    assert row["fopt_product"] == json.loads(out)["result"]["value"] == 3


def test_graham_builds_every_pair_before_any_search(capsys, monkeypatch,
                                                    tmp_path):
    calls = []
    monkeypatch.setattr("pebbletools.cli.graham_optimal_check",
                        lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "graham", "path:2,path:2",
                         "product(cycle:9,cycle:9),path:2", "--json")
    assert (code, out) == (3, "")
    assert "81 vertices exceeds cap 16" in err
    # a disconnected factor is refused before the earlier pairs' searches
    disc = tmp_path / "disc.edges"
    disc.write_text("3\n0 1\n")
    code, out, err = run(capsys, "graham", "path:3,path:3",
                         f"file:{disc},path:2", "--json")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: graph is disconnected; no distribution is solvable\n"


def test_graham_oversized_product_exit_3(capsys):
    code, _, _ = run(capsys, "graham", "cycle:5,cycle:5")
    assert code == 3


def test_graham_pebble_cap_exit_3(capsys):
    """--max-pebbles reaches graham's searches as it reaches fopt's.  A
    search it stops still counts the rows it examined, and a graham row
    names the search that stopped."""
    code, _, err = run(capsys, "graham", "path:3,path:3", "--max-pebbles", "2")
    assert code == 3 and "size <= 2" in err
    code, out, _ = run(capsys, "graham", "path:3,path:3", "--max-pebbles", "2",
                       "--json")
    doc = json.loads(out)
    assert code == 3
    # both factor searches finish (9 rows each); the product's examines 54
    assert doc["stats"]["distributions_examined"] == 72
    assert doc["result"]["rows"][0]["error"] == (
        "f_opt(G x H): no solvable distribution of size <= 2 found")
    code, out, _ = run(capsys, "verify", "path", "--max-n", "4",
                       "--max-pebbles", "2", "--json")
    doc = json.loads(out)
    # rows n=1..3 examine 15 in all; the stopped row n=4 examines 14
    assert (code, doc["stats"]["distributions_examined"]) == (3, 29)
    code, _, err = run(capsys, "fopt", "product(path:3,path:3)", "--max-pebbles", "2")
    assert code == 3
    assert err == ("budget exceeded: no solvable distribution of size <= 2 found "
                   "(lower bound 3, upper bound 6, 54 examined)\n")
    code, _, _ = run(capsys, "graham", "path:3,path:3", "--max-pebbles", "4")
    assert code == 0


# ---------------------------------------------------------------------------
# solvable


def test_solvable_summary_exit_codes(capsys):
    code, out, _ = run(capsys, "solvable", "cycle:7",
                       "--dist", "0,2,0,0,2,0,1")
    assert code == 0 and "solvable" in out
    code, out, _ = run(capsys, "solvable", "path:3", "--dist", "1,0,0")
    assert code == 1 and "unreachable targets" in out


def test_solvable_target_witness(capsys):
    code, out, _ = run(capsys, "solvable", "path:3", "--dist", "0,2,0",
                       "--target", "0")
    assert code == 0
    assert out == "target 0 reachable: 1->0\n"
    code, out, _ = run(capsys, "solvable", "path:3", "--dist", "1,0,0",
                       "--target", "2")
    assert code == 1
    assert out == "target 2 unreachable\n"


def test_solvable_json_moves(capsys):
    _, out, _ = run(capsys, "solvable", "path:4", "--dist", "8,0,0,0",
                    "--target", "3", "--json")
    payload = json.loads(out)
    assert payload["result"]["witness"] == [
        "0->1", "0->1", "0->1", "0->1", "1->2", "1->2", "2->3"]
    assert payload["stats"]["states_explored"] > 0


def test_solvable_length_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "solvable", "path:3", "--dist", "1,0")
    assert code == 2 and "error" in err


def test_solvable_target_out_of_range_exit_2(capsys):
    code, _, _ = run(capsys, "solvable", "path:3", "--dist", "1,0,0",
                     "--target", "9")
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    # a bad length comes before a bad target, a bad target before a cap
    (["solvable", "path:4", "--dist", "1,2", "--target", "9"],
     "distribution has 2 entries, graph has 4 vertices"),
    (["solvable", "path:3", "--dist", "100,0,0", "--target", "7"],
     "target 7 out of range for 3 vertices"),
    (["reduce", "path:4", "--dist", "1,2"],
     "distribution has 2 entries, graph has 4 vertices"),
    (["reduce", "product(path:2,path:2)", "--dist", "1,0"],
     "distribution has 2 entries, graph has 4 vertices"),
])
def test_input_error_precedence_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_solvable_budget_exit_3(capsys):
    code, _, _ = run(capsys, "solvable", "path:4", "--dist", "8,0,0,0",
                     "--target", "3", "--budget-states", "1")
    assert code == 3


def test_solvable_deep_witness_exit_0(capsys):
    """A witness of 2,047 moves is found and printed, not a RecursionError."""
    dist = ",".join(["0"] * 11 + ["2048"])
    code, out, _ = run(capsys, "solvable", "path:12", "--dist", dist,
                       "--target", "0", "--max-pebbles", "4096", "--json")
    assert code == 0
    payload = json.loads(out)
    moves = [Move(*map(int, m.split("->"))) for m in payload["result"]["witness"]]
    assert len(moves) == 2047
    assert replay(make_path(12), Distribution.parse(dist), tuple(moves))[0] == 1


def test_solvable_file_spec(capsys, tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    code, _, _ = run(capsys, "solvable", f"file:{path}", "--dist", "0,1,0,2")
    assert code == 0


def test_solvable_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "solvable", "file:/nonexistent.edges",
                     "--dist", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# reduce


def test_reduce_single_step(capsys):
    code, out, _ = run(capsys, "reduce", "path:3", "--dist", "2,1,0")
    assert code == 0
    assert "applied remove_singleton" in out
    assert "final: path:2 [2, 0]" in out


def test_reduce_over_default_cap_with_max_vertices(capsys):
    dist = ",".join(["1"] + ["0"] * 29)
    code, out, _ = run(capsys, "reduce", "path:30", "--dist", dist,
                       "--max-vertices", "30")
    assert code == 0
    assert out.startswith("applied remove_singleton: path:30 ")
    assert " -> path:29 " in out


def test_reduce_cycle_window(capsys):
    code, out, _ = run(capsys, "reduce", "cycle:6", "--dist", "2,0,2,0,2,0",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    step = payload["result"]["steps"][0]
    assert step["rule"] == "cycle_remove_202_or_220"
    assert step["after"] == [2, 0, 2, 0]
    assert step["index_map"] == {"0": 0, "3": 1, "4": 2, "5": 3}
    assert payload["result"]["final_graph"] == "cycle:4"


def test_reduce_not_applicable_exit_4(capsys):
    code, _, err = run(capsys, "reduce", "path:2", "--dist", "2,2")
    assert code == 4
    assert "not applicable" in err


def test_reduce_to_fixpoint(capsys):
    code, out, _ = run(capsys, "reduce", "cycle:9",
                       "--dist", "0,2,0,0,2,0,1,3,1", "--to-fixpoint",
                       "--check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]["steps"]) == 5
    assert payload["result"]["checks_passed"] is True
    assert payload["result"]["final_dist"] == [2, 0, 0, 2]


def test_reduce_check_failure_exit_1(capsys, monkeypatch):
    # Every shipped surgery is sound on its domain, so an unsound step is
    # injected to reach the --check failure path.
    def unsound_step(g, d):
        return SurgeryResult(make_path(3), Distribution((0, 0, 2)),
                             {0: 0, 2: 1, 3: 2}, 2,
                             "collapse_two_pebble_block_path")

    monkeypatch.setattr("pebbletools.cli.try_reduce", unsound_step)
    code, out, _ = run(capsys, "reduce", "path:4", "--dist", "2,0,0,2",
                       "--check", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"]["steps"][0]["solvable_after"] is False
    assert payload["result"]["checks_passed"] is False


def test_reduce_check_budget_exit_3(capsys):
    code, _, err = run(capsys, "reduce", "path:4", "--dist", "0,0,2,3",
                       "--check", "--budget-states", "0")
    assert code == 3
    assert "budget" in err


def test_reduce_json_byte_identical(capsys):
    args = ("reduce", "cycle:9", "--dist", "0,2,0,0,2,0,1,3,1",
            "--to-fixpoint", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# argparse-level behavior


# Per subcommand: its positionals, then each option string with True
# where the option is required.
_SHARED = {"-h": False, "--help": False, "--json": False, "--timing": False,
           "--max-pebbles": False, "--max-vertices": False,
           "--budget-states": False}
_ARGUMENTS = {
    "fopt": (["spec"], {**_SHARED, "--construct": False}),
    "verify": (["family"], {**_SHARED, "--csv": False, "--max-n": True}),
    "graham": (["pairs"], {**_SHARED, "--csv": False}),
    "solvable": (["spec"], {**_SHARED, "--dist": True, "--target": False}),
    "reduce": (["spec"], {**_SHARED, "--dist": True, "--to-fixpoint": False,
                          "--check": False}),
}


@pytest.mark.parametrize("command", list(_ARGUMENTS))
def test_each_subcommand_takes_its_arguments(capsys, command):
    """Each subcommand's --help exits 0, and its arguments are the table's,
    with the shared options' defaults unchanged by any subcommand."""
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: pebbletools {command} ")
    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    positionals = [a.dest for a in actions if not a.option_strings]
    options = {s: a.required for a in actions for s in a.option_strings}
    assert (positionals, options) == _ARGUMENTS[command]
    defaults = {a.dest: a.default for a in actions
                if a.option_strings and a.option_strings[0] in _SHARED}
    assert defaults == {"help": argparse.SUPPRESS, "json": False, "timing": False,
                        "max_pebbles": MAX_ENGINE_PEBBLES, "max_vertices": None,
                        "budget_states": None}


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "path"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [["verify", "path", "--max-n", "3"],
                                  ["graham", "path:2,path:2"]],
                         ids=["verify", "graham"])
def test_jobs_flag_is_gone_exit_2(capsys, argv):
    """Sweeps run in one process; --jobs is an unknown flag."""
    with pytest.raises(SystemExit) as info:
        main([*argv, "--jobs", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solvable", "path:3", "--dist", "0,0,4", "--budget-states", "-5"],
    ["fopt", "path:5", "--max-vertices", "-1"],
    ["fopt", "path:5", "--max-pebbles", "-2"],
    ["verify", "path", "--max-n", "3", "--budget-states", "-1"],
    ["graham", "path:2,path:2", "--max-pebbles", "-1"],
    ["reduce", "path:3", "--dist", "0,2,0", "--max-vertices", "two"],
], ids=["solvable_budget", "fopt_vertices", "fopt_pebbles", "verify_budget",
        "graham_pebbles", "reduce_not_an_integer"])
def test_negative_cap_is_usage_error_exit_2(capsys, argv):
    """A cap flag takes a non-negative integer; anything else is an
    argparse usage error, not a search that stops at once."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solvable", "path:2", "--dist", "1_0,0"],
    ["solvable", "path:2", "--dist", "\uff11,1"],
    ["reduce", "path:2", "--dist", "+1,0"],
], ids=["underscore", "fullwidth", "plus"])
def test_dist_takes_ascii_digits_only_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: distribution {argv[-1]!r} is not a "
                   "comma-separated list of integers\n")


@pytest.mark.parametrize("argv", [
    ["fopt", "path:3", "--max-vertices", "\uff12\uff10"],
    ["fopt", "path:3", "--max-pebbles", "6_4"],
    ["verify", "path", "--max-n", "1_2"],
    ["solvable", "path:3", "--dist", "0,0,4", "--target", "\u0662"],
], ids=["max_vertices_fullwidth", "max_pebbles_underscore", "max_n_underscore",
        "target_arabic_indic"])
def test_integer_flags_take_ascii_digits_only_exit_2(capsys, argv):
    """Every integer flag follows the spec INT; argparse refuses the rest
    with its usage text and one error line."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: pebbletools {argv[0]} ")
    assert err.splitlines()[-1] == (
        f"pebbletools {argv[0]}: error: argument {argv[-2]}: expected a "
        f"non-negative integer, got {argv[-1]!r}")


def test_zero_cap_is_accepted(capsys):
    code, _, err = run(capsys, "solvable", "path:3", "--dist", "0,0,4",
                       "--budget-states", "0")
    assert code == 3
    assert "exceeded 0 states" in err


# ---------------------------------------------------------------------------
# the module entry point, as the console script runs it


def _run_module(*argv):
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "pebbletools.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_goldens_agree_with_the_oracle(tmp_path):
    """golden_oracle.py, a CI step, passes every golden against
    perfbench/oracle.py and fails on a golden edited by hand."""
    script = [sys.executable, str(Path(__file__).parent / "golden_oracle.py")]
    proc = subprocess.run(script, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (
        0, f"{len(list(_golden_commands()))} goldens checked against the oracle\n")
    edited = tmp_path / "golden"
    shutil.copytree(GOLDEN, edited)
    report = json.loads((edited / "solvable_cycle_5.json").read_text())
    report["result"]["per_vertex"][0]["reachable"] = False
    (edited / "solvable_cycle_5.json").write_text(json.dumps(report))
    proc = subprocess.run([*script, str(edited)], capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout.splitlines()[0]) == (
        1, "solvable_cycle_5.json: the oracle disagrees on per-vertex verdicts")


def test_module_entry_point_prints_golden_json():
    proc = _run_module("verify", "cycle", "--max-n", "6", "--json")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "verify_cycle_6.json").read_text()


def _nested_product(depth, left=True):
    """path:1 nested in depth products, as the left or the right factor."""
    if left:
        return "product(" * depth + "path:1" + ",path:1)" * depth
    return "product(path:1," * depth + "path:1" + ")" * depth


def test_nested_product_within_the_stack_parses(capsys):
    code, out, _ = run(capsys, "fopt", _nested_product(300), "--json")
    assert code == 0
    assert json.loads(out)["result"] == {"value": 1, "witness": [1]}


@pytest.mark.parametrize("argv", [
    ["fopt", _nested_product(5000)],
    ["fopt", _nested_product(5000, left=False)],
    ["graham", f"{_nested_product(5000)},path:2"],
], ids=["fopt-left", "fopt-right", "graham"])
def test_too_deeply_nested_product_exit_2(argv):
    # the error position depends on the stack depth, so it is not pinned
    proc = _run_module(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: spec parse error at position ")
    assert "product( nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deeply_nested_product_error_is_one_short_line(tmp_path):
    # test_spec_order_too_long_for_int_exit_2 pins a 5,000-digit order
    # exactly; a long --dist, a long integer flag, a long line of a
    # file: edge list and a file: path the OS refuses are quoted the same way
    dist = "1," * 20000 + "x"
    numbers = " ".join(["1"] * 20000)
    (tmp_path / "header.edges").write_text(f"{numbers}\n")
    (tmp_path / "edge.edges").write_text(f"3\n0 1\n{numbers}\n")
    for argv, error in [
        (["fopt", f"file:{tmp_path / 'header.edges'}"],
         "error: line 1: expected the vertex count alone, got near "
         f"{numbers[:80]!r}"),
        (["fopt", f"file:{tmp_path / 'edge.edges'}"],
         f"error: line 3: expected 'u v', got near {numbers[:80]!r}"),
        (["fopt", _nested_product(5000)], "error: spec parse error at position "),
        (["fopt", "file:" + "a" * 20000],
         f"error: [Errno {errno.ENAMETOOLONG}] "
         f"{os.strerror(errno.ENAMETOOLONG)}: near {'a' * 80!r}"),
        (["solvable", "path:3", "--dist", dist],
         f"error: distribution near {dist[-80:]!r} is not a comma-separated "
         "list of integers"),
        (["solvable", "path:3", "--dist", "0,0,4", "--budget-states", "1" * 5000],
         "pebbletools solvable: error: argument --budget-states: expected a "
         f"non-negative integer, got near {'1' * 80!r}"),
    ]:
        proc = _run_module(*argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert proc.stderr.endswith("\n") and lines[-1].startswith(error)
        assert all(len(line.encode()) < 300 for line in lines)
        if error.startswith("error: "):
            assert len(lines) == 1
        else:  # argparse prints its usage text before the error line
            assert lines[0].startswith("usage: pebbletools solvable ")


def test_module_entry_point_exit_code():
    proc = _run_module("graham", "cycle:5,cycle:5")
    assert proc.returncode == 3
    assert "cycle:5 x cycle:5: " in proc.stderr
