"""Tests for the command-line interface: grammar, commands, output, exit codes."""

import json
from pathlib import Path

import pytest

from pebbletools.cli import main, parse_graph_spec
from pebbletools import (
    Distribution,
    Move,
    SurgeryResult,
    formula_fopt_path,
    make_cycle,
    make_path,
    replay,
)

# Pinned --json bytes: any difference is a change to the output format.
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# graph spec grammar


def test_parse_spec_families():
    assert parse_graph_spec("cycle:7") == make_cycle(7)
    assert parse_graph_spec("path:1") == make_path(1)


def test_parse_spec_product():
    g = parse_graph_spec("product(path:3,path:3)")
    assert g.n == 9
    assert g.label == "product(path:3,path:3)"


def test_parse_spec_nested_product():
    g = parse_graph_spec("product(product(path:2,path:2),path:2)")
    assert g.n == 8


def test_parse_spec_file(tmp_path):
    path = tmp_path / "c3.edges"
    path.write_text("3\n0 1\n1 2\n2 0\n")
    assert parse_graph_spec(f"file:{path}") == make_cycle(3)


def test_parse_spec_invalid_argument():
    with pytest.raises(ValueError):
        parse_graph_spec("path:0")


def test_parse_spec_errors_carry_position():
    with pytest.raises(ValueError, match="position 14"):
        parse_graph_spec("product(path:3")
    with pytest.raises(ValueError, match="trailing"):
        parse_graph_spec("path:3extra")
    with pytest.raises(ValueError, match="position 0"):
        parse_graph_spec("triangle:3")


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


def test_fopt_construct_rejects_other_graphs(capsys):
    code, _, err = run(capsys, "fopt", "product(path:2,path:3)", "--construct")
    assert code == 2
    assert "construct" in err


def test_fopt_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "fopt", "path:0")
    assert code == 2
    assert "error" in err


def test_fopt_cap_exit_3(capsys):
    code, _, err = run(capsys, "fopt", "cycle:21")
    assert code == 3
    assert "cap" in err


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


def test_verify_jobs_do_not_change_output(capsys):
    _, serial, _ = run(capsys, "verify", "path", "--max-n", "6", "--json")
    _, parallel, _ = run(capsys, "verify", "path", "--max-n", "6", "--json",
                         "--jobs", "3")
    assert serial == parallel


def test_verify_budget_annotates_and_exits_3(capsys):
    code, out, err = run(capsys, "verify", "path", "--max-n", "6", "--json",
                         "--budget-states", "30")
    assert code == 3
    payload = json.loads(out)
    flagged = [row for row in payload["result"]["rows"] if row["error"]]
    assert flagged and "n=" in err


@pytest.mark.parametrize("family,max_n", [("cycle", "2"), ("path", "0")])
def test_verify_empty_family_range_exit_2(capsys, family, max_n):
    code, out, err = run(capsys, "verify", family, "--max-n", max_n, "--json")
    assert code == 2
    assert out == ""
    assert "--max-n" in err


@pytest.mark.parametrize("argv,golden", [
    (["verify", "cycle", "--max-n", "6", "--json"], "verify_cycle_6.json"),
    (["fopt", "cycle:5", "--json"], "fopt_cycle_5.json"),
])
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


def test_graham_jobs_do_not_change_output(capsys):
    pairs = ["path:3,path:3", "path:1,cycle:3", "path:2,cycle:4"]
    _, serial, _ = run(capsys, "graham", *pairs, "--json")
    _, parallel, _ = run(capsys, "graham", *pairs, "--json", "--jobs", "2")
    assert serial == parallel


def test_graham_malformed_pair_exit_2(capsys):
    code, _, err = run(capsys, "graham", "path:3")
    assert code == 2
    assert "comma" in err


def test_graham_oversized_product_exit_3(capsys):
    code, _, _ = run(capsys, "graham", "cycle:5,cycle:5")
    assert code == 3


def test_graham_pebble_cap_exit_3(capsys):
    """--max-pebbles reaches graham's searches as it reaches fopt's."""
    code, _, err = run(capsys, "graham", "path:3,path:3", "--max-pebbles", "2")
    assert code == 3 and "size <= 2" in err
    code, _, _ = run(capsys, "fopt", "product(path:3,path:3)", "--max-pebbles", "2")
    assert code == 3
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


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "path"])
    assert info.value.code == 2
