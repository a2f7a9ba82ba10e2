"""Command-line behaviour: exit codes, JSON schemas, DOT, determinism."""

from __future__ import annotations

import json
import time

import pytest

from bsgraph.cli import run
from bsgraph.fixtures import load_fixture, parse_fixture, serialize_fixture

from .conftest import FIXTURE_DIR

E = str(FIXTURE_DIR / "example_E.cg")
E_MISSING = str(FIXTURE_DIR / "example_E_missing_phi2.cg")
GRID_FX = str(FIXTURE_DIR / "grid_single_vertex.cg")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_complete(capsys):
    code, out, _ = invoke(capsys, "check", E)
    assert code == 0
    assert out.strip() == "complete: 2 squares, 2 red-first paths, 2 blue-first paths"


def test_check_incomplete_lists_uncovered(capsys):
    code, out, _ = invoke(capsys, "check", E_MISSING)
    assert code == 1
    assert "h g g" in out and "k h" in out


def test_check_json(capsys):
    code, out, _ = invoke(capsys, "check", E, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "complete" and data["squares"] == 2


def test_lift_json(capsys):
    code, out, _ = invoke(capsys, "lift", E, "--path", "g g f h", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["degree"]["pair"] == [2, 8]
    assert len(data["vertices"]) == 17
    assert len(data["edges"]) == 22


def test_lift_oracle_flag(capsys):
    code, _, _ = invoke(capsys, "lift", E, "--path", "g f", "--oracle")
    assert code == 0


def test_lift_not_covered_exit_1(capsys):
    code, out, _ = invoke(capsys, "lift", E_MISSING, "--path", "g g f h")
    assert code == 1
    assert "NotCovered" in out


def test_lift_dot(capsys):
    code, out, _ = invoke(capsys, "lift", E, "--path", "g f", "--dot")
    assert code == 0
    assert out.startswith("digraph") and "color=red" in out and "color=blue" in out


def test_word_subcommands(capsys):
    code, out, _ = invoke(capsys, "word", "normalize", "bbaa", "--json")
    assert code == 0 and json.loads(out)["pair"] == [2, 8]
    code, out, _ = invoke(capsys, "word", "mul", "b", "a")
    assert code == 0 and out.strip() == "ba"
    code, out, _ = invoke(capsys, "word", "quotient", "bb", "bbaa", "--json")
    assert code == 0 and json.loads(out)["pair"] == [2, 0]
    code, out, _ = invoke(capsys, "word", "prefix", "b", "abab")
    assert code == 0 and out.strip() == "false"


def test_word_bad_input_exit_2(capsys):
    code, _, err = invoke(capsys, "word", "normalize", "xyz")
    assert code == 2 and "error" in err


def test_quotient_of_non_prefix_is_a_finding(capsys):
    code, out, _ = invoke(capsys, "word", "quotient", "a", "bb")
    assert code == 1 and "NotAPrefix" in out


def test_model_counts_and_dot(capsys):
    code, out, _ = invoke(capsys, "model", "--word", "bbaa")
    assert code == 0 and "17 vertices, 22 edges" in out
    code, out, _ = invoke(capsys, "model", "--word", "2,1", "--mode", "grid", "--json")
    assert code == 0 and len(json.loads(out)["vertices"]) == 6
    code, out, _ = invoke(capsys, "model", "--word", "ba", "--dot")
    assert code == 0 and out.count("->") == 5


def test_compose_and_factorize(capsys):
    code, out, _ = invoke(capsys, "compose", E, "--lhs", "g g", "--rhs", "f h", "--json")
    assert code == 0 and json.loads(out)["degree"]["word"] == "bbaa"
    code, out, _ = invoke(capsys, "factorize", E, "--path", "g g f h", "--at", "bb", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["left"]["degree"]["pair"] == [0, 2]
    assert data["right"]["degree"]["pair"] == [2, 0]


def test_traversals(capsys):
    code, out, _ = invoke(capsys, "traversals", E, "--path", "g g f h")
    assert code == 0
    assert "shortest g g f h" in out
    assert "longest f h g g g g g g g g" in out


def test_enumerate(capsys):
    code, out, _ = invoke(capsys, "enumerate", E, "--degree", "ba", "--json")
    assert code == 0 and json.loads(out)["count"] == 2


def test_verify_small(capsys):
    code, out, _ = invoke(capsys, "verify", E, "--max-len", "2")
    assert code == 0
    assert out.count("pass") == 7 and "FAIL" not in out


def test_verify_checks_every_boundary_first(tmp_path, capsys):
    # The only blue-first path, b r, has no square, and no path a b b
    # exists, so no path the sweeps compose would ever touch the gap.
    p = tmp_path / "uncovered.cg"
    p.write_text("mode bs\nvertex x\nvertex y\nedge b b x x\nedge r a x y\n")
    code, out, _ = invoke(capsys, "verify", str(p), "--max-len", "1")
    assert code == 1
    assert out == "NotCovered: no square with blue-first boundary b r\n"
    code, out, _ = invoke(capsys, "verify", E_MISSING, "--max-len", "1")
    assert code == 1
    assert out == "NotCovered: no square with blue-first boundary k h\n"


def test_lift_too_large_exit_2(capsys):
    start = time.perf_counter()
    code, _, err = invoke(capsys, "lift", E, "--path", " ".join(["g"] * 30 + ["f h"] * 10))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and err.startswith("resource limit:")


def test_enumerate_too_many_search_nodes_exit_2(tmp_path, capsys):
    # One vertex, one blue loop, ten red loops: a^2 b^8 has only 17 model
    # vertices, but 10^8 total assignments for the brute-force search.
    lines = ["mode bs", "vertex x", "edge b b x x"]
    lines += [f"edge r{i} a x x" for i in range(10)]
    lines += [f"square s{i} eA=r{i} aB=b abB=b eB=b bA=r{i}" for i in range(10)]
    p = tmp_path / "loops.cg"
    p.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, _, err = invoke(capsys, "enumerate", str(p), "--degree", "a2 b8")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and err.startswith("resource limit:")


def test_duplicate_square_name_exit_2(tmp_path, capsys):
    p = tmp_path / "dup.cg"
    p.write_text(
        (FIXTURE_DIR / "example_E.cg").read_text()
        + "square phi1 eA=h aB=g abB=g eB=k bA=h\n"
    )
    code, _, err = invoke(capsys, "check", str(p))
    assert code == 2
    assert err == "error: line 12: duplicate square name 'phi1'\n"


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = invoke(capsys, "verify", E, "--laws", "nonsense")
    assert code == 2 and "unknown law suite" in err


def test_missing_file_exit_2(capsys):
    code, _, err = invoke(capsys, "check", "no_such_file.cg")
    assert code == 2 and err


def test_bad_fixture_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cg"
    p.write_text("vertex u\nedge f a u nowhere\n")
    code, _, err = invoke(capsys, "check", str(p))
    assert code == 2 and "error" in err


def test_deterministic_output(capsys):
    _, first, _ = invoke(capsys, "lift", E, "--path", "g g f h", "--json")
    _, second, _ = invoke(capsys, "lift", E, "--path", "g g f h", "--json")
    assert first == second


def test_fixture_round_trip():
    fx = load_fixture(E)
    text = serialize_fixture(fx)
    again = parse_fixture(text)
    assert serialize_fixture(again) == text
    assert again.graph == fx.graph
    assert [sq.emap for sq in again.squares] == [sq.emap for sq in fx.squares]


def test_grid_fixture_round_trip():
    fx = load_fixture(GRID_FX)
    assert fx.mode == "grid"
    text = serialize_fixture(fx)
    assert parse_fixture(text).graph == fx.graph


def test_graph_dot_export(graph_E):
    from bsgraph.dot import graph_to_dot

    out = graph_to_dot(graph_E)
    assert '"v" -> "u" [label="f", color=red];' in out
