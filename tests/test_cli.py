"""Command-line behaviour: exit codes, JSON schemas, DOT, determinism."""

from __future__ import annotations

import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import tracemalloc

import pytest

import bsgraph
from bsgraph import cli
from bsgraph.cli import run
from bsgraph.fixtures import load_fixture, parse_fixture, serialize_fixture
from bsgraph.morphisms import MAX_ENUMERATION_VERTICES
from bsgraph.words import BS, GRID

from .conftest import FIXTURE_DIR
from .test_golden import CASES, GOLDEN, transcript

E = str(FIXTURE_DIR / "example_E.cg")
E_MISSING = str(FIXTURE_DIR / "example_E_missing_phi2.cg")
GRID_FX = str(FIXTURE_DIR / "grid_single_vertex.cg")
BLUE_CYCLE = str(FIXTURE_DIR / "blue_cycle.cg")
# One vertex, a blue loop and two red loops; r1 b b and b r2 each bound
# two squares, while every boundary path has a square.
DUPLICATED = str(FIXTURE_DIR / "duplicated_boundary.cg")


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


def test_lift_oracle_mismatch_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "enumerate_morphisms", lambda ctx, w, through=None: [])
    code, out, err = invoke(capsys, "lift", E, "--path", "g g f h", "--oracle")
    assert (code, out) == (1, "")
    assert err == "oracle mismatch: enumeration found 0 morphisms traversed by the path\n"


def test_lift_not_covered_exit_1(capsys):
    code, out, _ = invoke(capsys, "lift", E_MISSING, "--path", "g g f h")
    assert code == 1
    assert "NotCovered" in out


def test_lift_names_the_square_its_shortest_failing_prefix_misses(capsys):
    """h g g fails at its square right of h; the longer path stops there
    too, before its second h would miss the square left of it, k h."""
    for path in ("h g g", "h g g f h"):
        code, out, err = invoke(capsys, "lift", E_MISSING, "--path", path)
        assert (code, out, err) == (1, "NotCovered: no square with red-first boundary h g g\n", "")


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


@pytest.mark.parametrize("op", ["mul", "quotient", "prefix"])
def test_word_with_one_word_is_a_usage_error(op, capsys):
    code, out, err = invoke(capsys, "word", op, "a")
    assert code == 2 and out == ""
    assert err == f"error: word {op} needs two words\n"


def test_word_normalize_with_two_words_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "word", "normalize", "a", "b")
    assert code == 2 and out == ""
    assert err == "error: word normalize takes one word\n"


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


def test_compose_sides_must_meet(capsys):
    code, out, _ = invoke(capsys, "compose", E, "--lhs", "f", "--rhs", "g")
    assert code == 1
    assert out == "NotComposable: s(mu) = v != r(nu) = u\n"


def test_traversals(capsys):
    code, out, _ = invoke(capsys, "traversals", E, "--path", "g g f h")
    assert code == 0
    assert "shortest g g f h" in out
    assert "longest f h g g g g g g g g" in out


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_traversals_shortest_and_longest_together_is_a_usage_error(json_flag, capsys):
    argv = ["traversals", E, "--path", "g g f h", "--shortest", "--longest", *json_flag]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --longest: not allowed with argument --shortest\n")


@pytest.mark.parametrize(
    "argv", [["lift", E, "--path", "g f"], ["model", "--word", "ba"]], ids=["lift", "model"]
)
@pytest.mark.parametrize("flags", [["--dot", "--json"], ["--json", "--dot"]])
def test_dot_and_json_together_is_a_usage_error(argv, flags, capsys):
    code, out, err = invoke(capsys, *argv, *flags)
    assert (code, out) == (2, "")
    first, second = flags
    assert err.endswith(f"error: argument {second}: not allowed with argument {first}\n")


def test_enumerate(capsys):
    code, out, _ = invoke(capsys, "enumerate", E, "--degree", "ba", "--json")
    assert code == 0 and json.loads(out)["count"] == 2


def test_enumeration_rejects_squares_as_they_close(capsys):
    """bbaaa on blue_cycle.cg has 16 morphisms among more than 10^6
    colour-preserving partial maps; checking each square as soon as its
    last edge is assigned keeps the search far inside its node budget."""
    code, out, _ = invoke(capsys, "enumerate", BLUE_CYCLE, "--degree", "bbaaa", "--json")
    assert code == 0 and json.loads(out)["count"] == 16
    code, out, err = invoke(capsys, "lift", BLUE_CYCLE, "--path", "b1 b2 r1 r1 r1", "--oracle")
    assert (code, err) == (0, "")
    assert out == "degree bbaaa: 34 vertices, 47 edges, r=u s=u\n"
    # The factorization suite enumerates every pool degree, bbaaa among
    # them at max-len 5.
    code, out, _ = invoke(capsys, "verify", BLUE_CYCLE, "--max-len", "5", "--laws", "factorization")
    assert (code, out) == (0, (
        "pass  factorize/compose round-trip  (7578 instances)\n"
        "pass  factor pair uniqueness  (7578 instances)\n"
    ))


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


@pytest.mark.parametrize("max_len", ["1", "2"])
def test_verify_rejects_duplicated_boundaries(max_len, capsys):
    code, out, _ = invoke(capsys, "verify", DUPLICATED, "--max-len", max_len)
    assert code == 1
    assert out == (
        "Conflict: the red-first boundary r1 b b belongs to more than one "
        "square; the collection cannot be complete for this graph\n"
    )


DUPLICATE_CONFLICT = (
    "Conflict: the red-first boundary r1 b b belongs to more than one "
    "square; the collection cannot be complete for this graph\n"
)


def test_lift_across_a_duplicated_boundary_is_a_conflict(capsys):
    """b b r2 is traversed by three morphisms, so no lift is unique.  The
    lift refuses the collection before it reads any square."""
    code, out, _ = invoke(capsys, "enumerate", DUPLICATED, "--degree", "b b a", "--json")
    assert code == 0
    traversed = [
        m for m in json.loads(out)["morphisms"]
        if [e["edge"] for e in m["edges"] if (e["prefix"], e["letter"]) in
            {("e", "b"), ("b", "b"), ("bb", "a")}] == ["b", "b", "r2"]
    ]
    assert len(traversed) == 3
    code, out, _ = invoke(capsys, "lift", DUPLICATED, "--path", "b b r2")
    assert code == 1
    assert out == DUPLICATE_CONFLICT


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", DUPLICATED, "--path", "r1 b b"],
        ["lift", DUPLICATED, "--path", "r1 b b", "--oracle"],
        ["lift", DUPLICATED, "--path", "b r2", "--json"],
        ["compose", DUPLICATED, "--lhs", "r1", "--rhs", "b b"],
        ["factorize", DUPLICATED, "--path", "b r2", "--at", "b"],
        ["traversals", DUPLICATED, "--path", "r1 b b", "--json"],
        ["lift", DUPLICATED, "--path", "x"],
    ],
    ids=["lift", "oracle", "lift-json", "compose", "factorize", "traversals", "vertex"],
)
def test_every_lift_refuses_a_duplicated_boundary(argv, capsys):
    """Each boundary must belong to one square, whether or not the path
    meets a duplicated one: r1 b b and b r2 each bound two squares, and
    enumeration finds two morphisms traversed by either path."""
    assert invoke(capsys, *argv) == (1, DUPLICATE_CONFLICT, "")


@pytest.mark.parametrize(
    "path, keys",
    [("r1 b b", {("e", "a"), ("a", "b"), ("ab", "b")}), ("b r2", {("e", "b"), ("b", "a")})],
)
def test_enumeration_finds_two_lifts_across_a_duplicated_boundary(path, keys, capsys):
    code, out, _ = invoke(capsys, "enumerate", DUPLICATED, "--degree", "b a", "--json")
    assert code == 0
    traversals = [
        [e["edge"] for e in m["edges"] if (e["prefix"], e["letter"]) in keys]
        for m in json.loads(out)["morphisms"]
    ]
    assert traversals.count(path.split()) == 2


def test_check_lists_duplicated_boundaries(capsys):
    code, out, err = invoke(capsys, "check", DUPLICATED)
    assert (code, err) == (1, "")
    assert out == (
        "incomplete\n"
        "  duplicated boundary path: r1 b b\n"
        "  duplicated boundary path: b r2\n"
    )


def test_blue_cycle_is_complete_and_passes_verify(capsys):
    code, out, _ = invoke(capsys, "check", BLUE_CYCLE)
    assert code == 0
    assert out == "complete: 4 squares, 4 red-first paths, 4 blue-first paths\n"
    code, out, _ = invoke(capsys, "verify", BLUE_CYCLE, "--max-len", "2")
    assert code == 0 and out.count("pass ") == 7


# Peak memory a refused command may trace.  A million-vertex model graph,
# or labels past 10^7 letters, would take far more; the largest peak of
# these refusals is about 7.2 MiB (the rows of a 60,000-edge lift, before
# its labels are refused).
REFUSAL_PEAK = 16 * 2**20


def invoke_traced(capsys, *argv):
    """``invoke``, and the peak of the memory traced during the call."""
    tracemalloc.start()
    try:
        result = invoke(capsys, *argv)
        return (*result, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def test_lift_too_large_exit_2(capsys):
    code, _, err, peak = invoke_traced(
        capsys, "lift", E, "--path", " ".join(["g"] * 30 + ["f h"] * 10)
    )
    assert peak < REFUSAL_PEAK
    assert code == 2 and err.startswith("resource limit:")


# Peak memory ``model --json`` may trace on the grid degree (200,200):
# 40,401 vertices and 80,400 edges, about 5.5 MB of text.  Written from
# the label rows it peaks near 16 MiB, the captured output included; with
# the model graph and a dict per edge through ``json.dumps`` it took 71.
MODEL_JSON_PEAK = 40 * 2**20


def test_model_json_is_written_from_the_label_rows(capsys):
    code, out, _, peak = invoke_traced(
        capsys, "model", "--mode", "grid", "--word", "200,200", "--json"
    )
    assert code == 0 and peak < MODEL_JSON_PEAK
    data = json.loads(out)
    assert data["degree"] == "(200,200)" and len(data["vertices"]) == 201 * 201
    assert data["edges"][-1] == {"prefix": "(200,199)", "letter": "b"}


@pytest.mark.parametrize(
    "argv, counts",
    [
        (["model", "--word", "b^999999"], "1000000 vertices, 999999 edges"),
        (["model", "--mode", "grid", "--word", "999,999"], "1000000 vertices, 1998000 edges"),
    ],
    ids=["bs", "grid"],
)
def test_model_text_at_the_vertex_limit_counts_from_the_row_widths(capsys, argv, counts):
    """A million vertices are counted, not built: the model graph's pairs
    alone would trace about 155 MiB on the row of b's."""
    code, out, _, peak = invoke_traced(capsys, *argv)
    assert peak < REFUSAL_PEAK
    assert code == 0 and out.endswith(f": {counts}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--word", "b a^20000"],
        ["word", "normalize", "b a^20000"],
        ["word", "mul", "b a^20000", "b", "--json"],
        ["model", "--word", "b^20000000"],
        # Small enough to build, but their labels would run past 10^8 letters.
        ["model", "--word", "b^20000", "--json"],
        # At the vertex limit: its labels are counted, not listed.
        ["model", "--word", "b^999999", "--json"],
        ["lift", E, "--path", " ".join(["g"] * 60000), "--json"],
    ],
)
def test_huge_degree_is_refused_in_one_short_line(argv, capsys):
    """Degrees whose pair, letter form, model graph or vertex labels are
    too large to build or print stop fast, before anything that size is
    allocated."""
    code, out, err, peak = invoke_traced(capsys, *argv)
    assert peak < REFUSAL_PEAK
    assert code == 2 and out == ""
    assert err.startswith("resource limit:") and err.count("\n") == 1 and len(err) < 100


@pytest.mark.parametrize("degree", ["b^10000", "b^4000 a"], ids=["cheap-bound", "exact-count"])
def test_enumeration_domain_limit_exit_2(capsys, degree):
    """b^10000 has N + M + 1 = 10,001 vertices in its first row and last
    column alone; b^4000 a has N + M = 8,001, and its exact count, 12,002
    vertices, refuses it.  Neither search starts."""
    w = BS.parse(degree)
    assert (sum(w) >= MAX_ENUMERATION_VERTICES) == (degree == "b^10000")
    assert BS.prefix_count(w) > MAX_ENUMERATION_VERTICES
    code, out, err, peak = invoke_traced(capsys, "enumerate", E, "--degree", degree)
    assert peak < REFUSAL_PEAK
    assert (code, out) == (2, "")
    assert err == "resource limit: enumeration domain of more than 10000 vertices\n"


def test_grid_degree_with_a_non_integer_coordinate_exit_2(capsys):
    assert invoke(capsys, "enumerate", GRID_FX, "--degree", "1,x") == (
        2, "", "error: bad grid degree '1,x'\n"
    )


def _ten_red_loops(tmp_path) -> str:
    # One vertex, one blue loop, ten red loops and a square for each pair
    # of them: a^2 b^8 has only 17 model vertices, but each of its 10^8
    # assignments is a compatible morphism, so no search can cut a branch.
    lines = ["mode bs", "vertex x", "edge b b x x"]
    lines += [f"edge r{i} a x x" for i in range(10)]
    lines += [
        f"square s{i}_{j} eA=r{i} aB=b abB=b eB=b bA=r{j}" for i in range(10) for j in range(10)
    ]
    p = tmp_path / "loops.cg"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_enumerate_too_many_search_nodes_exit_2(tmp_path, capsys):
    """The search stops at its node budget, which the message names, long
    before the 10^8 assignments it would otherwise try."""
    p = _ten_red_loops(tmp_path)
    code, _, err = invoke(capsys, "enumerate", p, "--degree", "a2 b8")
    assert code == 2 and err.startswith("resource limit:")
    assert err == "resource limit: enumeration of bbaa passed 1000000 search nodes\n"


def test_enumerate_limit_stops_the_search(tmp_path, capsys):
    p = _ten_red_loops(tmp_path)
    code, out, _ = invoke(capsys, "enumerate", p, "--degree", "a2 b8", "--limit", "1", "--json")
    assert code == 0 and json.loads(out)["count"] == 1
    code, _, err = invoke(capsys, "enumerate", p, "--degree", "a2 b8", "--json")
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


@pytest.mark.parametrize(
    "line, error",
    [
        ("square phi3 eA=f aB=k abB=k eB=g bA=f eA=h", "square slot 'eA' given twice"),
        ("mode bs", "mode given twice"),
    ],
)
def test_repeated_slot_or_mode_exit_2(tmp_path, capsys, line, error):
    """A later value never silently replaces an earlier one."""
    p = tmp_path / "repeated.cg"
    p.write_text((FIXTURE_DIR / "example_E.cg").read_text() + line + "\n")
    code, out, err = invoke(capsys, "check", str(p))
    assert (code, out, err) == (2, "", f"error: line 12: {error}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", E, "--max-len", "-3"],
        ["enumerate", E, "--degree", "ba", "--limit", "-1"],
    ],
)
def test_negative_count_is_a_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument {argv[-2]}: must be non-negative, not {argv[-1]}\n")
    code, _, err = invoke(capsys, *argv[:-1], "x")
    assert code == 2 and err.endswith(f"error: argument {argv[-2]}: invalid int value: 'x'\n")


def test_verify_unknown_suite_exit_2(capsys):
    """One error line names every unknown suite, in the order given."""
    for laws, named in (("nonsense", "nonsense"), ("category,bogus,functor,x", "bogus, x")):
        code, out, err = invoke(capsys, "verify", E, "--laws", laws)
        assert (code, out) == (2, "")
        assert err == (
            f"error: unknown law suite(s): {named}; "
            "the suites are category, functor, factorization\n"
        )


@pytest.mark.parametrize("laws", ["", "category,", ",functor", "category,,functor"])
def test_verify_empty_suite_name_exit_2(capsys, laws):
    code, out, err = invoke(capsys, "verify", E, "--laws", laws)
    assert (code, out) == (2, "")
    assert err == (
        f"error: empty law suite name in --laws {laws!r}; "
        "the suites are category, functor, factorization\n"
    )


@pytest.mark.parametrize("laws", ["category,category", "functor,category,functor"])
def test_verify_repeated_suite_name_exit_2(capsys, laws):
    code, out, err = invoke(capsys, "verify", E, "--laws", laws)
    assert (code, out) == (2, "")
    suite = laws.split(",")[-1]
    assert err == f"error: law suite {suite!r} given twice in --laws {laws!r}\n"


@pytest.mark.parametrize(
    "line, error",
    [
        ("mode x", "mode must be bs or grid"),
        ("vertex u w", "vertex takes one name"),
        ("edge z a u", "edge takes name colour range source"),
        ("square", "square needs a name"),
        ("square phi3 eA=f aB", "square slot 'aB' is not slot=edge"),
        ("frobnicate u", "unknown directive 'frobnicate'"),
        (
            "square phi3 eA=f aB=k abB=k eB=g bA=h",
            "square 'phi3': vertex b forced to both 'u' and 'v'",
        ),
    ],
)
def test_fixture_syntax_error_names_its_line(tmp_path, capsys, line, error):
    p = tmp_path / "bad.cg"
    p.write_text((FIXTURE_DIR / "example_E.cg").read_text() + line + "\n")
    code, out, err = invoke(capsys, "check", str(p))
    assert (code, out, err) == (2, "", f"error: line 12: {error}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", E, "--path", ""],
        ["compose", E, "--lhs", "", "--rhs", "f"],
        ["compose", E, "--lhs", "f", "--rhs", "  "],
        ["factorize", E, "--path", "", "--at", "e"],
        ["traversals", E, "--path", ""],
    ],
)
def test_blank_path_is_an_input_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: empty path: give edge names or one vertex name\n"


def test_missing_file_exit_2(capsys):
    code, _, err = invoke(capsys, "check", "no_such_file.cg")
    assert code == 2 and err


def test_bad_fixture_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cg"
    p.write_text("vertex u\nedge f a u nowhere\n")
    code, out, err = invoke(capsys, "check", str(p))
    assert (code, out) == (2, "")
    assert err == "error: line 2: edge 'f' uses undeclared vertex 'nowhere'\n"


def test_deterministic_output(capsys):
    _, first, _ = invoke(capsys, "lift", E, "--path", "g g f h", "--json")
    _, second, _ = invoke(capsys, "lift", E, "--path", "g g f h", "--json")
    assert first == second


def test_fixture_round_trip():
    for path in sorted(FIXTURE_DIR.glob("*.cg")):
        fx = load_fixture(path)
        text = serialize_fixture(fx)
        again = parse_fixture(text)
        assert serialize_fixture(again) == text, path.name
        assert again.graph == fx.graph
        assert [(sq.name, sq.red, sq.blue) for sq in again.squares] == [
            (sq.name, sq.red, sq.blue) for sq in fx.squares
        ], path.name


def test_grid_fixture_round_trip():
    fx = load_fixture(GRID_FX)
    assert fx.ops is GRID
    text = serialize_fixture(fx)
    assert parse_fixture(text).graph == fx.graph
    # Grid colours are written with the mode's own tokens, 1 and 2.
    assert text.splitlines()[2:4] == ["edge rho 1 w w", "edge beta 2 w w"]
    assert text.splitlines()[-1] == "square sigma v1=rho e1v2=beta v2=beta e2v1=rho"


def _env(**env: str) -> dict:
    """The environment of a fresh interpreter that imports this package,
    with env added."""
    package_root = pathlib.Path(bsgraph.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=str(package_root), **env)


def _python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this package, with env added."""
    return subprocess.run(
        [sys.executable, *args], env=_env(**env), capture_output=True, text=True, timeout=60
    )


class _Writes(io.StringIO):
    """A text stream that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", GRID_FX, "--path", "rho rho beta beta beta", "--json"],
        ["lift", E, "--path", "g g f h", "--dot"],
        ["compose", E, "--lhs", "g g", "--rhs", "f h", "--json"],
        ["factorize", E, "--path", "g g f h", "--at", "bb", "--json"],
        ["enumerate", BLUE_CYCLE, "--degree", "ba", "--json"],
        ["model", "--word", "a^2 b^5", "--json"],
        ["model", "--word", "bba", "--dot"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-1:]),
)
def test_large_outputs_are_written_in_bounded_slices(argv, monkeypatch, capsys):
    """The text goes out in writes of at most ``SLICE`` characters, and the
    slices add up to the output of one write."""
    assert run(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "SLICE", 7)
    monkeypatch.setattr(sys, "stdout", _Writes())
    assert run(argv) == 0
    assert sys.stdout.getvalue() == whole
    assert max(sys.stdout.sizes) <= 7 and len(sys.stdout.sizes) > len(whole) // 7


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_output_pipe_ends_the_script_as_it_ends_cat():
    """``bsgraph model ... --json | head -c 1``: the script is ended by
    SIGPIPE, with nothing on stderr, not by a ``BrokenPipeError``
    traceback and the finding code 1.  The output, about 0.97 MB, is far
    past what the pipe holds, so the write is still pending when the
    reader closes its end."""
    with subprocess.Popen(
        [sys.executable, "-m", "bsgraph.cli", "model", "--word", "a^6 b^3000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (-signal.SIGPIPE, b"")


def test_one_parser_serves_every_run(capsys):
    for argv in (["word", "mul", "b", "a"], ["check", E], ["frobnicate"], ["--help"]):
        invoke(capsys, *argv)
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_builds_no_parser():
    done = _python("-c", """
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
import bsgraph.cli
print(len(built), bsgraph.cli.build_parser.cache_info().misses)
""")
    assert (done.returncode, done.stdout) == (0, "0 0\n"), done.stderr


def test_run_calls_the_command_function_bound_at_call_time(monkeypatch, capsys):
    cli.build_parser()  # built before the rebinding, as in a long-lived process
    seen = []
    monkeypatch.setattr(cli, "cmd_lift", lambda args: seen.append(args.path) or 7)
    assert invoke(capsys, "lift", E, "--path", "g f") == (7, "", "")
    assert seen == ["g f"]


def test_a_run_in_a_shared_process_matches_a_fresh_process(monkeypatch):
    """Each argv gives the same exit code and bytes after other commands
    in one process as alone in a fresh ``python -m bsgraph.cli``."""
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ["verify", E, "--max-len", "-3"],
        ["check", E],
        ["frobnicate"],
        ["lift", E, "--path", "g g f h", "--json"],
        ["lift", E],
        [],
        ["--help"],
        ["verify", E, "--max-len", "1"],
        ["lift", "--help"],
        ["word", "normalize", "bbaa", "--json"],
        ["verify", E, "--max-len", "-3"],
    ]
    for argv in sequence:
        fresh = _python("-m", "bsgraph.cli", *argv, COLUMNS="80")
        assert transcript(argv) == {
            "exit": fresh.returncode, "stdout": fresh.stdout, "stderr": fresh.stderr
        }, argv


def test_golden_transcripts_hold_in_reverse_order():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for case in sorted(CASES, reverse=True):
        assert transcript(CASES[case]) == golden[case], case
