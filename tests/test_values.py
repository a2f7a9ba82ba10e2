"""The value types: what they compare, hash and print by, that they stay
frozen, and that importing the package leaves ``dataclasses`` out."""

from __future__ import annotations

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

import bsgraph
from bsgraph.category import (
    CompositionTable,
    LawResult,
    VerificationReport,
    all_paths,
    composite,
)
from bsgraph.fixtures import load_fixture
from bsgraph.graphs import (
    ColouredGraph,
    Edge,
    Path,
    build_graph,
    concat,
    validate_path,
    vertex_path,
)
from bsgraph.morphisms import (
    Morphism,
    identity_morphism,
    lift_path,
    longest_traversal,
    normal_form,
    shortest_traversal,
    split_traversals,
)
from bsgraph.squares import CompleteCollection, CompletenessReport, Square, check_complete
from bsgraph.words import BS, GRID

from .oracles import ModelGraph, model


def _equal_and_same_hash(x, y) -> bool:
    return x == y and hash(x) == hash(y)


def test_square_compares_by_its_boundaries(graph_E, phi1, phi2):
    renamed = Square("other", phi1.red, phi1.blue)
    assert _equal_and_same_hash(renamed, phi1)
    assert Square(phi1.name, phi1.red, phi2.blue, graph_E) != phi1
    assert Square(phi1.name, phi2.red, phi1.blue, graph_E) != phi1
    assert hash(phi1) == hash((phi1.red, phi1.blue))


def test_collection_compares_by_graph_ops_and_squares(ctx, graph_E, phi1, phi2):
    assert _equal_and_same_hash(CompleteCollection(graph_E, BS, [phi1, phi2]), ctx)
    assert hash(ctx) == hash((graph_E, BS, (phi1, phi2)))
    other_graph = build_graph(["u", "v", "w"], [(e.name, e.colour, e.range_, e.source)
                                                for e in graph_E.edges])
    assert CompleteCollection(other_graph, BS, ctx.squares) != ctx
    assert CompleteCollection(graph_E, GRID, ctx.squares) != ctx
    assert CompleteCollection(graph_E, BS, (phi2, phi1)) != ctx


def test_graph_compares_by_vertices_and_edges(graph_E):
    again = ColouredGraph(graph_E.vertices, graph_E.edges)
    assert _equal_and_same_hash(again, graph_E)
    assert hash(graph_E) == hash((graph_E.vertices, graph_E.edges))
    assert ColouredGraph(graph_E.vertices[::-1], graph_E.edges) != graph_E
    assert ColouredGraph(graph_E.vertices, graph_E.edges[1:]) != graph_E


def test_path_compares_by_all_four_fields(graph_E):
    x = validate_path(graph_E, ["g", "f"])
    assert _equal_and_same_hash(Path(("g", "f"), "u", "v", "ba"), x)
    assert hash(x) == hash((x.edges, x.range_, x.source, x.colours))
    for changed in [
        Path(("g", "h"), "u", "v", "ba"),
        Path(("g", "f"), "v", "v", "ba"),
        Path(("g", "f"), "u", "u", "ba"),
        Path(("g", "f"), "u", "v", "aa"),
    ]:
        assert changed != x
    assert x != (x.edges, x.range_, x.source, x.colours)


def test_morphisms_differ_in_mode_degree_or_one_row(example_lam):
    assert identity_morphism(BS, "u") != identity_morphism(GRID, "u")
    # No two degrees of one mode have the same row shape, so the degree is
    # changed behind the constructor.
    moved = Morphism(BS, example_lam.degree, example_lam.vrows, example_lam.arows,
                     example_lam.brows)
    assert _equal_and_same_hash(moved, example_lam)
    object.__setattr__(moved, "degree", (9, 9))
    assert moved != example_lam and example_lam != moved
    for k, name in [(0, "v"), (1, "h"), (2, "k")]:
        rows = [[list(row) for row in rows]
                for rows in (example_lam.vrows, example_lam.arows, example_lam.brows)]
        rows[k][0][-1] = name
        assert Morphism(BS, example_lam.degree, *rows) != example_lam


def test_value_types_are_frozen(ctx, graph_E, phi1, example_lam):
    x = validate_path(graph_E, ["g", "f"])
    for obj, field in [
        (phi1, "name"), (phi1, "red"), (phi1, "graph"),
        (ctx, "squares"), (ctx, "red_to_blue"), (ctx, "duplicate_red"),
        (graph_E, "edges"), (graph_E, "vertex_set"),
        (x, "edges"), (x, "source"), (x, "new_attribute"),
        (example_lam, "degree"), (example_lam, "vrows"), (example_lam, "ops"),
    ]:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, field)


def test_repr_names_the_printed_fields(ctx, graph_E, phi1, example_lam):
    assert repr(phi1) == "Square(name='phi1', red=('f', 'k', 'k'), blue=('g', 'f'))"
    x = validate_path(graph_E, ["g", "f"])
    assert repr(x) == "Path(edges=('g', 'f'), range_='u', source='v', colours='ba')"
    assert repr(graph_E).startswith(
        "ColouredGraph(vertices=('u', 'v'), edges=(Edge(name='g', colour='b', "
        "range_='u', source='u'), "
    )
    assert repr(ctx) == (
        f"CompleteCollection(ops={BS!r}, squares=({phi1!r}, {ctx.squares[1]!r}), "
        "duplicate_red=(), duplicate_blue=())"
    )
    assert repr(example_lam).startswith(f"Morphism(ops={BS!r}, degree=(2, 8), vrows=((")


def test_records_are_named_tuples(ctx):
    assert Edge("f", "a", "u", "v") == ("f", "a", "u", "v")
    m = model(BS, (1, 0))
    assert isinstance(m, ModelGraph) and m.word == (1, 0) and len(m.vertices) == 2
    law = LawResult("identity laws", 3, True)
    assert law.counterexample is None and law.to_json()["law"] == "identity laws"
    report = VerificationReport([law])
    assert report.passed and report.to_text() == "pass  identity laws  (3 instances)"
    complete = check_complete(ctx.graph, ctx.ops, ctx.squares)
    assert isinstance(complete, CompletenessReport) and complete.complete
    for record, field in [(law, "passed"), (report, "laws"), (complete, "status")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_collection_internals_are_read_only(ctx, graph_E):
    for view in (ctx.red_to_blue, ctx.blue_to_red):
        with pytest.raises(AttributeError):
            view.clear()
        with pytest.raises(TypeError):
            view[("f", "k", "k")] = ("g", "f")
    for duplicates in (ctx.duplicate_red, ctx.duplicate_blue):
        assert duplicates == ()
        with pytest.raises(AttributeError):
            duplicates.append(("f", "k", "k"))
    with pytest.raises(FrozenInstanceError):
        ctx.red_to_blue = {}
    # The collection still reads as complete and still lifts.
    assert ctx.report().complete
    lift_path(ctx, validate_path(graph_E, ["g", "g", "f", "h"]))


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle{p}": lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_value_types_copy_and_pickle_through_their_constructors(trip, fixture_dir, graph_E):
    round_trip = ROUND_TRIPS[trip]
    values = list(all_paths(graph_E, 3))
    for path in sorted(fixture_dir.glob("*.cg")):
        coll = load_fixture(path)
        values += [coll, coll.graph, *coll.squares]
        values += [lift_path(coll, x) for x in all_paths(coll.graph, 1) if coll.report().complete]
        again = round_trip(coll)
        # A mode is its one instance, and a square remembers the graph it was checked on.
        assert again.ops is coll.ops
        assert [sq.graph is again.graph for sq in again.squares] == [
            sq.graph is coll.graph for sq in coll.squares
        ]
        assert [sq.name for sq in again.squares] == [sq.name for sq in coll.squares]
    assert {type(v) for v in values} == {Path, ColouredGraph, Square, CompleteCollection, Morphism}
    for value in values:
        again = round_trip(value)
        assert type(again) is type(value) and _equal_and_same_hash(again, value), value
        assert repr(again) == repr(value)


def test_importing_the_cli_does_not_import_dataclasses():
    package_root = pathlib.Path(bsgraph.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_root))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, bsgraph.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


@pytest.mark.parametrize("name", ["ctx", "grid_ctx"])
def test_every_colour_word_is_a_str(name, request):
    """A colour word has one representation, the string of its letters:
    in a path, in a mode, and from the letter functions."""
    ctx = request.getfixturevalue(name)
    ops, g = ctx.ops, ctx.graph
    table = CompositionTable(ctx, 3)
    pairs = list(table.pairs())
    for i, j in pairs:
        table.compose(i, j)
    lam = max(table.pool, key=lambda m: ops.prefix_count(m.degree))
    paths = [vertex_path(g, v) for v in g.vertices] + all_paths(g, 3) + table.paths
    paths += [shortest_traversal(lam), longest_traversal(lam)]
    words = [ops.red_first_word, ops.blue_first_word]
    for w1 in ops.prefixes(lam.degree):
        paths += split_traversals(lam, w1, ops.quotient(w1, lam.degree))
        words += [ops.shortest_letters(w1), ops.longest_letters(w1)]
    for i, j in pairs:
        x, y = table.paths[i], table.paths[j]
        paths += [concat(x, y), normal_form(ctx, concat(x, y))]
        words.append(composite(table, i, j)[3])
    paths.append(validate_path(g, [e.name for e in g.edges[:1]]))
    words += [x.colours for x in paths]
    assert {type(word) for word in words} == {str}
    assert vertex_path(g, g.vertices[0]).colours == ""


@pytest.mark.parametrize("colours", [("a", "b", "b"), ["a", "b", "b"], None, b"abb"])
def test_a_path_refuses_a_colour_word_that_is_not_a_str(graph_E, colours):
    """A tuple of letters once was a colour word; now ``normal_form`` could
    not read it, so the path refuses it when it is made."""
    with pytest.raises(TypeError) as exc:
        Path(("f", "k", "k"), "u", "v", colours)
    assert str(exc.value) == f"a path's colour word is a str, not {type(colours).__name__}"
    assert Path(("f", "k", "k"), "u", "v", "abb") == validate_path(graph_E, ["f", "k", "k"])
