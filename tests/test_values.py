"""The value types: what they compare, hash and print by, that they stay
frozen, and that importing the package leaves ``dataclasses`` out."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

import bsgraph
from bsgraph.category import LawResult, VerificationReport
from bsgraph.graphs import ColouredGraph, Edge, Path, build_graph, validate_path
from bsgraph.models import ModelGraph, model
from bsgraph.morphisms import Morphism, identity_morphism, lift_path
from bsgraph.squares import CompleteCollection, CompletenessReport, Square, check_complete
from bsgraph.words import BS, GRID


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
    assert _equal_and_same_hash(Path(("g", "f"), "u", "v", ("b", "a")), x)
    assert hash(x) == hash((x.edges, x.range_, x.source, x.colours))
    for changed in [
        Path(("g", "h"), "u", "v", ("b", "a")),
        Path(("g", "f"), "v", "v", ("b", "a")),
        Path(("g", "f"), "u", "u", ("b", "a")),
        Path(("g", "f"), "u", "v", ("a", "a")),
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
    assert repr(x) == "Path(edges=('g', 'f'), range_='u', source='v', colours=('b', 'a'))"
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


def test_importing_the_cli_does_not_import_dataclasses():
    package_root = pathlib.Path(bsgraph.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_root))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, bsgraph.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
