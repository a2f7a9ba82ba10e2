"""Squares, complete collections, and their boundary-path maps."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsgraph.squares as squares
from bsgraph.cli import run
from bsgraph.errors import ColourMismatch, JunctionMismatch, NotCovered, UnknownEdge
from bsgraph.fixtures import load_fixture
from bsgraph.graphs import build_graph, validate_path
from bsgraph.squares import (
    CompleteCollection,
    boundary_edges,
    build_square,
    build_square_slots,
    check_complete,
    not_covered,
    paths_with_colour_word,
)
from bsgraph.words import BS, GRID

from .conftest import FIXTURE_DIR
from .oracles import build_graph_by_rows, model, reference_square

PHI1 = {"eA": "f", "aB": "k", "abB": "k", "eB": "g", "bA": "f"}
PHI2 = {"eA": "h", "aB": "g", "abB": "g", "eB": "k", "bA": "h"}


def test_build_phi1_phi2(graph_E):
    sq1 = build_square_slots(graph_E, BS, PHI1, "phi1")
    sq2 = build_square_slots(graph_E, BS, PHI2, "phi2")
    assert (sq1.red, sq1.blue) == (("f", "k", "k"), ("g", "f"))
    assert (sq2.red, sq2.blue) == (("h", "g", "g"), ("k", "h"))


def test_square_vertex_images(fixture_dir, graph_E, phi1):
    """Both boundaries of every shipped square are paths with the mode's
    colour words, from the square's vertex e to its vertex ab^2 = ba."""
    for path in sorted(fixture_dir.glob("*.cg")):
        fx = load_fixture(path)
        for sq in fx.squares:
            red, blue = validate_path(fx.graph, sq.red), validate_path(fx.graph, sq.blue)
            assert red.colours == fx.ops.red_first_word, (path.name, sq.name)
            assert blue.colours == fx.ops.blue_first_word, (path.name, sq.name)
            assert (red.range_, red.source) == (blue.range_, blue.source), (path.name, sq.name)
    # phi1 sends e |-> u and ab^2 |-> v
    x = validate_path(graph_E, phi1.red)
    assert (x.range_, x.source) == ("u", "v")


def test_colour_mismatch(graph_E):
    bad = dict(PHI1, eA="g")  # g is blue; slot eA needs red
    with pytest.raises(ColourMismatch):
        build_square_slots(graph_E, BS, bad, "bad")


def test_junction_mismatch(graph_E):
    # red boundary f,k,k meets blue boundary k,h nowhere: h starts at u, f ends at v
    bad = dict(PHI1, eB="k")
    with pytest.raises(JunctionMismatch):
        build_square_slots(graph_E, BS, bad, "bad")


def test_missing_and_unknown_slots(graph_E):
    with pytest.raises(JunctionMismatch):
        build_square_slots(graph_E, BS, {"eA": "f"}, "partial")
    with pytest.raises(JunctionMismatch):
        build_square_slots(graph_E, BS, dict(PHI1, zz="f"), "extra")


def test_boundary_path_enumeration(graph_E):
    assert sorted(paths_with_colour_word(graph_E, BS.red_first_word)) == [
        ("f", "k", "k"),
        ("h", "g", "g"),
    ]
    assert sorted(paths_with_colour_word(graph_E, BS.blue_first_word)) == [
        ("g", "f"),
        ("k", "h"),
    ]


def test_check_complete_on_fixture(ctx):
    report = check_complete(ctx.graph, BS, ctx.squares)
    assert report.complete
    assert report.square_count == 2
    assert report.red_path_count == 2
    assert report.blue_path_count == 2


def test_check_incomplete_without_phi2(ctx, phi1):
    report = check_complete(ctx.graph, BS, [phi1])
    assert not report.complete
    assert report.uncovered_red == [("h", "g", "g")]
    assert report.uncovered_blue == [("k", "h")]


def test_check_duplicate(ctx, graph_E, phi1):
    clone = build_square_slots(graph_E, BS, PHI1, "phi1_again")
    report = check_complete(graph_E, BS, [phi1, clone, *ctx.squares[1:]])
    assert not report.complete
    assert report.duplicated  # the shared boundary paths are reported


def test_duplicates_reported_in_first_appearance_order(ctx, graph_E, phi1, phi2):
    phi2_again = build_square_slots(graph_E, BS, PHI2, "phi2_again")
    phi1_again = build_square_slots(graph_E, BS, PHI1, "phi1_again")
    report = check_complete(graph_E, BS, [phi1, phi2, phi2_again, phi1_again])
    assert not report.complete
    assert report.duplicated == [("f", "k", "k"), ("h", "g", "g"), ("g", "f"), ("k", "h")]


def test_check_complete_order_independent(ctx, graph_E):
    sqs = list(ctx.squares)
    fwd = check_complete(graph_E, BS, sqs).to_json()
    rev = check_complete(graph_E, BS, sqs[::-1]).to_json()
    assert fwd["status"] == rev["status"] == "complete"


def test_lookup_round_trip(ctx, phi1, phi2):
    assert ctx.red_to_blue[("f", "k", "k")] == ("g", "f") == phi1.blue
    assert ctx.blue_to_red[("k", "h")] == ("h", "g", "g") == phi2.red
    assert len(ctx.red_to_blue) == len(ctx.blue_to_red) == len(ctx.squares)
    for sq in ctx.squares:
        assert ctx.red_to_blue[sq.red] == sq.blue
        assert ctx.blue_to_red[sq.blue] == sq.red


def test_lookup_not_covered(graph_E, phi1):
    c = CompleteCollection(graph_E, BS, (phi1,))
    with pytest.raises(NotCovered) as exc:
        c.blue_to_red.get(("k", "h")) or not_covered("blue-first", ("k", "h"))
    assert exc.value.boundary == ("k", "h")
    assert str(exc.value) == "no square with blue-first boundary k h"


@pytest.mark.parametrize(
    "field", ["red_to_blue", "blue_to_red", "duplicate_red", "duplicate_blue"]
)
def test_derived_indices_are_not_constructor_arguments(ctx, phi1, field):
    # Passed in, a prefilled map made a complete collection report its
    # own boundaries as duplicated.
    value = [phi1.red] if field.startswith("duplicate") else {phi1.red: phi1.blue}
    with pytest.raises(TypeError):
        CompleteCollection(ctx.graph, BS, ctx.squares, **{field: value})


def test_malformed_square_reported(grid_ctx, phi1):
    # a bs-mode square validated against the grid graph cannot type-check
    report = check_complete(grid_ctx.graph, BS, [phi1])
    assert report.malformed and not report.complete


def test_square_of_the_other_mode_is_malformed(ctx, grid_ctx):
    """A square's boundary lengths fix its mode: bs squares are never read
    as grid ones on their own graph, nor grid squares as bs ones."""
    report = check_complete(ctx.graph, GRID, ctx.squares)
    assert report.to_json() == {
        "status": "incomplete",
        "squares": 0,
        "red_first_paths": 2,
        "blue_first_paths": 2,
        "uncovered_red_first": ["f k", "h g"],
        "uncovered_blue_first": ["g f", "k h"],
        "duplicated_boundaries": [],
        "malformed_squares": [
            f"{name}: square {name!r}: boundaries of 3 and 2 edges, "
            "but a grid square has 2 and 2"
            for name in ("phi1", "phi2")
        ],
    }
    report = check_complete(grid_ctx.graph, BS, grid_ctx.squares)
    assert report.square_count == 0 and not report.complete
    assert report.malformed == [
        "sigma: square 'sigma': boundaries of 2 and 2 edges, but a bs square has 3 and 2"
    ]


def test_collection_is_frozen_and_hashable(ctx, graph_E, phi1, phi2):
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.squares = (phi1,)
    again = CompleteCollection(graph_E, BS, [phi1, phi2])
    assert again.squares == ctx.squares == (phi1, phi2)
    assert again == ctx and hash(again) == hash(ctx)
    # Squares compare by boundaries, so a renamed copy is equal.
    renamed = build_square_slots(graph_E, BS, PHI1, "phi1_again")
    assert renamed == phi1 and hash(renamed) == hash(phi1)
    assert CompleteCollection(graph_E, BS, (renamed, phi2)) == ctx
    assert CompleteCollection(graph_E, BS, (phi1,)) != ctx


def _listed(sq) -> squares.Square:
    """A copy of sq built from lists, with no graph it was validated on."""
    return squares.Square(sq.name, list(sq.red), list(sq.blue))


def test_square_boundaries_are_frozen_to_tuples(fixture_dir, phi1):
    listed = squares.Square("x", ["f", "k", "k"], ["g", "f"])
    assert (listed.red, listed.blue) == (("f", "k", "k"), ("g", "f"))
    assert listed == phi1 and hash(listed) == hash(phi1)
    # Validated again, list-built squares get the parsed squares' report.
    for path in sorted(fixture_dir.glob("*.cg")):
        coll = load_fixture(path)
        listed = [_listed(sq) for sq in coll.squares]
        assert check_complete(coll.graph, coll.ops, listed) == check_complete(
            coll.graph, coll.ops, coll.squares
        ), path.name


def test_load_fixture_is_its_collection(fixture_dir):
    """A loaded fixture is the collection of its graph and squares."""
    for path in sorted(fixture_dir.glob("*.cg")):
        coll = load_fixture(path)
        assert isinstance(coll, CompleteCollection), path.name
        parts = CompleteCollection(coll.graph, coll.ops, [_listed(sq) for sq in coll.squares])
        assert parts == coll, path.name
        assert parts.red_to_blue == coll.red_to_blue, path.name
        assert parts.blue_to_red == coll.blue_to_red, path.name


# Named fixture slots and the domain edges (base, letter) they fill: the
# red-first boundary walked from e, then the blue-first one.
BS_SLOTS = {
    "eA": ((0, 0), "a"),
    "aB": ((1, 0), "b"),
    "abB": ((1, 1), "b"),
    "eB": ((0, 0), "b"),
    "bA": ((0, 1), "a"),
}
GRID_SLOTS = {
    "v1": ((0, 0), "a"),
    "e1v2": ((1, 0), "b"),
    "v2": ((0, 0), "b"),
    "e2v1": ((0, 1), "a"),
}


def test_slot_keys_match_square_model():
    """Each mode's slots, derived from its boundary words, are the literal
    tables the fixture format documents, and cover the square's model
    graph, whose edge list is their model order."""
    for ops, slots in ((BS, BS_SLOTS), (GRID, GRID_SLOTS)):
        assert dict(zip(ops.slot_names, boundary_edges(ops))) == slots, ops.name
        assert sorted(boundary_edges(ops)) == list(model(ops, ops.square_degree).edges)


def _paths_by_scan(g, colour_word):
    """The earlier ``paths_with_colour_word``: every edge is scanned for
    every partial path.  Kept as the reference for the indexed version."""
    partial = [((), None)]
    for letter in colour_word:
        extended = []
        for names, tail in partial:
            for e in g.edges:
                if e.colour == letter and (tail is None or tail == e.range_):
                    extended.append((names + (e.name,), e.source))
        partial = extended
    return [names for names, _ in partial]


@st.composite
def coloured_graphs(draw):
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    edges = draw(st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from(vertices), st.sampled_from(vertices)),
        max_size=10,
    ))
    return build_graph(vertices, [(f"e{i}", c, r, s) for i, (c, r, s) in enumerate(edges)])


@settings(max_examples=100, deadline=None)
@given(coloured_graphs(), st.lists(st.sampled_from("ab"), max_size=4))
def test_indexed_boundary_paths_match_the_scan(g, word):
    for colour_word in (BS.red_first_word, BS.blue_first_word, ("a", "b"), tuple(word)):
        assert paths_with_colour_word(g, colour_word) == _paths_by_scan(g, colour_word)


def test_square_from_another_graph_is_malformed(graph_E, phi1):
    # The same edge names, but k now runs from u to v: phi1's k k no
    # longer meets itself.
    moved = build_graph(
        ["u", "v"],
        [("g", "b", "u", "u"), ("k", "b", "u", "v"), ("f", "a", "u", "v"), ("h", "a", "v", "u")],
    )
    report = check_complete(moved, BS, [phi1])
    assert not report.complete
    assert report.square_count == 0
    assert [m.split(":")[0] for m in report.malformed] == ["phi1"]
    # An equal graph that is another object validates again, and passes.
    same = build_graph(list(graph_E.vertices), [
        (e.name, e.colour, e.range_, e.source) for e in graph_E.edges
    ])
    assert check_complete(same, BS, [phi1]).malformed == []


def test_check_validates_each_parsed_square_once(monkeypatch, fixture_dir):
    """``check`` validates each parsed square once, as a row of the batch,
    and ``check_complete`` validates none again."""
    import bsgraph.fixtures as fixtures

    batch = []
    real_batch = squares.build_squares

    def counted_batch(g, ops, rows, names):
        batch.extend(names[: len(rows)])
        return real_batch(g, ops, rows, names)

    monkeypatch.setattr(fixtures, "build_squares", counted_batch)
    monkeypatch.setattr(squares, "build_squares", counted_batch)
    assert run(["check", str(fixture_dir / "example_E.cg")]) == 0
    assert batch == ["phi1", "phi2"]


def _outcome(validate, *args):
    """What a validator makes of a square: the fields of the ``Square`` it
    returns, or the type and message of what it raises."""
    try:
        sq = validate(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)
    return sq, sq.name, sq.red, sq.blue, sq.graph


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURE_DIR.glob("*.cg")))
def test_build_square_agrees_with_the_reference(fixture):
    """Every square of every shipped fixture, read in both modes (its
    first names, repeated as needed, fill the mode's slots), with each
    slot set to every edge of the graph and to an unknown name, and with
    one name too few or too many: the planned validator returns the same
    square, or raises the same exception with the same message, as the
    reference walk, whichever fault comes first in model order."""
    ctx = load_fixture(FIXTURE_DIR / fixture)
    g = ctx.graph
    images = [e.name for e in g.edges] + ["no such edge"]
    seen = set()
    for ops in (BS, GRID):
        slots = len(ops.slot_names)
        for sq in ctx.squares:
            base = list((sq.red + sq.blue) * 2)[:slots]
            cases = [base[:-1], base + base[:1]]
            for k in range(slots):
                cases += [base[:k] + [image] + base[k + 1:] for image in images]
            for names in cases:
                got = _outcome(build_square, g, ops, names, sq.name)
                assert got == _outcome(reference_square, g, ops, names, sq.name), names
                seen.add(got[0] if isinstance(got[0], type) else "square")
    assert {"square", ValueError, ColourMismatch, UnknownEdge}.issubset(seen)


def _built(sq):
    return sq.name, sq.red, sq.blue, sq.graph


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURE_DIR.glob("*.cg")))
@pytest.mark.parametrize("ops", [BS, GRID], ids=["bs", "grid"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_stops_where_build_square_first_refuses(fixture, ops, data):
    """On rows whose every slot is an edge of the graph or an unknown name
    (and now and then a row of another length), among the collection's
    own squares and copies with one slot changed, ``build_squares``
    returns every square ``reference_square`` builds, or raises what the
    reference raises on the first row it refuses, with ``row`` set to that
    row's index."""
    coll = load_fixture(FIXTURE_DIR / fixture)
    g, m = coll.graph, len(ops.slot_names)
    name = st.sampled_from([e.name for e in g.edges] + ["no such edge"])
    row = st.lists(name, min_size=m, max_size=m) | st.lists(name, min_size=m - 1, max_size=m + 1)
    if coll.ops is ops:
        valid = st.sampled_from([sq.red + sq.blue for sq in coll.squares])
        changed = st.tuples(valid, st.integers(0, m - 1), name).map(
            lambda t: t[0][: t[1]] + (t[2],) + t[0][t[1] + 1 :]
        )
        row = valid | valid | changed | row
    rows = [tuple(r) for r in data.draw(st.lists(row, max_size=6))]
    names = [f"s{i}" for i in range(len(rows))]
    expected = []
    for i, (row, sq_name) in enumerate(zip(rows, names)):
        outcome = _outcome(reference_square, g, ops, row, sq_name)
        if isinstance(outcome[0], type):
            with pytest.raises(Exception) as exc:
                squares.build_squares(g, ops, rows, names)
            assert (type(exc.value), str(exc.value), exc.value.row) == (*outcome, i)
            return
        expected.append(_built(outcome[0]))
    assert [_built(sq) for sq in squares.build_squares(g, ops, rows, names)] == expected


def test_batch_of_valid_squares(ctx, grid_ctx):
    """Every row of a shipped collection is valid: the batch returns them
    all, each equal to ``build_square``'s, and none for no rows."""
    for coll in (ctx, grid_ctx):
        rows = [sq.red + sq.blue for sq in coll.squares]
        names = [sq.name for sq in coll.squares]
        built = squares.build_squares(coll.graph, coll.ops, rows, names)
        assert [_built(sq) for sq in built] == [_built(sq) for sq in coll.squares]
        assert squares.build_squares(coll.graph, coll.ops, [], []) == []


@pytest.mark.parametrize("width", [3, 5])
def test_build_graph_rows_of_another_length(width):
    """A row of 3 or 5 items raises what the row loop raises, wherever it
    stands: the columns would cut a long row short."""
    good = [("g", "b", "u", "u"), ("f", "a", "u", "v")]
    bad = ("h", "a", "u", "v", "w")[:width]
    for edges in (good + [bad], [bad] + good, good[:1] + [bad] + good[1:]):
        with pytest.raises(ValueError) as want:
            build_graph_by_rows(["u", "v"], edges)
        with pytest.raises(ValueError) as got:
            build_graph(["u", "v"], edges)
        assert str(got.value) == str(want.value)
