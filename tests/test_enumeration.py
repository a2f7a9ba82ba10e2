"""The enumeration oracle's pruned and pinned search against the search it
replaced.

``enumerate_leaf_checked`` (in ``oracles``) checks squares only on total
assignments.  Checking each square occurrence at each of its edges, on
the edges assigned so far, cuts only branches without a result, so the
unpinned search must return the reference's list in its order; pinned to
a path, it must return the reference's morphisms that the path
traverses, in order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgraph.category import all_paths, verify
from bsgraph.cli import run
from bsgraph.fixtures import load_fixture, parse_fixture
from bsgraph.graphs import Path, path_degree, validate_path, vertex_path
from bsgraph.morphisms import _numbered_edges, _rows_reader, check_traverses, enumerate_morphisms
from bsgraph.words import BS, GRID

from .conftest import FIXTURE_DIR
from .oracles import enumerate_leaf_checked, model
from .test_lift import multi_vertex_paths
from .test_normal_form import generated_paths

MAX_LEN = 4


def _agree(ctx, paths) -> int:
    """Checks both searches on each path's degree; returns how many paths
    more than one morphism traverses."""
    full: dict = {}
    shared = 0
    for x in paths:
        w = path_degree(ctx.ops, x)
        if w not in full:
            full[w] = enumerate_leaf_checked(ctx, w)
            assert enumerate_morphisms(ctx, w) == full[w], ctx.ops.format(w)
        traversed = [m for m in full[w] if check_traverses(m, x)]
        assert enumerate_morphisms(ctx, w, through=x) == traversed, str(x)
        shared += len(traversed) > 1
    return shared


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.cg")), ids=lambda p: p.stem)
def test_pruned_and_pinned_searches_match_the_reference(path):
    ctx = load_fixture(path)
    shared = _agree(ctx, all_paths(ctx.graph, MAX_LEN))
    # Two squares share r1 b b (and two b r2) there, so more than one
    # morphism traverses some paths; everywhere else at most one does.
    assert (shared > 0) == (path.stem == "duplicated_boundary")


@settings(max_examples=60, deadline=None)
@given(st.one_of(generated_paths(MAX_LEN), multi_vertex_paths()))
def test_searches_match_the_reference_on_generated_collections(drawn):
    ctx, paths = drawn
    g = ctx.graph
    _agree(ctx, [validate_path(g, x.edges[:MAX_LEN]) for x in paths])


def test_pinned_search_of_another_degree_is_empty(ctx):
    x = validate_path(ctx.graph, ["g", "f"])
    assert path_degree(ctx.ops, x) == (1, 2)
    assert enumerate_morphisms(ctx, (0, 2), through=x) == []
    assert enumerate_morphisms(ctx, ctx.ops.identity, through=x) == []
    u = vertex_path(ctx.graph, "u")
    assert enumerate_morphisms(ctx, path_degree(ctx.ops, x), through=u) == []


@pytest.mark.parametrize("through", [
    Path(("f",), "u", "v", "b"),  # f is red
    Path(("f",), "v", "v", "a"),  # f has range u
    Path(("f", "f"), "u", "v", "aa"),  # s(f) = v is not r(f) = u
], ids=["colour", "range", "junction"])
def test_pinned_search_through_a_forged_path_is_empty(ctx, through):
    """A pinned edge is offered only at its own range and only to a domain
    edge of its own colour, so a ``through`` that is not a path of the
    graph finds no morphism."""
    assert enumerate_morphisms(ctx, path_degree(ctx.ops, through), through=through) == []


def test_pinned_search_keeps_the_limit(fixture_dir):
    # Three morphisms traverse b b r2 (the fixture's own comment).
    ctx = load_fixture(fixture_dir / "duplicated_boundary.cg")
    x = validate_path(ctx.graph, ["b", "b", "r2"])
    w = path_degree(ctx.ops, x)
    found = enumerate_morphisms(ctx, w, through=x)
    assert len(found) == 3
    assert enumerate_morphisms(ctx, w, limit=2, through=x) == found[:2]


# Two vertices, a red loop at each, and two blue edges into v, from u and
# from v: A_a = I and A_b = [[0, 0], [1, 1]], so A_a A_b^2 = A_b A_a, with
# one square for each of the two balanced groups.
TWO_BLUE_INTO_V = """mode bs
vertex u
vertex v
edge ru a u u
edge rv a v v
edge bu b v u
edge bv b v v
square s1 eA=rv aB=bv abB=bu eB=bu bA=ru
square s2 eA=rv aB=bv abB=bv eB=bv bA=rv
"""


@pytest.mark.parametrize("word", ["ba", "bba", "baa", "bbaa"])
def test_search_skips_a_candidate_whose_source_is_already_fixed(word):
    """Both blue edges into v are candidates wherever a domain edge has
    range v, so where an earlier edge has fixed the domain edge's source,
    the candidate with the other source is skipped before any square is
    read."""
    ctx = parse_fixture(TWO_BLUE_INTO_V)
    w = ctx.ops.parse(word)
    found = enumerate_morphisms(ctx, w)
    assert found and found == enumerate_leaf_checked(ctx, w)


def test_laws_hold_with_two_blue_edges_into_one_vertex():
    assert verify(parse_fixture(TWO_BLUE_INTO_V), 3).passed


def test_deep_searches_do_not_recurse(capsys):
    """The search keeps its own stack: a thousand domain edges are a
    thousand levels, past Python's default recursion limit, here under
    pytest's frames as well."""
    example = str(FIXTURE_DIR / "example_E.cg")
    g1000 = " ".join(["g"] * 1000)
    assert run(["enumerate", example, "--degree", "b^1000", "--limit", "1"]) == 0
    assert capsys.readouterr().out == f"[0] r=u s=u traversal {g1000}\n"
    assert run(["lift", example, "--path", g1000, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(": 1001 vertices, 1000 edges, r=u s=u\n")


# N = 0, rows of width 1 (every row of (3, 0) in both modes, the upper
# rows of BS (3, 1) and (2, 3)), and wider rows in both modes.
NUMBERED = [
    (BS, (0, 0)), (BS, (0, 1)), (BS, (0, 5)), (BS, (3, 0)), (BS, (3, 1)), (BS, (2, 3)),
    (BS, (2, 6)), (BS, (3, 13)), (GRID, (0, 0)), (GRID, (0, 4)), (GRID, (3, 0)),
    (GRID, (1, 1)), (GRID, (2, 3)), (GRID, (4, 2)),
]


@pytest.mark.parametrize("ops, w", NUMBERED, ids=lambda v: getattr(v, "name", str(v)))
def test_oracle_numbers_its_domain_in_model_order(ops, w):
    """The oracle's domain numbering, made from the row widths alone, is
    ``model(ops, w)``'s vertex and edge order: edge e runs from the vertex
    numbered by its base to the one numbered by its end, ((i, j), l) is
    numbered e, and the rows cut out of the numbers are the model's."""
    domain = model(ops, w)
    vertex = {z: v for v, z in enumerate(domain.vertices)}
    edges, number = _numbered_edges(ops, ops.row_widths(w))
    assert edges == [(vertex[z], l, vertex[ops.step(z, l)]) for z, l in domain.edges]
    assert [number(*z, l) for z, l in domain.edges] == list(range(len(domain.edges)))
    vrows, arows, brows = _rows_reader(ops.row_widths(w))(
        range(len(domain.vertices)), range(len(edges))
    )
    cut = {(z, l): e for e, (z, l) in enumerate(domain.edges)}
    assert [list(row) for row in vrows] == [
        [vertex[z] for z in domain.vertices if z[0] == i] for i in range(w[0] + 1)
    ]
    for rows, letter in ((arows, "a"), (brows, "b")):
        assert [list(row) for row in rows] == [
            [e for (z, l), e in cut.items() if z[0] == i and l == letter]
            for i in range(w[0] + 1)
        ]
