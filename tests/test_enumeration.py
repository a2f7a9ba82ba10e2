"""The enumeration oracle's pruned and pinned search against the search it
replaced.

``enumerate_leaf_checked`` (in ``oracles``) checks squares only on total
assignments.  Rejecting each square where its last edge is assigned cuts
only branches without a result, so the unpinned search must return the
reference's list in its order; pinned to a path, it must return the
reference's morphisms that the path traverses, in order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgraph.category import all_paths
from bsgraph.fixtures import load_fixture
from bsgraph.graphs import path_degree, validate_path, vertex_path
from bsgraph.morphisms import check_traverses, enumerate_morphisms

from .conftest import FIXTURE_DIR
from .oracles import enumerate_leaf_checked
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


def test_pinned_search_keeps_the_limit(fixture_dir):
    # Three morphisms traverse b b r2 (the fixture's own comment).
    ctx = load_fixture(fixture_dir / "duplicated_boundary.cg")
    x = validate_path(ctx.graph, ["b", "b", "r2"])
    w = path_degree(ctx.ops, x)
    found = enumerate_morphisms(ctx, w, through=x)
    assert len(found) == 3
    assert enumerate_morphisms(ctx, w, limit=2, through=x) == found[:2]
