"""Coloured graphs, paths, and the degree map."""

from __future__ import annotations

import pytest

from bsgraph.errors import (
    BadColour,
    DuplicateId,
    NotComposable,
    UnknownEdge,
    UnknownVertex,
)
from bsgraph.graphs import (
    ColouredGraph,
    Edge,
    build_graph,
    concat,
    parse_path,
    path_degree,
    validate_path,
    vertex_path,
)
from bsgraph.words import BS, GRID


def test_fixture_E_shape(graph_E):
    assert graph_E.vertices == ("u", "v")
    by_name = {e.name: e for e in graph_E.edges}
    assert by_name["g"].colour == "b" and by_name["g"].range_ == "u"
    assert by_name["k"].colour == "b" and by_name["k"].source == "v"
    assert (by_name["f"].range_, by_name["f"].source) == ("u", "v")
    assert (by_name["h"].range_, by_name["h"].source) == ("v", "u")


def test_build_graph_rejects_bad_input():
    with pytest.raises(UnknownVertex):
        build_graph(["u"], [("f", "a", "u", "nope")])
    with pytest.raises(DuplicateId):
        build_graph(["u", "u"], [])
    with pytest.raises(DuplicateId):
        build_graph(["u"], [("f", "a", "u", "u"), ("f", "b", "u", "u")])
    with pytest.raises(BadColour):
        build_graph(["u"], [("f", "c", "u", "u")])


def test_empty_graph_is_valid():
    g = build_graph([], [])
    assert g.vertices == () and g.edges == ()


def test_directly_built_graph_is_indexed():
    g = ColouredGraph(("u", "v"), (Edge("f", "a", "u", "v"),))
    assert g.edge("f").source == "v"
    with pytest.raises(UnknownEdge):
        g.edge("zz")
    assert parse_path(g, "v").range_ == "v"
    assert g == build_graph(["u", "v"], [("f", "a", "u", "v")])


def test_validate_path_examples(graph_E):
    p = validate_path(graph_E, ["g", "g", "f", "h"])
    assert (p.range_, p.source) == ("u", "u")
    assert validate_path(graph_E, ["f", "k", "k"]).source == "v"
    with pytest.raises(NotComposable) as exc:
        validate_path(graph_E, ["g", "h"])
    assert exc.value.index == 0  # junction after the first edge
    with pytest.raises(UnknownEdge):
        validate_path(graph_E, ["g", "zz"])


def test_path_degree(graph_E):
    assert path_degree(BS, validate_path(graph_E, ["g", "g", "f", "h"])) == (2, 8)
    assert path_degree(BS, vertex_path(graph_E, "u")) == (0, 0)
    assert path_degree(BS, validate_path(graph_E, ["f", "k", "k"])) == (1, 2)


def test_path_degree_multiplicative(graph_E):
    x = validate_path(graph_E, ["g", "g"])
    y = validate_path(graph_E, ["f", "h"])
    assert path_degree(BS, concat(x, y)) == BS.mul(path_degree(BS, x), path_degree(BS, y))


def test_grid_path_degree(grid_ctx):
    p = validate_path(grid_ctx.graph, ["rho", "beta", "rho"])
    assert path_degree(GRID, p) == (2, 1)
    assert path_degree(GRID, validate_path(grid_ctx.graph, ["beta", "beta"])) == (0, 2)
    assert path_degree(GRID, vertex_path(grid_ctx.graph, "w")) == (0, 0)


def test_parse_path(graph_E):
    assert parse_path(graph_E, "g g f h").edges == ("g", "g", "f", "h")
    vp = parse_path(graph_E, "u")
    assert len(vp) == 0 and vp.range_ == vp.source == "u"
    with pytest.raises(UnknownVertex):
        vertex_path(graph_E, "w")


def test_concat_requires_meeting_endpoints(graph_E):
    x = validate_path(graph_E, ["f"])  # s(f) = v
    y = validate_path(graph_E, ["g"])  # r(g) = u
    with pytest.raises(NotComposable):
        concat(x, y)
    assert concat(x, vertex_path(graph_E, "v")) == x
    assert concat(vertex_path(graph_E, "u"), x) == x
