"""Tests that sit exactly on the library's limits and on the junction
named in a ``NotComposable`` message."""

from __future__ import annotations

import pytest

import bsgraph.morphisms as morphisms
from bsgraph.errors import NotComposable, ResourceLimit
from bsgraph.graphs import build_graph, validate_path
from bsgraph.models import MAX_VERTICES, too_many_vertices
from bsgraph.squares import CompleteCollection
from bsgraph.words import BS


def _two_blue_loops() -> CompleteCollection:
    """One vertex with two blue loops and no squares: every assignment of
    a blue-only degree is compatible, so nothing is pruned."""
    graph = build_graph(["v"], [("b1", "b", "v", "v"), ("b2", "b", "v", "v")])
    return CompleteCollection(graph, BS, ())


def test_search_node_limit_is_inclusive(monkeypatch):
    # b^5 has five domain edges: the search visits 1 + 2 + ... + 32 = 63
    # nodes and finds 2^5 morphisms.
    coll = _two_blue_loops()
    monkeypatch.setattr(morphisms, "MAX_SEARCH_NODES", 63)
    assert len(morphisms.enumerate_morphisms(coll, (0, 5))) == 32
    monkeypatch.setattr(morphisms, "MAX_SEARCH_NODES", 62)
    with pytest.raises(ResourceLimit, match="passed 62 search nodes"):
        morphisms.enumerate_morphisms(coll, (0, 5))


def _no_exact_count(w):
    raise AssertionError("the cheap bound should have decided")


@pytest.mark.parametrize("limit", [5, MAX_VERTICES])
def test_vertex_limit_boundaries(monkeypatch, limit):
    # b^(L-1) has exactly L vertices: at the limit, not past it.
    assert not too_many_vertices(BS, (0, limit - 1), limit)
    # b^L has L + 1; N + M + 1 > L already, so no exact count is needed.
    monkeypatch.setattr(BS, "prefix_count", _no_exact_count)
    assert too_many_vertices(BS, (0, limit), limit)


def test_not_composable_names_the_junction(graph_E):
    with pytest.raises(NotComposable) as exc:
        validate_path(graph_E, ["g", "g", "h"])
    assert exc.value.index == 1
    assert str(exc.value) == "s(g) = u != r(h) = v"
