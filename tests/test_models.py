"""Model graphs, their interval subgraphs, and the translation isomorphism."""

from __future__ import annotations

import pytest

from bsgraph.errors import ResourceLimit
from bsgraph.models import MAX_VERTICES, square_positions
from bsgraph.words import BS, GRID

from .oracles import model


def interval(ops, w1, w2):
    """Vertex and edge sets of the model graph of w2 restricted to
    {z : w1 <= z <= w2}."""
    parent = model(ops, w2)
    vertices = {z for z in parent.vertices if ops.is_prefix(w1, z)}
    edges = {(z, l) for z, l in parent.edges if z in vertices}
    return vertices, edges


def test_model_ba():
    m = model(BS, (1, 2))
    assert len(m.vertices) == 5
    blues = [(z, l) for z, l in m.edges if l == "b"]
    reds = [(z, l) for z, l in m.edges if l == "a"]
    assert len(blues) == 3 and len(reds) == 2
    assert ((0, 0), "a") in reds and ((0, 1), "a") in reds


def test_model_identity_degree():
    m = model(BS, (0, 0))
    assert m.vertices == ((0, 0),) and m.edges == ()


def test_model_2_8_counts():
    m = model(BS, (2, 8))
    assert len(m.vertices) == 17
    assert len(m.edges) == 22
    blues = sum(1 for _, l in m.edges if l == "b")
    assert blues == 14 and len(m.edges) - blues == 8


def test_vertex_count_matches_prefix_count():
    for n in range(4):
        for m_b in range(10):
            w = (n, m_b)
            assert len(model(BS, w).vertices) == BS.prefix_count(w)


def test_resource_limit():
    # N + M + 1 vertices lie on the rows (i, 0) and (N, j): refused on
    # that bound, before any count, however large M is.
    for w in ((0, MAX_VERTICES), (20000, 1 << 20000)):
        with pytest.raises(ResourceLimit):
            model(BS, w)
    # Inside that bound, refused on the exact count: 1,050,003 vertices.
    assert BS.prefix_count((2, 600000)) > MAX_VERTICES
    with pytest.raises(ResourceLimit):
        model(BS, (2, 600000))
    with pytest.raises(ResourceLimit):
        model(GRID, (999, 1000))


def test_interval_trivial_cases():
    w = (2, 5)
    vertices, edges = interval(BS, w, w)
    assert vertices == {w} and edges == set()
    vertices, edges = interval(BS, (0, 0), w)
    assert vertices == set(model(BS, w).vertices)
    assert edges == set(model(BS, w).edges)


def test_interval_bb_to_bbaa():
    vertices, edges = interval(BS, (0, 2), (2, 8))
    assert vertices == {(0, 2), (1, 4), (2, 8)}
    assert len(edges) == 2
    assert all(l == "a" for _, l in edges)


def test_translation_isomorphism():
    """The interval [w1, w2] of model(w2) = w1 * model(w1\\w2), colour/shape preserving."""
    for w1, w2 in [
        ((0, 2), (2, 8)),
        ((1, 1), (2, 6)),
        ((0, 0), (1, 2)),
    ]:
        vertices, edges = interval(BS, w1, w2)
        tr = model(BS, BS.quotient(w1, w2))
        assert vertices == {BS.mul(w1, z) for z in tr.vertices}
        assert edges == {(BS.mul(w1, z), l) for z, l in tr.edges}


def test_restriction_to_prefix_is_smaller_model():
    """model(w) restricted to the prefixes of w1 is model(w1)."""
    w = (2, 8)
    parent = model(BS, w)
    for w1 in BS.prefixes(w):
        sub = model(BS, w1)
        below = {z for z in parent.vertices if BS.is_prefix(z, w1)}
        assert below == set(sub.vertices)
        edges = {(z, l) for z, l in parent.edges if BS.is_prefix(BS.step(z, l), w1)}
        assert edges == set(sub.edges)


def test_square_positions_closure():
    """Each square position has all five square edges inside the model."""
    for n in range(4):
        for m_b in range(10):
            w = (n, m_b)
            edges = set(model(BS, w).edges)
            for pos in square_positions(BS, w):
                for z, l in model(BS, BS.square_degree).edges:
                    assert (BS.mul(pos, z), l) in edges


@pytest.mark.parametrize("ops", [BS, GRID], ids=["bs", "grid"])
def test_square_positions_are_the_bases_whose_square_fits(ops):
    for w in [(n, m) for n in range(6) for m in range(70)]:
        fits = [m for m in ops.prefixes(w) if ops.is_prefix(ops.mul(m, ops.square_degree), w)]
        assert square_positions(ops, w) == fits, w


def test_square_position_count_in_2_8():
    # positions m with m * ba <= (2,8): two in the bottom row, four above
    assert len(square_positions(BS, (2, 8))) == 6


def test_grid_models():
    sq = model(GRID, (1, 1))
    assert len(sq.vertices) == 4 and len(sq.edges) == 4
    assert model(GRID, (0, 0)).edges == ()
    rect = model(GRID, (2, 1))
    assert len(rect.vertices) == 6 and len(rect.edges) == 7


def test_grid_interval():
    vertices, _ = interval(GRID, (1, 0), (2, 1))
    assert len(vertices) == 4
    tr = model(GRID, GRID.quotient((1, 0), (2, 1)))
    assert vertices == {GRID.mul((1, 0), z) for z in tr.vertices}
