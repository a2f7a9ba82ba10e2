"""Template graphs: the prefix graph of a degree.

The model graph of a degree w has the prefixes of w as vertices and the
single-letter extensions (z, z*l) as edges, coloured by l.  It is the
universal domain for degree-w morphisms, so vertices are degree values
themselves rather than renamed ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimit

DEFAULT_MAX_VERTICES = 10**6


@dataclass(frozen=True)
class ModelGraph:
    """Prefix graph of a degree.  Edges are (base, letter) pairs with
    r = base, s = base*letter, colour = letter."""

    ops: object
    word: tuple
    vertices: tuple
    edges: tuple  # of (degree, letter)


def check_model_size(ops, w, max_vertices: int = DEFAULT_MAX_VERTICES) -> None:
    """Raise ResourceLimit if the model graph of w has too many vertices."""
    count = ops.prefix_count(w)
    if count > max_vertices:
        raise ResourceLimit(
            f"model graph of {ops.format(w)} has {count} vertices "
            f"(limit {max_vertices})"
        )


def model(ops, w, max_vertices: int = DEFAULT_MAX_VERTICES) -> ModelGraph:
    check_model_size(ops, w, max_vertices)
    vertices = tuple(ops.prefixes(w))
    edges = tuple(
        (z, l)
        for z in vertices
        for l in "ab"
        if ops.is_prefix(ops.step(z, l), w)
    )
    return ModelGraph(ops, w, vertices, edges)


def square_positions(ops, w) -> list:
    """Bases m whose translated square [m, m*square_degree] fits inside
    the model graph of w."""
    sq = ops.square_degree
    return [m for m in ops.prefixes(w) if ops.is_prefix(ops.mul(m, sq), w)]
