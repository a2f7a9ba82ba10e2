"""Template graphs: the prefix graph of a degree.

The model graph of a degree w has the prefixes of w as vertices and the
single-letter extensions (z, z*l) as edges, coloured by l.  It is the
universal domain for degree-w morphisms, so vertices are degree values
themselves rather than renamed ids.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ResourceLimit

MAX_VERTICES = 10**6


# Prefix graph of a degree.  Edges are (base, letter) pairs with
# r = base, s = base*letter, colour = letter.
ModelGraph = namedtuple("ModelGraph", "ops word vertices edges")


def too_many_vertices(ops, w, limit: int) -> bool:
    """Whether the model graph of w has more than ``limit`` vertices.  Its
    rows (i, 0) and (N, j) alone hold N + M + 1 of them, so past that cheap
    bound the answer comes before ``prefix_count`` sums anything."""
    return w[0] + w[1] >= limit or ops.prefix_count(w) > limit


def check_model_size(ops, w) -> None:
    if too_many_vertices(ops, w, MAX_VERTICES):
        raise ResourceLimit(f"model graph of more than {MAX_VERTICES} vertices")


def model(ops, w) -> ModelGraph:
    check_model_size(ops, w)
    vertices = tuple(ops.prefixes(w))
    edges = tuple((z, l) for z in vertices for l in "ab" if ops.is_prefix(ops.step(z, l), w))
    return ModelGraph(ops, w, vertices, edges)


def square_positions(ops, w) -> list:
    """Bases m whose translated square [m, m*square_degree] fits inside
    the model graph of w."""
    sq = ops.square_degree
    return [m for m in ops.prefixes(w) if ops.is_prefix(ops.mul(m, sq), w)]
