"""Template graphs: the prefix graph of a degree.

The model graph of a degree w has the prefixes of w as vertices and the
single-letter extensions (z, z*l) as edges, coloured by l.  It is the
universal domain for degree-w morphisms, so vertices are degree values
themselves rather than renamed ids.  The library reads it as rows of
prefixes (``ops.row_widths``): the CLI, the lift and the enumeration
oracle, which numbers its domain from the row widths alone.  ``model``
lists its pairs; it is public API and the reference the tests check
those rows against, and nothing else in the library calls it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

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
    the model graph of w, in ascending order: the vertices with both a
    red and a blue edge, (i, j) with i < N and j < W_i - 1."""
    return [(i, j) for i, width in enumerate(ops.row_widths(w)[:-1]) for j in range(width - 1)]


def edge_count(widths: list) -> int:
    """Edges of the model graph with these row widths: one red edge per
    vertex off row N, one blue edge per vertex but the last of its row."""
    return 2 * sum(widths) - widths[-1] - len(widths)


def model_json_text(ops, w) -> str:
    """The model graph of w as ``model --json`` writes it: the object
    ``{"degree", "vertices", "edges"}`` of the degree's label, every
    vertex label and every edge's ``{"prefix", "letter"}``, in model
    order, as ``json.dumps`` with ``indent=2`` writes it.  Labels are
    ASCII letters, digits, commas and parentheses, so none is escaped.
    Built from ``ops.label_rows(w)`` and joined once, with no edge list."""
    check_model_size(ops, w)
    label = ops.label_rows(w)
    vertices, edges = sum(map(len, label)), edge_count(ops.row_widths(w))
    following = ',\n    {\n      "prefix": "'
    red, blue = (f'",\n      "letter": "{l}"\n    }}{following}' for l in "ab")
    parts = [None] * (1 + 2 * vertices + 2 * edges)
    parts[0] = '{\n  "degree": "' + label[-1][-1] + '",\n  "vertices": [\n    "'
    o = 2 * vertices + 1
    parts[1:o:2] = chain.from_iterable(label)
    parts[2:o:2] = ['",\n    "'] * vertices
    if not edges:
        parts[-1] = '"\n  ],\n  "edges": []\n}'
        return "".join(parts)
    parts[o - 1] = '"\n  ],\n  "edges": [\n    {\n      "prefix": "'
    # Two pieces per edge, in model order: the label of its base vertex,
    # then its tail.  Row i < N: a(i, 0), b(i, 0), a(i, 1), ..., a(i, last).
    for labels in label[:-1]:
        width = len(labels)
        stop = o + 4 * width - 2
        parts[o:stop:4] = labels
        parts[o + 1 : stop : 4] = [red] * width
        parts[o + 2 : stop : 4] = labels[:-1]
        parts[o + 3 : stop : 4] = [blue] * (width - 1)
        o = stop
    parts[o::2] = label[-1][:-1]
    parts[o + 1 :: 2] = [blue] * (len(label[-1]) - 1)
    parts[-1] = parts[-1][: -len(following)] + "\n  ]\n}"
    return "".join(parts)
