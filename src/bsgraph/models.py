"""Template graphs: the prefix graph of a degree.

The model graph of a degree w has the prefixes of w as vertices and the
single-letter extensions (z, z*l) as edges, coloured by l.  It is the
universal domain for degree-w morphisms, so vertices are degree values
themselves rather than renamed ids.  The library reads it only as rows
of prefixes (``ops.row_widths``, ``ops.label_rows``): the CLI, the lift
and the enumeration oracle, which numbers its domain from the row widths
alone.  No module lists its pairs; the tests keep that form as their
reference for the rows (``tests/oracles.model``).
"""

from __future__ import annotations

from .errors import ResourceLimit

MAX_VERTICES = 10**6


def too_many_vertices(ops, w, limit: int) -> bool:
    """Whether the model graph of w has more than ``limit`` vertices.  Its
    rows (i, 0) and (N, j) alone hold N + M + 1 of them, so past that cheap
    bound the answer comes before ``prefix_count`` sums anything."""
    return w[0] + w[1] >= limit or ops.prefix_count(w) > limit


def check_model_size(ops, w) -> None:
    if too_many_vertices(ops, w, MAX_VERTICES):
        raise ResourceLimit(f"model graph of more than {MAX_VERTICES} vertices")


def square_positions(ops, w) -> list:
    """Bases m whose translated square [m, m*square_degree] fits inside
    the model graph of w, in ascending order: the vertices with both a
    red and a blue edge, (i, j) with i < N and j < W_i - 1."""
    return [(i, j) for i, width in enumerate(ops.row_widths(w)[:-1]) for j in range(width - 1)]


def edge_count(widths: list) -> int:
    """Edges of the model graph with these row widths: one red edge per
    vertex off row N, one blue edge per vertex but the last of its row."""
    return 2 * sum(widths) - widths[-1] - len(widths)


def model_json_parts(ops, w) -> list:
    """The parts of the model graph of w as ``model --json`` writes it: the
    object ``{"degree", "vertices", "edges"}`` of the degree's label, every
    vertex label and every edge's ``{"prefix", "letter"}``, in model
    order, as ``json.dumps`` with ``indent=2`` writes it.  Labels are
    ASCII letters, digits, commas and parentheses, so none is escaped.
    Built from ``ops.label_rows(w)``, row by row, with no edge list."""
    check_model_size(ops, w)
    label = ops.label_rows(w)
    vertices, edges = sum(map(len, label)), edge_count(ops.row_widths(w))
    following = ',\n    {\n      "prefix": "'
    red, blue = (f'",\n      "letter": "{l}"\n    }}{following}' for l in "ab")
    parts = [None] * (1 + 2 * vertices + 2 * edges)
    parts[0] = '{\n  "degree": "' + label[-1][-1] + '",\n  "vertices": [\n    "'
    # Two pieces per vertex, its label and the text up to the next one,
    # and two per edge, the label of its base vertex and its tail.  Row
    # i < N's edges run a(i, 0), b(i, 0), a(i, 1), ..., a(i, last).
    o, e = 1, 1 + 2 * vertices
    for i, labels in enumerate(label):
        width = len(labels)
        parts[o : o + 2 * width : 2] = labels
        parts[o + 1 : o + 2 * width : 2] = ['",\n    "'] * width
        o += 2 * width
        if i < w[0]:
            stop = e + 4 * width - 2
            parts[e:stop:4] = labels
            parts[e + 1 : stop : 4] = [red] * width
            parts[e + 2 : stop : 4] = labels[:-1]
            parts[e + 3 : stop : 4] = [blue] * (width - 1)
            e = stop
    parts[e::2] = label[-1][:-1]
    parts[e + 1 :: 2] = [blue] * (len(label[-1]) - 1)
    parts[o - 1] = '"\n  ],\n  "edges": ' + ('[\n    {\n      "prefix": "' if edges else '[]\n}')
    if edges:
        parts[-1] = parts[-1][: -len(following)] + "\n  ]\n}"
    return parts
