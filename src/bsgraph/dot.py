"""Graphviz DOT export for model graphs and morphisms, each as the list of
its lines, newline included."""

from __future__ import annotations

from itertools import repeat

from .models import check_model_size
from .morphisms import Morphism, _in_model_order


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _edge_lines(ops, label: list, reds, blues) -> list:
    """The line of every edge of the model graph with the quoted vertex
    labels ``label``, in model order: a(i, 0), b(i, 0), a(i, 1), ...,
    a(i, last) on each row i < N, then row N's blue edges.  An edge is
    drawn from the vertex it reaches to its base: row i's red edges from
    every k-th vertex of row i + 1, where (1, k) is ``square_degree``,
    and its blue edges from the next vertex of row i.  ``reds[i][j]`` and
    ``blues[i][j]`` open the attributes of a(i, j) and b(i, j)."""
    k = ops.square_degree[1]
    lines = []
    for row, below, red, blue in zip(label, [*label[1:], ()], reds, blues):
        lines += _in_model_order(
            [f"  {s} -> {r} [{a}color=red];\n" for s, r, a in zip(below[::k], row, red)],
            [f"  {s} -> {r} [{a}color=blue];\n" for s, r, a in zip(row[1:], row, blue)],
        )
    return lines


def model_dot_parts(ops, w) -> list:
    """Vertices are labelled with shortest-form words (grid: coordinates)."""
    check_model_size(ops, w)
    label = [list(map(_quote, row)) for row in ops.label_rows(w)]
    lines = ["digraph model {\n", *(f"  {s};\n" for row in label for s in row)]
    no_images = repeat(repeat(""))
    lines += _edge_lines(ops, label, no_images, no_images)
    lines.append("}\n")
    return lines


def morphism_dot_parts(lam: Morphism) -> list:
    """The domain model graph, each element labelled with its image, read
    off the rows: vertices, then edges, in the model graph's order."""
    label = lam.ops.label_rows(lam.degree)
    lines = ["digraph morphism {\n"]
    lines.extend(
        f"  {_quote(s)} [label={_quote(s + ' -> ' + v)}];\n"
        for row, images in zip(label, lam.vrows)
        for s, v in zip(row, images)
    )
    quoted = [list(map(_quote, row)) for row in label]
    reds, blues = (
        [[f"label={_quote(e)}, " for e in row] for row in rows] for rows in (lam.arows, lam.brows)
    )
    lines += _edge_lines(lam.ops, quoted, reds, blues)
    lines.append("}\n")
    return lines
