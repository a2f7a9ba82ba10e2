"""Graphviz DOT export for model graphs and morphisms."""

from __future__ import annotations

from .models import ModelGraph
from .morphisms import Morphism

_COLOUR = {"a": "red", "b": "blue"}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _at(label: list, z) -> str:
    """The label of the prefix pair z = (i, j) in label rows."""
    return label[z[0]][z[1]]


def model_to_dot(m: ModelGraph) -> str:
    """Vertices are labelled with shortest-form words (grid: coordinates)."""
    step = m.ops.step
    label = [list(map(_quote, row)) for row in m.ops.label_rows(m.word)]
    lines = ["digraph model {"]
    lines.extend(f"  {_at(label, z)};" for z in m.vertices)
    lines.extend(
        f"  {_at(label, step(z, l))} -> {_at(label, z)} [color={_COLOUR[l]}];"
        for z, l in m.edges
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def morphism_to_dot(lam: Morphism) -> str:
    """The domain model graph, each element labelled with its image, read
    off the rows: vertices, then edges, in the model graph's order."""
    step, label = lam.ops.step, lam.ops.label_rows(lam.degree)
    zs = [(i, j) for i, row in enumerate(label) for j in range(len(row))]
    rows = {"a": lam.arows, "b": lam.brows}
    lines = ["digraph morphism {"]
    lines.extend(
        f"  {_quote(label[i][j])} [label={_quote(label[i][j] + ' -> ' + lam.vrows[i][j])}];"
        for i, j in zs
    )
    # Vertex (i, j) has an edge of colour l iff row i of l's rows reaches j.
    lines.extend(
        f"  {_quote(_at(label, step((i, j), l)))} -> {_quote(label[i][j])} "
        f"[label={_quote(rows[l][i][j])}, color={_COLOUR[l]}];"
        for i, j in zs
        for l in "ab"
        if j < len(rows[l][i])
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
