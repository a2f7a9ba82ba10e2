"""Graphviz DOT export for model graphs and morphisms."""

from __future__ import annotations

from .models import ModelGraph
from .morphisms import Morphism

_COLOUR = {"a": "red", "b": "blue"}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def model_to_dot(m: ModelGraph) -> str:
    """Vertices are labelled with shortest-form words (grid: coordinates)."""
    step = m.ops.step
    label = {z: _quote(s) for z, s in m.ops.labels(m.vertices).items()}
    lines = ["digraph model {"]
    lines.extend(f"  {label[z]};" for z in m.vertices)
    lines.extend(
        f"  {label[step(z, l)]} -> {label[z]} [color={_COLOUR[l]}];"
        for z, l in m.edges
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def morphism_to_dot(lam: Morphism) -> str:
    """The domain model graph, each element labelled with its image, read
    off the rows: vertices, then edges, in the model graph's order."""
    step, zs = lam.ops.step, lam.ops.prefixes(lam.degree)
    label = lam.ops.labels(zs)
    rows = {"a": lam.arows, "b": lam.brows}
    lines = ["digraph morphism {"]
    lines.extend(
        f"  {_quote(label[i, j])} [label={_quote(label[i, j] + ' -> ' + lam.vrows[i][j])}];"
        for i, j in zs
    )
    # Vertex (i, j) has an edge of colour l iff row i of l's rows reaches j.
    lines.extend(
        f"  {_quote(label[step((i, j), l)])} -> {_quote(label[i, j])} "
        f"[label={_quote(rows[l][i][j])}, color={_COLOUR[l]}];"
        for i, j in zs
        for l in "ab"
        if j < len(rows[l][i])
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
