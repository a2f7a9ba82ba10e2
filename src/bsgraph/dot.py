"""Graphviz DOT export for ambient graphs, model graphs, and morphisms."""

from __future__ import annotations

from .graphs import ColouredGraph
from .models import ModelGraph
from .morphisms import Morphism

_COLOUR = {"a": "red", "b": "blue"}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def graph_to_dot(g: ColouredGraph) -> str:
    lines = ["digraph E {"]
    lines.extend(f"  {_quote(v)};" for v in g.vertices)
    lines.extend(
        f"  {_quote(e.source)} -> {_quote(e.range_)} "
        f"[label={_quote(e.name)}, color={_COLOUR[e.colour]}];"
        for e in g.edges
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    """The domain model graph, each element labelled with its image; both
    maps list the model graph's vertices and edges in its order."""
    step = lam.ops.step
    label = lam.ops.labels(lam.ops.prefixes(lam.degree))
    lines = ["digraph morphism {"]
    lines.extend(
        f"  {_quote(label[z])} [label={_quote(label[z] + ' -> ' + v)}];"
        for z, v in lam.vmap.items()
    )
    lines.extend(
        f"  {_quote(label[step(z, l)])} -> {_quote(label[z])} "
        f"[label={_quote(e)}, color={_COLOUR[l]}];"
        for (z, l), e in lam.emap.items()
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
