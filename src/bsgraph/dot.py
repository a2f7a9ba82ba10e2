"""Graphviz DOT export for ambient graphs, model graphs, and morphisms."""

from __future__ import annotations

from .graphs import ColouredGraph
from .models import ModelGraph
from .morphisms import Morphism

_COLOUR = {"a": "red", "b": "blue"}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def graph_to_dot(g: ColouredGraph, name: str = "E") -> str:
    lines = [f"digraph {name} {{"]
    lines.extend(f"  {_quote(v)};" for v in g.vertices)
    lines.extend(
        f"  {_quote(e.source)} -> {_quote(e.range_)} "
        f"[label={_quote(e.name)}, color={_COLOUR[e.colour]}];"
        for e in g.edges
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_to_dot(m: ModelGraph, name: str = "model") -> str:
    """Vertices are labelled with shortest-form words (grid: coordinates)."""
    step = m.ops.step
    label = {z: _quote(s) for z, s in m.ops.labels(m.vertices).items()}
    lines = [f"digraph {name} {{"]
    lines.extend(f"  {label[z]};" for z in m.vertices)
    lines.extend(
        f"  {label[step(z, l)]} -> {label[z]} [color={_COLOUR[l]}];"
        for z, l in m.edges
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def morphism_to_dot(lam: Morphism, name: str = "morphism") -> str:
    """The domain model graph, each element labelled with its image."""
    step = lam.ops.step
    vertices = sorted(lam.vmap.items())
    label = lam.ops.labels([z for z, _ in vertices])
    lines = [f"digraph {name} {{"]
    lines.extend(
        f"  {_quote(label[z])} [label={_quote(label[z] + ' -> ' + v)}];"
        for z, v in vertices
    )
    lines.extend(
        f"  {_quote(label[step(z, l)])} -> {_quote(label[z])} "
        f"[label={_quote(e)}, color={_COLOUR[l]}];"
        for (z, l), e in sorted(lam.emap.items())
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
