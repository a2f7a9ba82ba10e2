"""Finite 2-coloured directed graphs and their paths.

Edges point range <- source: for an edge f, r(f) sits at the arrowhead.
A path f1 f2 ... fn is composable when s(f_i) = r(f_{i+1}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .errors import (
    BadColour,
    DuplicateId,
    NotComposable,
    UnknownEdge,
    UnknownVertex,
)

_COLOUR_TOKENS = {"a": "a", "1": "a", "b": "b", "2": "b"}


@dataclass(frozen=True)
class Edge:
    name: str
    colour: str  # "a" (red) or "b" (blue)
    range_: str
    source: str


@dataclass(frozen=True)
class ColouredGraph:
    """Immutable coloured graph with deterministic declaration order.

    The edge-name and vertex indices are built from the fields, so they
    exist however the graph is constructed.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    vertex_set: frozenset = field(init=False, repr=False, compare=False)
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertex_set", frozenset(self.vertices))
        object.__setattr__(self, "_by_name", {e.name: e for e in self.edges})

    def edge(self, name: str) -> Edge:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownEdge(f"unknown edge {name!r}") from None


def parse_colour(token: str) -> str:
    try:
        return _COLOUR_TOKENS[token.lower()]
    except KeyError:
        raise BadColour(f"bad colour {token!r}; expected a/b or 1/2") from None


def build_graph(vertices, edges) -> ColouredGraph:
    """Validate and freeze a graph.

    vertices: iterable of names; edges: iterable of
    (name, colour token, range vertex, source vertex).
    """
    vs: list[str] = []
    seen: set[str] = set()
    for v in vertices:
        if v in seen:
            raise DuplicateId(f"duplicate vertex {v!r}")
        seen.add(v)
        vs.append(v)
    es: list[Edge] = []
    names: set[str] = set()
    for name, colour, range_, source in edges:
        if name in names or name in seen:
            raise DuplicateId(f"duplicate id {name!r}")
        names.add(name)
        colour = parse_colour(colour)
        for v in (range_, source):
            if v not in seen:
                raise UnknownVertex(f"edge {name!r} uses undeclared vertex {v!r}")
        es.append(Edge(name, colour, range_, source))
    return ColouredGraph(tuple(vs), tuple(es))


@dataclass(frozen=True, slots=True)
class Path:
    """Composable edge sequence, or a single vertex (length 0)."""

    edges: tuple[str, ...]
    range_: str
    source: str
    colours: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        return " ".join(self.edges) if self.edges else self.range_


def vertex_path(g: ColouredGraph, v: str) -> Path:
    if v not in g.vertex_set:
        raise UnknownVertex(f"unknown vertex {v!r}")
    return Path((), v, v, ())


def validate_path(g: ColouredGraph, names) -> Path:
    """Check composability of an edge-name sequence and freeze it."""
    names = tuple(names)
    if not names:
        raise NotComposable(0, "empty edge sequence; use vertex_path instead")
    edges = [g.edge(n) for n in names]
    for i in range(len(edges) - 1):
        if edges[i].source != edges[i + 1].range_:
            raise NotComposable(
                i,
                f"s({names[i]}) = {edges[i].source} != "
                f"r({names[i + 1]}) = {edges[i + 1].range_}",
            )
    return Path(
        names,
        edges[0].range_,
        edges[-1].source,
        tuple(e.colour for e in edges),
    )


def parse_path(g: ColouredGraph, text: str) -> Path:
    """Space-separated edge names; a bare vertex name is a length-0 path."""
    tokens = text.split()
    if len(tokens) == 1 and tokens[0] in g.vertex_set:
        return vertex_path(g, tokens[0])
    return validate_path(g, tokens)


def path_degree(ops, p: Path):
    """Fold the colour word of p through the degree monoid."""
    return reduce(ops.step, p.colours, ops.identity)


def concat(x: Path, y: Path) -> Path:
    if x.source != y.range_:
        raise NotComposable(len(x.edges), f"s({x}) = {x.source} != r({y}) = {y.range_}")
    if not x.edges:
        return y
    if not y.edges:
        return x
    return Path(x.edges + y.edges, x.range_, y.source, x.colours + y.colours)
