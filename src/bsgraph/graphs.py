"""Finite 2-coloured directed graphs and their paths.

Edges point range <- source: for an edge f, r(f) sits at the arrowhead.
A path f1 f2 ... fn is composable when s(f_i) = r(f_{i+1}), and its
colour word is the ``str`` of its edges' letters, ``""`` for a vertex.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import attrgetter

from .errors import BadColour, BsGraphError, DuplicateId, NotComposable, UnknownEdge, UnknownVertex

_COLOUR_TOKENS = {"a": "a", "1": "a", "b": "b", "2": "b"}


_set = object.__setattr__


class Frozen:
    """Base of the immutable value types.  A subclass keeps its attributes
    in ``__slots__``, sets them in its constructor with ``object.__setattr__``
    and names as class arguments the ``fields`` its repr prints and those it
    compares and hashes by (``compare``, by default the ``fields``), as a
    frozen dataclass would.  Any other assignment, or deletion, raises
    ``dataclasses.FrozenInstanceError``.  A copy or pickle is rebuilt by the
    constructor, from the ``fields`` or what a subclass's ``__reduce__`` names.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields, compare=None):
        cls._fields = fields
        cls._compared = attrgetter(*(compare or fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # not imported on any other path

        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


# colour is "a" (red) or "b" (blue).
Edge = namedtuple("Edge", "name colour range_ source")


class ColouredGraph(Frozen, fields=("vertices", "edges")):
    """Immutable coloured graph with deterministic declaration order.

    The edge-name and vertex indices are built from the fields, so they
    exist however the graph is constructed.
    """

    __slots__ = ("vertices", "edges", "vertex_set", "_by_name", "_range_of")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        _set(self, "vertex_set", frozenset(vertices))
        _set(self, "_by_name", {e.name: e for e in edges})
        _set(self, "_range_of", None)

    @property
    def range_of(self) -> dict:
        """Edge name -> range vertex, built on first use, for the lift
        (a ``check`` run never reads it); read it, do not change it."""
        if self._range_of is None:
            _set(self, "_range_of", {e.name: e.range_ for e in self.edges})
        return self._range_of

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

    The rows are checked a column at a time.  Rows that fail a check, or
    that the columns cannot read (a row of another length, an unhashable
    name), go to the row loop, which raises the first fault in declaration
    order with ``row`` set to its row's index, vertex rows counted first.
    """
    vs, rows = tuple(vertices), list(edges)
    try:
        graph = _graph_by_columns(vs, rows)
    except TypeError:  # an unhashable name or a row without a length
        graph = None
    return _graph_by_rows(vs, rows) if graph is None else graph


def _graph_by_columns(vs: tuple, rows: list) -> ColouredGraph | None:
    """The graph of rows that pass every check of ``_graph_by_rows``
    column by column, else None.  Tokens outside the table, ``A`` and
    ``B`` among them, are left to the row loop's ``parse_colour``."""
    if not {4}.issuperset(map(len, rows)):  # zip(*rows) would cut a long row short
        return None
    names, tokens, ranges, sources = tuple(zip(*rows)) or ((),) * 4
    seen, colours = frozenset(vs), list(map(_COLOUR_TOKENS.get, tokens))
    if not (
        len(seen) == len(vs)
        and len(set(names)) == len(names)
        and seen.isdisjoint(names)
        and None not in colours
        and seen.issuperset(ranges)
        and seen.issuperset(sources)
    ):
        return None
    return ColouredGraph(vs, tuple(map(Edge._make, zip(names, colours, ranges, sources))))


def _graph_by_rows(vs: tuple, rows: list) -> ColouredGraph:
    """``build_graph`` one row at a time, raising the first fault with
    the index of its row as ``row``."""
    seen: set[str] = set()
    es: list[Edge] = []
    names: set[str] = set()
    try:
        for v in vs:
            if v in seen:
                raise DuplicateId(f"duplicate vertex {v!r}")
            seen.add(v)
        for name, colour, range_, source in rows:
            if name in names or name in seen:
                raise DuplicateId(f"duplicate id {name!r}")
            names.add(name)
            colour = parse_colour(colour)
            for v in (range_, source):
                if v not in seen:
                    raise UnknownVertex(f"edge {name!r} uses undeclared vertex {v!r}")
            es.append(Edge(name, colour, range_, source))
    except BsGraphError as exc:
        exc.row = len(seen) + len(es)  # the rows before it, vertices first
        raise
    return ColouredGraph(vs, tuple(es))


class Path(Frozen, fields=("edges", "range_", "source", "colours")):
    """Composable edge sequence, or a single vertex (length 0), with its
    colour word: ``colours[i]`` is the letter of ``edges[i]``.  A colour
    word that is not a ``str`` raises ``TypeError``."""

    __slots__ = ("edges", "range_", "source", "colours")

    def __init__(self, edges: tuple[str, ...], range_: str, source: str, colours: str):
        if not isinstance(colours, str):
            raise TypeError(f"a path's colour word is a str, not {type(colours).__name__}")
        _set(self, "edges", edges)
        _set(self, "range_", range_)
        _set(self, "source", source)
        _set(self, "colours", colours)

    def __len__(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        return " ".join(self.edges) if self.edges else self.range_


def require_vertex(g: ColouredGraph, v: str) -> str:
    """v, if it is a vertex of g; else raises ``UnknownVertex``."""
    if v not in g.vertex_set:
        raise UnknownVertex(f"unknown vertex {v!r}")
    return v


def vertex_path(g: ColouredGraph, v: str) -> Path:
    return Path((), require_vertex(g, v), v, "")


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
    return Path(names, edges[0].range_, edges[-1].source, "".join(e.colour for e in edges))


def parse_path(g: ColouredGraph, text: str) -> Path:
    """Space-separated edge names; a bare vertex name is a length-0 path."""
    tokens = text.split()
    if not tokens:
        raise BsGraphError("empty path: give edge names or one vertex name")
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
