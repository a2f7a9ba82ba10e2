"""Squares, complete collections, and their boundary-path maps.

A square is a morphism from the model graph of the square degree (ab^2 = ba
in BS mode, (1,1) in grid mode) into the ambient graph, and is stored as
its two boundary paths: the red-first one (colour word a,b,b resp. a,b) and
the blue-first one (b,a), which together name every edge of the square.  A
collection is complete when both families of boundary paths of the ambient
graph are covered exactly once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from types import MappingProxyType

from .errors import ColourMismatch, Conflict, JunctionMismatch, NotCovered
from .graphs import ColouredGraph, Frozen, _set
from .models import model


@cache
def square_edges(ops) -> tuple:
    """Domain edge keys (base, letter) of the square's model graph."""
    return model(ops, ops.square_degree).edges


# Named slots of the fixture format, mapped to domain edge keys
# (base, letter).  A bs slot name spells its base word, then its letter.
# Slots run along the red-first boundary, then the blue-first one.
BS_SLOTS = {
    "eA": ((0, 0), "a"),
    "aB": ((1, 0), "b"),
    "abB": ((1, 1), "b"),
    "eB": ((0, 0), "b"),
    "bA": ((0, 1), "a"),
}
GRID_SLOTS = {
    "v1": ((0, 0), "a"),
    "e1v2": ((1, 0), "b"),
    "v2": ((0, 0), "b"),
    "e2v1": ((0, 1), "a"),
}


def slot_table(ops) -> dict:
    return BS_SLOTS if ops.name == "bs" else GRID_SLOTS


class Square(Frozen, fields=("name", "red", "blue"), compare=("red", "blue")):
    """Validated square: its red-first and blue-first boundaries, frozen to
    tuples of edge names.  Squares compare by boundaries, so a renamed copy is equal.

    ``graph`` is the graph the square was validated against, so a check
    against that same graph need not validate it again.
    """

    __slots__ = ("name", "red", "blue", "graph")

    def __init__(self, name: str, red, blue, graph: ColouredGraph | None = None):
        _set(self, "name", name)
        _set(self, "red", tuple(red))
        _set(self, "blue", tuple(blue))
        _set(self, "graph", graph)


def build_square(g: ColouredGraph, ops, images: dict, name: str = "") -> Square:
    """Validate edge images keyed by (degree, letter) domain edges.

    Checks colours and that images meet at common vertices, deriving the
    vertex images along the way.
    """
    edges = square_edges(ops)
    missing = [k for k in edges if k not in images]
    if missing:
        raise JunctionMismatch(f"square {name!r}: missing edge images {missing}")
    vertices: dict = {}
    for z, letter in edges:
        edge = g.edge(images[(z, letter)])
        if edge.colour != letter:
            raise ColourMismatch(
                f"square {name!r}: slot ({ops.format(z)},{letter}) "
                f"needs colour {letter} but {edge.name!r} is {edge.colour}"
            )
        for vertex_key, value in ((z, edge.range_), (ops.step(z, letter), edge.source)):
            old = vertices.setdefault(vertex_key, value)
            if old != value:
                raise JunctionMismatch(
                    f"square {name!r}: vertex {ops.format(vertex_key)} forced "
                    f"to both {old!r} and {value!r}"
                )
    names = [images[k] for k in slot_table(ops).values()]
    cut = len(ops.red_first_word)
    return Square(name, tuple(names[:cut]), tuple(names[cut:]), g)


def build_square_slots(g: ColouredGraph, ops, slots: dict, name: str = "") -> Square:
    """Build a square from the named fixture slots (eA=..., v1=..., ...)."""
    table = slot_table(ops)
    if slots.keys() != table.keys():
        unknown, missing = sorted(slots.keys() - table.keys()), sorted(table.keys() - slots.keys())
        which = f"unknown slots {unknown}" if unknown else f"missing slots {missing}"
        raise JunctionMismatch(f"square {name!r}: {which}")
    return build_square(g, ops, {table[s]: e for s, e in slots.items()}, name)


def not_covered(kind: str, boundary):
    """Raise the ``NotCovered`` of a boundary path, red-first or
    blue-first by ``kind``, that no square of the collection has."""
    raise NotCovered(boundary, f"no square with {kind} boundary {' '.join(boundary)}")


class CompleteCollection(
    Frozen,
    fields=("ops", "squares", "duplicate_red", "duplicate_blue"),
    compare=("graph", "ops", "squares"),
):
    """A graph and its squares, with both boundary maps built eagerly from
    the squares alone: none of the derived fields is a constructor argument,
    and none takes part in comparison, since they follow from the squares.

    red_to_blue and blue_to_red map each boundary tuple straight to the
    other boundary of the first square that has it; they are read-only
    views of the dicts the lift and rewriting loops read, where a miss is
    ``not_covered``.  Every later list entry with the same boundary,
    renamed copies included, is recorded in the tuples duplicate_red /
    duplicate_blue, which ``require_unique`` refuses.
    """

    __slots__ = ("graph", "ops", "squares", "duplicate_red", "duplicate_blue",
                 "red_to_blue", "blue_to_red", "_red_to_blue", "_blue_to_red")

    def __init__(self, graph: ColouredGraph, ops, squares):
        _set(self, "graph", graph)
        _set(self, "ops", ops)
        _set(self, "squares", tuple(squares))
        self.__post_init__()  # a method of its own: bench/tracer.py times it by this name

    def __post_init__(self):
        red_to_blue, blue_to_red, duplicate_red, duplicate_blue = {}, {}, [], []
        for sq in self.squares:
            red, blue = sq.red, sq.blue
            if red in red_to_blue:
                duplicate_red.append(red)
            else:
                red_to_blue[red] = blue
            if blue in blue_to_red:
                duplicate_blue.append(blue)
            else:
                blue_to_red[blue] = red
        _set(self, "_red_to_blue", red_to_blue)
        _set(self, "_blue_to_red", blue_to_red)
        _set(self, "red_to_blue", MappingProxyType(red_to_blue))
        _set(self, "blue_to_red", MappingProxyType(blue_to_red))
        _set(self, "duplicate_red", tuple(duplicate_red))
        _set(self, "duplicate_blue", tuple(duplicate_blue))

    def _repeated(self) -> list:
        """Each boundary that belongs to more than one square, once:
        red-first ones first, each kind in map order."""
        red, blue = set(self.duplicate_red), set(self.duplicate_blue)
        return [b for b in self._red_to_blue if b in red] + [
            b for b in self._blue_to_red if b in blue
        ]

    def require_unique(self) -> None:
        """Raise ``Conflict`` naming the first boundary that belongs to
        more than one square, red-first ones first, in map order."""
        if self.duplicate_red or self.duplicate_blue:
            kind = "red-first" if self.duplicate_red else "blue-first"
            raise Conflict(
                f"the {kind} boundary {' '.join(self._repeated()[0])} belongs to more "
                f"than one square; the collection cannot be complete for this graph"
            )

    def report(self, malformed=()) -> CompletenessReport:
        """Exactly-once coverage of both boundary-path families of the graph,
        counting list entries; ``malformed`` names squares left out of the
        collection, which make it incomplete."""
        g, ops = self.graph, self.ops
        red_paths = paths_with_colour_word(g, ops.red_first_word)
        blue_paths = paths_with_colour_word(g, ops.blue_first_word)
        uncovered_red = [p for p in red_paths if p not in self._red_to_blue]
        uncovered_blue = [p for p in blue_paths if p not in self._blue_to_red]
        duplicated = self._repeated()
        ok = not (uncovered_red or uncovered_blue or duplicated or malformed)
        return CompletenessReport(
            "complete" if ok else "incomplete",
            len(self.squares),
            len(red_paths),
            len(blue_paths),
            uncovered_red,
            uncovered_blue,
            duplicated,
            list(malformed),
        )

    def require_covered(self) -> None:
        """Raise the ``NotCovered`` of the first boundary path with no square,
        blue-first ones first, else ``require_unique``'s ``Conflict``.  A
        rewriting sweep only meets the squares its paths touch, so a missing
        or duplicated square elsewhere would go unseen."""
        report = self.report()
        if report.uncovered_blue:
            not_covered("blue-first", report.uncovered_blue[0])
        if report.uncovered_red:
            not_covered("red-first", report.uncovered_red[0])
        self.require_unique()


class CompletenessReport(namedtuple("CompletenessReport", (
    "status square_count red_path_count blue_path_count "  # status: "complete" | "incomplete"
    "uncovered_red uncovered_blue duplicated malformed"
))):
    __slots__ = ()

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "squares": self.square_count,
            "red_first_paths": self.red_path_count,
            "blue_first_paths": self.blue_path_count,
            "uncovered_red_first": [" ".join(p) for p in self.uncovered_red],
            "uncovered_blue_first": [" ".join(p) for p in self.uncovered_blue],
            "duplicated_boundaries": [" ".join(p) for p in self.duplicated],
            "malformed_squares": list(self.malformed),
        }


def paths_with_colour_word(g: ColouredGraph, colour_word) -> list[tuple[str, ...]]:
    """All composable paths of g whose colour word matches, in declaration order."""
    # (range, colour) -> edges in declaration order; range None: any range.
    following: dict = {}
    for e in g.edges:
        following.setdefault((None, e.colour), []).append(e)
        following.setdefault((e.range_, e.colour), []).append(e)
    partial: list[tuple] = [((), None)]
    for letter in colour_word:
        partial = [
            (names + (e.name,), e.source)
            for names, tail in partial
            for e in following.get((tail, letter), ())
        ]
    return [names for names, _ in partial]


def check_complete(g: ColouredGraph, ops, squares) -> CompletenessReport:
    """Verify exactly-once coverage of both boundary-path families of g.

    Squares validated against another graph are validated again here, and
    squares whose boundaries have another mode's lengths are refused;
    failures land in the malformed list instead of raising.
    """
    valid, malformed = [], []
    shape = (len(ops.red_first_word), len(ops.blue_first_word))
    slots = slot_table(ops).values()
    for sq in squares:
        try:
            if (len(sq.red), len(sq.blue)) != shape:
                raise JunctionMismatch(
                    f"square {sq.name!r}: boundaries of {len(sq.red)} and {len(sq.blue)} "
                    f"edges, but a {ops.name} square has {shape[0]} and {shape[1]}"
                )
            if sq.graph is not g:
                build_square(g, ops, dict(zip(slots, sq.red + sq.blue)), sq.name)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            malformed.append(f"{sq.name}: {exc}")
            continue
        valid.append(sq)
    return CompleteCollection(g, ops, tuple(valid)).report(malformed)
