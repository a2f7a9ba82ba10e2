"""Squares, complete collections, and their boundary-path maps.

A square is a morphism from the model graph of the square degree (the
common degree of ab^k and ba) into the ambient graph, and is stored as its
two boundary paths, the red-first one (colour word ``red_first_word``) and
the blue-first one (``blue_first_word``), which together name every edge of
the square.  A collection is complete when both families of boundary paths
of the ambient graph are covered exactly once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from types import MappingProxyType

from .errors import ColourMismatch, Conflict, JunctionMismatch, NotCovered
from .graphs import ColouredGraph, Frozen, _set


@cache
def boundary_edges(ops) -> tuple:
    """Domain edges (base, letter) of the square's model graph in boundary
    order: the red-first word walked from the identity, then the blue-first
    one.  A square's edge names, red then blue, and its mode's fixture
    slots follow this order."""
    edges = []
    for word in (ops.red_first_word, ops.blue_first_word):
        z = ops.identity
        for letter in word:
            edges.append((z, letter))
            z = ops.step(z, letter)
    return tuple(edges)


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

    def __reduce__(self):
        return Square, (self.name, self.red, self.blue, self.graph)


@cache
def _square_plan(ops) -> tuple:
    """``build_square``'s walk for this mode: per domain edge in model order,
    its index in ``boundary_edges`` order, letter and slot, then for its
    range and its source corner a number, a label and whether no earlier
    edge reaches it; and the number of corners."""
    edges, corners, plan = boundary_edges(ops), {}, []
    for k in sorted(range(len(edges)), key=edges.__getitem__):
        z, letter = edges[k]
        item = [k, letter, f"({ops.format(z)},{letter})"]
        for v in (z, ops.step(z, letter)):
            first = v not in corners
            item += (corners.setdefault(v, len(corners)), ops.format(v), first)
        plan.append(tuple(item))
    return tuple(plan), len(corners)


def _forced(name: str, corner: str, old: str, value: str):
    """Raise the ``JunctionMismatch`` of a corner forced to two vertices."""
    raise JunctionMismatch(
        f"square {name!r}: vertex {corner} forced to both {old!r} and {value!r}"
    )


def build_square(g: ColouredGraph, ops, names, name: str = "") -> Square:
    """Validate a square's edge names, given in ``boundary_edges`` order.

    Checks colours and that images meet at common vertices, deriving the
    vertex images along the way.  Edges are checked in model order, so of
    several faults the first in that order is reported.
    """
    plan, corner_count = _square_plan(ops)
    if len(names) != len(plan):
        dict(zip(plan, names, strict=True))  # raises zip's ValueError
    images = [None] * corner_count
    for k, letter, slot, r, r_corner, r_first, s, s_corner, s_first in plan:
        image, colour, range_, source = g.edge(names[k])
        if colour != letter:
            raise ColourMismatch(
                f"square {name!r}: slot {slot} needs colour {letter} but {image!r} is {colour}"
            )
        if r_first:
            images[r] = range_
        elif images[r] != range_:
            _forced(name, r_corner, images[r], range_)
        if s_first:
            images[s] = source
        elif images[s] != source:
            _forced(name, s_corner, images[s], source)
    cut = len(ops.red_first_word)
    return Square(name, names[:cut], names[cut:], g)


def build_square_slots(g: ColouredGraph, ops, slots: dict, name: str = "") -> Square:
    """Build a square from the named fixture slots (eA=..., v1=..., ...)."""
    table = set(ops.slot_names)
    if slots.keys() != table:
        unknown, missing = sorted(slots.keys() - table), sorted(table - slots.keys())
        which = f"unknown slots {unknown}" if unknown else f"missing slots {missing}"
        raise JunctionMismatch(f"square {name!r}: {which}")
    return build_square(g, ops, [slots[s] for s in ops.slot_names], name)


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

    def __reduce__(self):
        return CompleteCollection, (self.graph, self.ops, self.squares)

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
    for sq in squares:
        try:
            if (len(sq.red), len(sq.blue)) != shape:
                raise JunctionMismatch(
                    f"square {sq.name!r}: boundaries of {len(sq.red)} and {len(sq.blue)} "
                    f"edges, but a {ops.name} square has {shape[0]} and {shape[1]}"
                )
            if sq.graph is not g:
                build_square(g, ops, sq.red + sq.blue, sq.name)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            malformed.append(f"{sq.name}: {exc}")
            continue
        valid.append(sq)
    return CompleteCollection(g, ops, tuple(valid)).report(malformed)
