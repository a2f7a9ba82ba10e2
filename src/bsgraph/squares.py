"""Squares, complete collections, and their boundary-path maps.

A square is a morphism from the model graph of the square degree (ab^2 = ba
in BS mode, (1,1) in grid mode) into the ambient graph.  Each square has a
red-first boundary path (colour word a,b,b resp. a,b) and a blue-first one
(b,a); a collection is complete when both families of boundary paths of the
ambient graph are covered exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .errors import ColourMismatch, Conflict, JunctionMismatch, NotCovered
from .graphs import ColouredGraph
from .models import model


@cache
def boundary_keys(ops, colour_word) -> tuple:
    """Domain edge keys (base, letter) read along a boundary colour word."""
    keys = []
    base = ops.identity
    for letter in colour_word:
        keys.append((base, letter))
        base = ops.step(base, letter)
    return tuple(keys)


@cache
def square_edges(ops) -> tuple:
    """Domain edge keys (base, letter) of the square's model graph."""
    return model(ops, ops.square_degree).edges


def red_keys(ops) -> tuple:
    return boundary_keys(ops, ops.red_first_word)


def blue_keys(ops) -> tuple:
    return boundary_keys(ops, ops.blue_first_word)


# Named slots of the fixture format, mapped to domain edge keys
# (base, letter).  A bs slot name spells its base word, then its letter.
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


@dataclass(frozen=True, eq=False)
class Square:
    """Validated square: edge and vertex images on the square's model graph.

    ``graph`` is the graph the images were validated against, so a check
    against that same graph need not validate them again.
    """

    name: str
    ops: object
    emap: dict  # (degree, letter) -> edge name
    vmap: dict  # degree -> vertex name
    graph: ColouredGraph | None = field(default=None, repr=False, compare=False)

    def red_boundary(self) -> tuple[str, ...]:
        return tuple(self.emap[k] for k in red_keys(self.ops))

    def blue_boundary(self) -> tuple[str, ...]:
        return tuple(self.emap[k] for k in blue_keys(self.ops))

    def __eq__(self, other):
        return isinstance(other, Square) and self.emap == other.emap

    def __hash__(self):
        return hash(frozenset(self.emap.items()))


def build_square(g: ColouredGraph, ops, images: dict, name: str = "") -> Square:
    """Validate edge images keyed by (degree, letter) domain edges.

    Checks colours and that images meet at common vertices, deriving the
    vertex images along the way.
    """
    edges = square_edges(ops)
    missing = [k for k in edges if k not in images]
    if missing:
        raise JunctionMismatch(f"square {name!r}: missing edge images {missing}")
    emap = {}
    vmap: dict = {}
    for z, letter in edges:
        edge = g.edge(images[(z, letter)])
        if edge.colour != letter:
            raise ColourMismatch(
                f"square {name!r}: slot ({ops.format(z)},{letter}) "
                f"needs colour {letter} but {edge.name!r} is {edge.colour}"
            )
        emap[(z, letter)] = edge.name
        for vertex_key, value in ((z, edge.range_), (ops.step(z, letter), edge.source)):
            old = vmap.setdefault(vertex_key, value)
            if old != value:
                raise JunctionMismatch(
                    f"square {name!r}: vertex {ops.format(vertex_key)} forced "
                    f"to both {old!r} and {value!r}"
                )
    return Square(name, ops, emap, vmap, g)


def build_square_slots(g: ColouredGraph, ops, slots: dict, name: str = "") -> Square:
    """Build a square from the named fixture slots (eA=..., v1=..., ...)."""
    table = slot_table(ops)
    unknown = set(slots) - set(table)
    if unknown:
        raise JunctionMismatch(f"square {name!r}: unknown slots {sorted(unknown)}")
    missing = set(table) - set(slots)
    if missing:
        raise JunctionMismatch(f"square {name!r}: missing slots {sorted(missing)}")
    return build_square(g, ops, {table[s]: e for s, e in slots.items()}, name)


def not_covered(kind: str, boundary):
    """Raise the ``NotCovered`` of a boundary path, red-first or
    blue-first by ``kind``, that no square of the collection has."""
    raise NotCovered(boundary, f"no square with {kind} boundary {' '.join(boundary)}")


@dataclass
class CompleteCollection:
    """A graph and its squares, with both boundary maps built eagerly from
    the squares alone: none of the derived fields is a constructor argument.

    red_to_blue and blue_to_red map each boundary tuple straight to the
    other boundary of the first square that has it, for the lift and
    rewriting loops; a miss there is ``not_covered``.  Every later list
    entry with the same boundary, renamed copies included, is recorded in
    duplicate_red / duplicate_blue, which ``require_unique`` refuses.
    """

    graph: ColouredGraph = field(repr=False)
    ops: object
    squares: tuple
    duplicate_red: list = field(init=False, default_factory=list)
    duplicate_blue: list = field(init=False, default_factory=list)
    red_to_blue: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    blue_to_red: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        for sq in self.squares:
            red = sq.red_boundary()
            blue = sq.blue_boundary()
            if red in self.red_to_blue:
                self.duplicate_red.append(red)
            else:
                self.red_to_blue[red] = blue
            if blue in self.blue_to_red:
                self.duplicate_blue.append(blue)
            else:
                self.blue_to_red[blue] = red

    def require_unique(self) -> None:
        """Raise ``Conflict`` naming the first boundary that belongs to
        more than one square, red-first ones first, in map order."""
        for kind, table, duplicates in (
            ("red-first", self.red_to_blue, self.duplicate_red),
            ("blue-first", self.blue_to_red, self.duplicate_blue),
        ):
            if duplicates:
                repeated = set(duplicates)
                boundary = next(b for b in table if b in repeated)
                raise Conflict(
                    f"the {kind} boundary {' '.join(boundary)} belongs to more than "
                    f"one square; the collection cannot be complete for this graph"
                )


@dataclass
class CompletenessReport:
    status: str  # "complete" | "incomplete"
    square_count: int
    red_path_count: int
    blue_path_count: int
    uncovered_red: list
    uncovered_blue: list
    duplicated: list
    malformed: list

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

    Squares validated against another graph (or in another mode) are
    validated again here; failures land in the malformed list instead of
    raising.
    """
    valid = []
    malformed = []
    for sq in squares:
        if sq.graph is not g or sq.ops is not ops:
            try:
                build_square(g, ops, sq.emap, sq.name)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                malformed.append(f"{sq.name}: {exc}")
                continue
        valid.append(sq)
    coll = CompleteCollection(g, ops, tuple(valid))
    red_paths = paths_with_colour_word(g, ops.red_first_word)
    blue_paths = paths_with_colour_word(g, ops.blue_first_word)
    uncovered_red = [p for p in red_paths if p not in coll.red_to_blue]
    uncovered_blue = [p for p in blue_paths if p not in coll.blue_to_red]
    # Coverage must be exactly once per boundary, counting list entries:
    # a renamed copy of a square still breaks uniqueness.  Report each
    # repeated boundary once, in order of first appearance (the map order).
    dup_red, dup_blue = set(coll.duplicate_red), set(coll.duplicate_blue)
    duplicated = [b for b in coll.red_to_blue if b in dup_red]
    duplicated += [b for b in coll.blue_to_red if b in dup_blue]
    ok = not (uncovered_red or uncovered_blue or duplicated or malformed)
    return CompletenessReport(
        "complete" if ok else "incomplete",
        len(valid),
        len(red_paths),
        len(blue_paths),
        uncovered_red,
        uncovered_blue,
        duplicated,
        malformed,
    )
