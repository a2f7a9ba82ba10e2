"""Line-oriented fixture files: a coloured graph plus its squares.

Grammar (UTF-8, '#' starts a comment, blank lines ignored):

    mode bs|grid
    vertex <name>
    edge <name> <colour: a|b|1|2> <range-vertex> <source-vertex>
    square <name> eA=<edge> aB=<edge> abB=<edge> eB=<edge> bA=<edge>   # bs
    square <name> v1=<edge> e1v2=<edge> v2=<edge> e2v1=<edge>          # grid

A file has at most one mode line (bs if none), each square names each slot
of its mode once, and the file loads as its ``CompleteCollection``.
Serialization writes the same grammar back in declaration order, so a
parse/serialize round trip is the identity modulo comments and spacing.

Loading reads the lines one by one, then validates the graph and the
squares a column at a time (``graphs.build_graph``,
``squares.build_squares``).  Of several faults, the one reported is the
first syntax fault in line order; else the graph's first, vertices before
edges; else the first faulty square in line order, with its first fault
in model order.  Every fault names its line.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import eq

from .errors import BsGraphError, FixtureSyntaxError
from .graphs import build_graph
from .squares import (
    CompleteCollection,
    build_square,
    build_square_slots,
    build_squares,
    slot_reader,
)
from .words import MODES


def _read_slots(lineno: int, items) -> dict:
    """A square line's slots, item by item: the first item that is not
    slot=edge, or repeats a slot, is refused with its line."""
    slots = {}
    for item in items:
        if "=" not in item:
            raise FixtureSyntaxError(f"line {lineno}: square slot {item!r} is not slot=edge")
        slot, edge = item.split("=", 1)
        if slot in slots:
            raise FixtureSyntaxError(f"line {lineno}: square slot {slot!r} given twice")
        slots[slot] = edge
    return slots


def _rows_in_slot_order(ops, items: list) -> list | None:
    """The squares' edge names as rows in ``boundary_edges`` order, read
    in one pass when every square lists the mode's slots in that order,
    as ``serialize_fixture`` writes them; else None."""
    prefixes = slot_reader(ops)[2]
    m = len(prefixes)
    if not {m}.issuperset(map(len, items)):
        return None
    prefixes = prefixes * len(items)
    flat = list(chain.from_iterable(items))
    if not all(map(str.startswith, flat, prefixes)):
        return None
    return list(zip(*[map(str.removeprefix, flat, prefixes)] * m))


def parse_fixture(text: str) -> CompleteCollection:
    """The collection a fixture's text declares; ``FixtureSyntaxError``
    names the line of its first fault."""
    mode = None
    vertices: list[str] = []
    edges: list[list] = []
    vertex_lines: list[int] = []
    edge_lines: list[int] = []
    square_lines: list[int] = []
    square_names: list[str] = []
    square_items: list[list] = []
    seen_names: set[str] = set()
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if not tokens:
                continue
            kind, args = tokens[0], tokens[1:]
            if kind == "edge":
                if len(args) != 4:
                    raise FixtureSyntaxError(f"line {lineno}: edge takes name colour range source")
                edges.append(args)
                edge_lines.append(lineno)
            elif kind == "square":
                if not args:
                    raise FixtureSyntaxError(f"line {lineno}: square needs a name")
                square_lines.append(lineno)
                square_names.append(args[0])
                square_items.append(args[1:])
                if args[0] in seen_names:
                    raise FixtureSyntaxError(
                        f"line {lineno}: duplicate square name {args[0]!r}"
                    )
                seen_names.add(args[0])
            elif kind == "vertex":
                if len(args) != 1:
                    raise FixtureSyntaxError(f"line {lineno}: vertex takes one name")
                vertices.append(args[0])
                vertex_lines.append(lineno)
            elif kind == "mode":
                if len(args) != 1 or args[0] not in MODES:
                    raise FixtureSyntaxError(f"line {lineno}: mode must be bs or grid")
                if mode is not None:
                    raise FixtureSyntaxError(f"line {lineno}: mode given twice")
                mode = args[0]
            else:
                raise FixtureSyntaxError(f"line {lineno}: unknown directive {kind!r}")
    except FixtureSyntaxError:
        # Slots are read after the loop; a bad slot on an earlier square
        # line, or on this one, comes first.
        list(map(_read_slots, square_lines, square_items))
        raise
    ops = MODES[mode or "bs"]
    rows = _rows_in_slot_order(ops, square_items)
    if rows is None:
        slots = list(map(_read_slots, square_lines, square_items))
        # Squares are validated as a batch up to the first whose slots
        # are not the mode's.
        table, read, _ = slot_reader(ops)
        keys_ok = list(map(eq, map(dict.keys, slots), repeat(table)))
        rows = list(map(read, slots[: keys_ok.index(False) if False in keys_ok else len(slots)]))
    try:
        graph = build_graph(vertices, edges)
    except BsGraphError as exc:
        line = (vertex_lines + edge_lines)[exc.row]
        raise FixtureSyntaxError(f"line {line}: {exc}") from exc
    squares = build_squares(graph, ops, rows, square_names)
    if len(squares) < len(square_names):
        # The first square refused, validated on its own, raises its first fault.
        i = len(squares)
        try:
            if i < len(rows):
                build_square(graph, ops, rows[i], square_names[i])
            else:
                build_square_slots(graph, ops, slots[i], square_names[i])
        except Exception as exc:
            raise FixtureSyntaxError(f"line {square_lines[i]}: {exc}") from exc
        raise AssertionError(
            f"build_squares refused {square_names[i]!r} but build_square accepted it"
        )
    return CompleteCollection(graph, ops, squares)


def load_fixture(path) -> CompleteCollection:
    with open(path, encoding="utf-8") as fh:
        return parse_fixture(fh.read())


def serialize_fixture(collection: CompleteCollection) -> str:
    """The text ``parse_fixture`` reads back as ``collection``.  A name that
    is empty or holds whitespace or '#' would not read back as one token,
    so the first one, in write order, raises ``BsGraphError``."""
    ops, graph = collection.ops, collection.graph
    named = [("vertex", v) for v in graph.vertices] + [("edge", e.name) for e in graph.edges]
    named += [("square", sq.name) for sq in collection.squares]
    bad = [(kind, name) for kind, name in named if name.split() != [name] or "#" in name]
    if bad:
        raise BsGraphError("cannot write %s name %r: a name is one token, with no '#'" % bad[0])
    token = ops.colour_tokens
    lines = [f"mode {ops.name}"]
    lines.extend(f"vertex {v}" for v in graph.vertices)
    lines.extend(f"edge {e.name} {token[e.colour]} {e.range_} {e.source}" for e in graph.edges)
    for sq in collection.squares:
        slots = " ".join(f"{slot}={e}" for slot, e in zip(ops.slot_names, sq.red + sq.blue))
        lines.append(f"square {sq.name} {slots}")
    return "\n".join(lines) + "\n"
