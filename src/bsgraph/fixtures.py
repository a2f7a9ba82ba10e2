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
"""

from __future__ import annotations

from .errors import FixtureSyntaxError
from .graphs import build_graph
from .squares import CompleteCollection, build_square_slots
from .words import MODES


def parse_fixture(text: str) -> CompleteCollection:
    mode = None
    vertices: list[str] = []
    edges: list[tuple] = []
    square_lines: list[tuple[int, str, dict]] = []
    square_names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "mode":
            if len(args) != 1 or args[0] not in MODES:
                raise FixtureSyntaxError(f"line {lineno}: mode must be bs or grid")
            if mode is not None:
                raise FixtureSyntaxError(f"line {lineno}: mode given twice")
            mode = args[0]
        elif kind == "vertex":
            if len(args) != 1:
                raise FixtureSyntaxError(f"line {lineno}: vertex takes one name")
            vertices.append(args[0])
        elif kind == "edge":
            if len(args) != 4:
                raise FixtureSyntaxError(f"line {lineno}: edge takes name colour range source")
            edges.append(tuple(args))
        elif kind == "square":
            if not args:
                raise FixtureSyntaxError(f"line {lineno}: square needs a name")
            slots = {}
            for item in args[1:]:
                if "=" not in item:
                    raise FixtureSyntaxError(
                        f"line {lineno}: square slot {item!r} is not slot=edge"
                    )
                slot, edge = item.split("=", 1)
                if slot in slots:
                    raise FixtureSyntaxError(f"line {lineno}: square slot {slot!r} given twice")
                slots[slot] = edge
            if args[0] in square_names:
                raise FixtureSyntaxError(f"line {lineno}: duplicate square name {args[0]!r}")
            square_names.add(args[0])
            square_lines.append((lineno, args[0], slots))
        else:
            raise FixtureSyntaxError(f"line {lineno}: unknown directive {kind!r}")
    try:
        graph = build_graph(vertices, edges)
    except Exception as exc:
        raise FixtureSyntaxError(str(exc)) from exc
    ops = MODES[mode or "bs"]
    squares = []
    for lineno, name, slots in square_lines:
        try:
            squares.append(build_square_slots(graph, ops, slots, name))
        except Exception as exc:
            raise FixtureSyntaxError(f"line {lineno}: {exc}") from exc
    return CompleteCollection(graph, ops, squares)


def load_fixture(path) -> CompleteCollection:
    with open(path, encoding="utf-8") as fh:
        return parse_fixture(fh.read())


def serialize_fixture(collection: CompleteCollection) -> str:
    ops, graph = collection.ops, collection.graph
    token = ops.colour_tokens
    lines = [f"mode {ops.name}"]
    lines.extend(f"vertex {v}" for v in graph.vertices)
    lines.extend(f"edge {e.name} {token[e.colour]} {e.range_} {e.source}" for e in graph.edges)
    for sq in collection.squares:
        slots = " ".join(f"{slot}={e}" for slot, e in zip(ops.slot_names, sq.red + sq.blue))
        lines.append(f"square {sq.name} {slots}")
    return "\n".join(lines) + "\n"
