"""Independent oracles the tests check the library against.

The word oracles work on raw letter strings or by exhaustive search, on
purpose: none of them shares code with the canonical-pair arithmetic or
the lifter they are used to validate.

The dense references work on a morphism's vertex and edge maps over its
model graph, the dict form of its rows (``maps``, and ``from_maps`` back):
restriction to a prefix and its translated form (the factor pair of a
split), the squares a morphism's domain holds and the check that the
collection has each of them, and the JSON object a morphism stands for.
A square is likewise read back as the dict form of its two boundaries
(``square_map``), keyed by the domain edges each boundary walks, and
``reference_square`` validates one by walking those domain edges sorted,
deriving every step and label on the way.
They share the degree arithmetic and model graphs with the library, but
not its split, which reads one traversal at a time, nor its one-pass JSON
writer.  ``compose`` lifts the concatenated traversals to the dense
composite, the reference that composing by rewriting is checked against.

``enumerate_leaf_checked`` is the enumeration oracle's search before it
pruned: every colour/structure-preserving assignment, with the squares
checked only once an assignment is total.  The pruned search must return
its list, in its order.

``normal_form_by_stack`` is boundary rewriting with its letters on a
stack, each rewrite read again from the square's other boundary.  The
in-place rewriting of the leftmost match must read the same squares in
the same order, so it returns the same path or misses the same square.
Like ``normal_form``, it refuses a collection with a boundary in two
squares before it reads any square.

``lift_path_two_pass`` is the lift before it followed the path one edge
at a time: a walk over the path, then every square left of the path read
top down and every square right of it bottom up.  The one-edge fold must
build the same morphism on every path of a complete collection, and fail
on the same paths of an incomplete one.

``parse_fixture_by_rows`` is the fixture parser before it validated a
column at a time: one square at a time through ``build_square_slots``,
and the graph through ``build_graph_by_rows``, ``build_graph``'s loop
over its rows, which raises the first fault in declaration order.  The
column-wise parser must return an equal collection, or raise the same
error, with the line of the row at fault.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cache, reduce
from operator import itemgetter

from bsgraph.errors import (
    BsGraphError,
    ColourMismatch,
    DuplicateId,
    FixtureSyntaxError,
    JunctionMismatch,
    NotAPrefix,
    NotComposable,
    UnknownVertex,
)
from bsgraph.graphs import ColouredGraph, Edge, Path, concat, parse_colour
from bsgraph.models import check_model_size, model, square_positions
from bsgraph.morphisms import (
    Morphism,
    _rows_reader,
    _rule,
    identity_morphism,
    lift_path,
    shortest_traversal,
)
from bsgraph.squares import (
    CompleteCollection,
    Square,
    boundary_edges,
    build_square_slots,
    not_covered,
)
from bsgraph.words import MODES

ALPHABET = "ab"


def fold_pair(s: str, k: int = 2) -> tuple[int, int]:
    """Fold a letter string to its (N, M) pair one letter at a time.

    Uses only the defining facts a = (1,0), b = (0,1) appended on the
    right in the monoid with ab^k = ba, i.e. appending a multiplies M by k,
    appending b adds one.  k = 2 is BS, k = 1 the grid.
    """
    n = m = 0
    for ch in s:
        if ch == "a":
            n, m = n + 1, k * m
        elif ch == "b":
            m += 1
        else:
            raise ValueError(f"bad letter {ch!r}")
    return (n, m)


def rewrite_neighbours(s: str) -> set[str]:
    """One application of abb -> ba or ba -> abb anywhere in s."""
    out = set()
    for i in range(len(s)):
        if s[i : i + 3] == "abb":
            out.add(s[:i] + "ba" + s[i + 3 :])
        if s[i : i + 2] == "ba":
            out.add(s[:i] + "abb" + s[i + 2 :])
    return out


def rewrite_closure(s: str) -> set[str]:
    """All strings connected to s by abb <-> ba rewrites.

    Finite: every representative of a word with pair (N, M) has length
    between the geodesic length and N + M, so the search closes.
    """
    seen = {s}
    queue = deque([s])
    while queue:
        cur = queue.popleft()
        for nxt in rewrite_neighbours(cur):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def all_strings(max_len: int, include_empty: bool = False):
    if include_empty:
        yield ""
    for length in range(1, max_len + 1):
        for tup in itertools.product(ALPHABET, repeat=length):
            yield "".join(tup)


def minimal_lengths(max_len: int) -> dict[tuple[int, int], int]:
    """Pair -> length of the shortest string folding to it, by brute force."""
    out: dict[tuple[int, int], int] = {(0, 0): 0}
    for length in range(1, max_len + 1):
        for tup in itertools.product(ALPHABET, repeat=length):
            out.setdefault(fold_pair("".join(tup)), length)
    return out


def brute_prefixes(pair: tuple[int, int], k: int = 2) -> set[tuple[int, int]]:
    """Left divisors of a pair, by peeling single letters off the right.

    z is a prefix of w iff w = z, or w ends (as a monoid element) in a
    letter whose removal leaves something z is a prefix of.  Removing a
    trailing b from (n, m) gives (n, m-1); removing a trailing a is only
    possible when k divides m and gives (n-1, m/k).
    """
    seen = {pair}
    queue = deque([pair])
    while queue:
        n, m = queue.popleft()
        parents = []
        if m > 0:
            parents.append((n, m - 1))
        if n > 0 and m % k == 0:
            parents.append((n - 1, m // k))
        for p in parents:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


# ---------------------------------------------------------- dense references


def maps(lam: Morphism) -> tuple[dict, dict]:
    """lam's vertex map, keyed by prefix pairs, and its edge map, keyed by
    (prefix pair, letter), as two plain dicts in model order."""
    domain = model(lam.ops, lam.degree)
    rows = {"a": lam.arows, "b": lam.brows}
    return (
        {(i, j): lam.vrows[i][j] for i, j in domain.vertices},
        {((i, j), l): rows[l][i][j] for (i, j), l in domain.edges},
    )


def from_maps(ops, degree, vmap: dict, emap: dict) -> Morphism:
    """The morphism with these maps; raises ``ValueError`` unless their
    keys are exactly the vertices and edges of ``model(ops, degree)``."""
    domain = model(ops, degree)
    if set(vmap) != set(domain.vertices) or set(emap) != set(domain.edges):
        raise ValueError(f"maps not keyed by the model graph of {ops.format(degree)}")
    rows = range(degree[0] + 1)
    return Morphism(
        ops,
        degree,
        [[vmap[z] for z in domain.vertices if z[0] == i] for i in rows],
        [[emap[z, l] for z, l in domain.edges if z[0] == i and l == "a"] for i in rows],
        [[emap[z, l] for z, l in domain.edges if z[0] == i and l == "b"] for i in rows],
    )


@cache
def boundary_keys(ops, colour_word) -> tuple:
    """Domain edge keys (base, letter) read along a boundary colour word."""
    keys = []
    base = ops.identity
    for letter in colour_word:
        keys.append((base, letter))
        base = ops.step(base, letter)
    return tuple(keys)


def red_keys(ops) -> tuple:
    return boundary_keys(ops, ops.red_first_word)


def blue_keys(ops) -> tuple:
    return boundary_keys(ops, ops.blue_first_word)


def square_map(ops, sq) -> dict:
    """The square's edge names keyed by the (base, letter) domain edges of
    the square's model graph: its red-first boundary, then its blue-first."""
    return dict(zip(red_keys(ops) + blue_keys(ops), sq.red + sq.blue))


def reference_square(g, ops, names, name: str = "") -> Square:
    """``squares.build_square`` without its per-mode plan: the names
    zipped with ``boundary_edges`` and sorted into model order, each
    edge's colour checked, and its range and source recorded under their
    prefix pairs, where a pair forced to two vertices is a fault."""
    vertices: dict = {}
    for (z, letter), image in sorted(zip(boundary_edges(ops), names, strict=True)):
        edge = g.edge(image)
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
    cut = len(ops.red_first_word)
    return Square(name, names[:cut], names[cut:], g)


def restrict(lam: Morphism, w1) -> Morphism:
    """lam on the model graph of a prefix w1, values unchanged."""
    ops = lam.ops
    if not ops.is_prefix(w1, lam.degree):
        raise NotAPrefix(f"{ops.format(w1)} is not a prefix of {ops.format(lam.degree)}")
    domain = model(ops, w1)
    vmap, emap = maps(lam)
    return from_maps(
        ops,
        w1,
        {z: vmap[z] for z in domain.vertices},
        {k: emap[k] for k in domain.edges},
    )


def restrict_shifted(lam: Morphism, w1, w2) -> Morphism:
    """The translated restriction to [w1, w2]: z -> lam(w1 * z)."""
    ops = lam.ops
    if not ops.is_prefix(w1, w2):
        raise NotAPrefix(f"{ops.format(w1)} is not a prefix of {ops.format(w2)}")
    if not ops.is_prefix(w2, lam.degree):
        raise NotAPrefix(f"{ops.format(w2)} is not a prefix of {ops.format(lam.degree)}")
    w = ops.quotient(w1, w2)
    domain = model(ops, w)
    vmap, emap = maps(lam)
    return from_maps(
        ops,
        w,
        {z: vmap[ops.mul(w1, z)] for z in domain.vertices},
        {(z, l): emap[(ops.mul(w1, z), l)] for (z, l) in domain.edges},
    )


def occurrences(lam: Morphism) -> list[tuple]:
    """(base position, square edge map) of every translated square inside
    lam's domain; the edge map is keyed relative to the square's domain."""
    ops = lam.ops
    edges = model(ops, ops.square_degree).edges
    _, emap = maps(lam)
    return [
        (m, {(z, l): emap[(ops.mul(m, z), l)] for (z, l) in edges})
        for m in square_positions(ops, lam.degree)
    ]


def check_compatible(lam: Morphism, collection) -> bool:
    """True iff every occurring square belongs to the collection."""
    ops = collection.ops
    known = {frozenset(square_map(ops, sq).items()) for sq in collection.squares}
    return all(frozenset(emap.items()) in known for _, emap in occurrences(lam))


def morphism_json(lam: Morphism) -> dict:
    """The JSON object ``Morphism.json_text`` writes, built as a dict."""
    ops = lam.ops
    vmap, emap = maps(lam)
    return {
        "mode": ops.name,
        "degree": {"word": ops.format(lam.degree), "pair": list(lam.degree)},
        "vertices": [
            {"prefix": ops.format(z), "pair": list(z), "vertex": v}
            for z, v in sorted(vmap.items())
        ],
        "edges": [
            {"prefix": ops.format(z), "letter": l, "edge": e}
            for (z, l), e in sorted(emap.items())
        ],
    }


def compose(ctx, mu: Morphism, nu: Morphism) -> Morphism:
    """The unique morphism restricting to mu and (shifted) to nu: the lift
    of mu's shortest traversal followed by nu's."""
    if mu.source != nu.range_:
        raise NotComposable(None, f"s(mu) = {mu.source} != r(nu) = {nu.range_}")
    x = shortest_traversal(mu)
    y = shortest_traversal(nu)
    return lift_path(ctx, concat(x, y))


def enumerate_leaf_checked(collection, w) -> list[Morphism]:
    """Every compatible morphism of degree w: backtracking over domain
    edges in declaration order, trying ambient edges in declaration order,
    and keeping a total assignment when every square occurrence in it is
    one of the collection's squares.  No search budget: keep w small."""
    ops, g = collection.ops, collection.graph
    domain = model(ops, w)
    vertices, edge_keys = domain.vertices, domain.edges
    if not edge_keys:
        return [identity_morphism(ops, v) for v in g.vertices]
    vertex_index = {z: i for i, z in enumerate(vertices)}
    edge_index = {k: i for i, k in enumerate(edge_keys)}
    read_rows = _rows_reader(ops.row_widths(w))
    known = {sq.red + sq.blue for sq in collection.squares}
    square_readers = [
        itemgetter(*[edge_index[(ops.mul(m, z), l)] for z, l in boundary_edges(ops)])
        for m in square_positions(ops, w)
    ]
    candidates: dict = {l: {v: [] for v in g.vertices} for l in "ab"}
    for e in g.edges:
        candidates[e.colour][e.range_].append((e.name, e.source))
    levels = []
    fixed = {vertex_index[ops.identity]}
    for z, l in edge_keys:
        t = vertex_index[ops.step(z, l)]
        levels.append((vertex_index[z], t, t in fixed, candidates[l]))
        fixed.add(t)
    images: list = [None] * len(vertices)
    names: list = [None] * len(levels)
    results: list[Morphism] = []

    def backtrack(i: int):
        if i == len(levels):
            if all(read(names) in known for read in square_readers):
                results.append(Morphism(ops, w, *read_rows(images, names)))
            return
        r, t, source_fixed, choices = levels[i]
        for name, source in choices[images[r]]:
            if source_fixed and source != images[t]:
                continue
            names[i] = name
            images[t] = source
            backtrack(i + 1)

    for v in g.vertices:
        images[vertex_index[ops.identity]] = v
        backtrack(0)
    return results


def normal_form_by_stack(collection, x: Path) -> Path:
    """The normal form of x, rewriting with a stack: edges are placed one
    at a time, and when the last ``width`` placed spell the rule's
    pattern, they are taken off and the square's other boundary is pushed
    back to be placed again, so a rewrite only looks again at its
    neighbours.  A boundary in two squares raises ``Conflict``, a missing
    square ``NotCovered``."""
    collection.require_unique()
    pattern, word, table, kind = _rule(collection.ops)
    table, width = getattr(collection, table), len(pattern)
    names, colours = [], []
    # Edges still to place, next one last.
    todo = list(zip(reversed(x.edges), reversed(x.colours)))
    while todo:
        name, colour = todo.pop()
        names.append(name)
        colours.append(colour)
        if "".join(colours[-width:]) == pattern:
            boundary = tuple(names[-width:])
            other = table.get(boundary) or not_covered(kind, boundary)
            del names[-width:], colours[-width:]
            todo.extend(zip(reversed(other), reversed(word)))
    return Path(tuple(names), x.range_, x.source, "".join(colours))


def lift_path_two_pass(collection, x: Path) -> Morphism:
    """The lift in two passes over the model graph's rows.

    A walk over the path checks its junctions and reads its colours from
    the graph.  In row i of the model graph the path walks blue edges, then
    takes the red edge a(i, d) down to row i + 1; its edges go into the
    rows as they are.  Top down, each square of row i left of a(i, d) is
    read from its blue-first side; bottom up, each one right of it from its
    red-first side.
    """
    collection.require_unique()
    ops, g = collection.ops, collection.graph
    at = x.range_
    colours = []
    for name in x.edges:
        edge = g.edge(name)
        if edge.range_ != at:
            raise NotComposable(
                None,
                f"edge {name!r} has range {edge.range_!r} but the path is at {at!r}",
            )
        colours.append(edge.colour)
        at = edge.source
    w = reduce(ops.step, colours, ops.identity)
    check_model_size(ops, w)
    names, to_red, to_blue = x.edges, collection._blue_to_red, collection._red_to_blue
    # Top down; blue is row i's blue edges left of its red edge a.
    arows, brows, blue, start = [], [], [], 0
    for k in [k for k, c in enumerate(colours) if c == "a"]:
        blue += names[start:k]
        a, start = names[k], k + 1
        reds, below = [a], []
        for b in reversed(blue):
            pair = (b, a)
            red = to_red.get(pair) or not_covered("blue-first", pair)
            a = red[0]
            reds.append(a)
            below += red[:0:-1]  # row i + 1's blue edges, right to left
        reds.reverse()
        arows.append(reds)
        brows.append(blue)
        blue = below[::-1]
    blue += names[start:]
    # Bottom up.  Row i's square at j reads a(i, j) and the k blue edges
    # below it, b(i+1, kj) .. b(i+1, kj+k-1), where the square degree is
    # (1, k), and yields b(i, j) and a(i, j+1).
    range_of = {e.name: e.range_ for e in g.edges}.__getitem__
    vrows = [None] * len(arows) + [(*map(range_of, blue), at)]
    brows.append(blue)
    k = ops.square_degree[1]
    for i in range(len(arows) - 1, -1, -1):
        reds, blues = arows[i], brows[i]
        a, d = reds[-1], len(blues)
        for tail in zip(*(blue[k * d + t::k] for t in range(k))):
            boundary = (a,) + tail
            b, a = to_blue.get(boundary) or not_covered("red-first", boundary)
            blues.append(b)
            reds.append(a)
        vrows[i] = tuple(map(range_of, reds))
        blue = blues
    arows.append(())
    return Morphism(ops, w, vrows, arows, brows)


def build_graph_by_rows(vertices, edges) -> ColouredGraph:
    """A graph validated one row at a time, vertices first: a repeated
    vertex name, an edge id repeated or naming a vertex, a colour token
    ``parse_colour`` refuses, an undeclared range or source.  The first
    fault is raised with the index of its row as ``row``, vertex rows
    counted first."""
    vs, seen, es, ids = [], set(), [], set()
    row = 0
    try:
        for v in vertices:
            if v in seen:
                raise DuplicateId(f"duplicate vertex {v!r}")
            seen.add(v)
            vs.append(v)
            row += 1
        for name, colour, range_, source in edges:
            if name in ids or name in seen:
                raise DuplicateId(f"duplicate id {name!r}")
            ids.add(name)
            colour = parse_colour(colour)
            for v in (range_, source):
                if v not in seen:
                    raise UnknownVertex(f"edge {name!r} uses undeclared vertex {v!r}")
            es.append(Edge(name, colour, range_, source))
            row += 1
    except BsGraphError as exc:
        exc.row = row
        raise
    return ColouredGraph(tuple(vs), tuple(es))


def parse_fixture_by_rows(text: str) -> CompleteCollection:
    """A fixture read line by line, each square's slots item by item, and
    validated one row at a time: the graph, then each square in line order."""
    mode = None
    vertices, edges, vertex_lines, edge_lines = [], [], [], []
    square_lines, square_names = [], set()
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
            vertex_lines.append(lineno)
        elif kind == "edge":
            if len(args) != 4:
                raise FixtureSyntaxError(f"line {lineno}: edge takes name colour range source")
            edges.append(tuple(args))
            edge_lines.append(lineno)
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
        graph = build_graph_by_rows(vertices, edges)
    except BsGraphError as exc:
        line = (vertex_lines + edge_lines)[exc.row]
        raise FixtureSyntaxError(f"line {line}: {exc}") from exc
    ops = MODES[mode or "bs"]
    squares = []
    for lineno, name, slots in square_lines:
        try:
            squares.append(build_square_slots(graph, ops, slots, name))
        except Exception as exc:
            raise FixtureSyntaxError(f"line {lineno}: {exc}") from exc
    return CompleteCollection(graph, ops, squares)
