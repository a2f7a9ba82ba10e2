"""Coloured-graph morphisms out of model graphs, and path lifting.

The central operation turns a path of the ambient graph into the unique
compatible morphism on the model graph of its degree.  A complete
collection fixes that morphism square by square (unique factorization), so
the lift writes the path's own edges into the model graph's rows and reads
every other domain square once from the collection's maps: top down from
its blue-first side where it lies left of the path, bottom up from its
red-first side where it lies right of it.  A collection with a boundary
in two squares raises ``Conflict`` before any square is read; a missing
square raises ``NotCovered``.  The morphism is stored as those rows, in
model order, and written out (JSON, DOT, ``key()``) by walking them.

The shortest traversal is canonical.  ``normal_form`` computes it from any
other traversal by rewriting one square boundary at a time, without
building the dense map.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .errors import NotComposable, ResourceLimit
from .graphs import Frozen, Path, _set, path_degree
from .models import check_model_size, model, square_positions, too_many_vertices
from .squares import CompleteCollection, boundary_edges, not_covered


def _in_model_order(reds, blues) -> list:
    """A row's red and blue items as the model graph orders its edges:
    a(i, 0), b(i, 0), a(i, 1), ..., a(i, last).  Row N has blue ones only."""
    if not reds:
        return list(blues)
    row = [None] * (len(reds) + len(blues))
    row[::2], row[1::2] = reds, blues
    return row


def _rows_reader(widths):
    """For the model graph with rows of these widths, the function that
    cuts (vrows, arows, brows) out of all vertex images and all edge
    images, each listed in model order.  Each row is a run of both lists;
    below the top row its red and blue edges alternate, starting with a
    red one."""
    vcuts, acuts, bcuts, v, e = [], [], [], 0, 0
    for width in widths[:-1]:
        end = e + 2 * width - 1
        vcuts.append(slice(v, v + width))
        acuts.append(slice(e, end, 2))
        bcuts.append(slice(e + 1, end, 2))
        v, e = v + width, end
    vcuts.append(slice(v, None))
    acuts.append(slice(0, 0))
    bcuts.append(slice(e, None))

    def read(images, names) -> tuple:
        return (
            [images[cut] for cut in vcuts],
            [names[cut] for cut in acuts],
            [names[cut] for cut in bcuts],
        )

    return read


class Morphism(Frozen, fields=("ops", "degree", "vrows", "arows", "brows")):
    """Total colour/structure-preserving assignment on a model graph, kept
    as its rows i = 0..N of prefix pairs (i, j).

    ``vrows[i][j]`` is the ambient vertex of (i, j); ``arows[i][j]`` and
    ``brows[i][j]`` are the ambient edges of ((i, j), 'a') and ((i, j), 'b'),
    and row N has no red edges.  Rows are tuples, so a morphism never
    changes.  Morphisms compare by mode, degree and rows.
    """

    __slots__ = ("ops", "degree", "vrows", "arows", "brows")

    def __init__(self, ops, degree, vrows, arows, brows):
        """The morphism with these rows, each frozen to a tuple; raises
        ``ValueError`` unless they have the shape of ``model(ops, degree)``:
        row i holds its width of vertices, as many red edges (none in row
        N) and one blue edge fewer."""
        vrows, arows, brows = (
            tuple(map(tuple, vrows)), tuple(map(tuple, arows)), tuple(map(tuple, brows))
        )
        widths = ops.row_widths(degree)
        if (
            list(map(len, vrows)) != widths
            or list(map(len, arows)) != widths[:-1] + [0]
            or [len(row) + 1 for row in brows] != widths
        ):
            raise ValueError(f"rows not shaped like the model graph of {ops.format(degree)}")
        _set(self, "ops", ops)
        _set(self, "degree", degree)
        _set(self, "vrows", vrows)
        _set(self, "arows", arows)
        _set(self, "brows", brows)

    @property
    def range_(self) -> str:
        return self.vrows[0][0]

    @property
    def source(self) -> str:
        return self.vrows[-1][-1]

    def key(self):
        """Canonical hashable identity, for memo tables and dedup: mode,
        degree, and all vertex and all edge images in model order, which
        sorts like the sorted items of both maps."""
        return (
            self.ops.name,
            self.degree,
            tuple(chain.from_iterable(self.vrows)),
            tuple(chain.from_iterable(map(_in_model_order, self.arows, self.brows))),
        )

    def json_text(self, level: int = 0) -> str:
        """The morphism as an ``indent=2`` JSON object, written in one pass.

        The object holds the mode, the degree (word and pair), and the
        vertex and edge images, each read off the rows in model order.
        Every line after the first is indented by ``level`` more steps of
        two spaces, so the text can sit as a value at that nesting depth of
        an enclosing ``indent=2`` document.  Names go through the same C
        string encoder ``json.dumps`` uses; prefix labels come from
        ``ops.label_rows``, and each vertex's head is shared by its vertex
        item and its edge items.
        """
        ops, q = self.ops, encode_basestring_ascii
        # Line break plus indentation at depth level, level + 1, ...
        i0 = "\n" + "  " * level
        i1, i2, i3, i4 = (i0 + "  " * k for k in range(1, 5))
        label = ops.label_rows(self.degree)
        # The constant pieces of the items, and the rows of items, each
        # joined as soon as it is written.
        comma, end, vertex = "," + i2, i2 + "}", i3 + "]," + i3 + '"vertex": '
        red, blue = ('"letter": "' + l + '",' + i3 + '"edge": ' for l in "ab")
        vertex_rows, edge_rows = [], []
        rows = zip(label, self.vrows, self.arows, self.brows)
        for i, (labels, verts, reds, blues) in enumerate(rows):
            heads = [f'{{{i3}"prefix": "{s}",{i3}' for s in labels]
            pair = f'"pair": [{i4}{i},{i4}'
            vertex_rows.append(comma.join([
                f"{h}{pair}{j}{vertex}{q(v)}{end}"
                for j, h, v in zip(range(len(heads)), heads, verts)
            ]))
            if reds or blues:
                edge_rows.append(comma.join(_in_model_order(
                    [f"{h}{red}{q(e)}{end}" for h, e in zip(heads, reds)],
                    [f"{h}{blue}{q(e)}{end}" for h, e in zip(heads, blues)],
                )))
        vertices = comma.join(vertex_rows)
        edges = f"[{i2}{comma.join(edge_rows)}{i1}]" if edge_rows else "[]"
        del vertex_rows, edge_rows
        n, m = self.degree
        return (
            f'{{{i1}"mode": "{ops.name}",{i1}"degree": {{{i2}"word": "{label[-1][-1]}",'
            f'{i2}"pair": [{i3}{n},{i3}{m}{i2}]{i1}}},'
            f'{i1}"vertices": [{i2}{vertices}{i1}],{i1}"edges": {edges}{i0}}}'
        )


def identity_morphism(ops, vertex: str) -> Morphism:
    return Morphism(ops, ops.identity, ((vertex,),), ((),), ((),))


def lift_path(collection: CompleteCollection, x: Path) -> Morphism:
    """The unique compatible morphism traversed by x.

    In row i of the model graph the path walks blue edges, then takes the
    red edge a(i, d) down to row i + 1; its edges go into the rows as they
    are.  Top down, each square of row i left of a(i, d) is read from its
    blue-first side; bottom up, each one right of it from its red-first side.
    No boundary is in two squares (``require_unique``), so both sides of a
    square name that one square.
    """
    collection.require_unique()
    ops, g = collection.ops, collection.graph
    if not x.edges:
        return identity_morphism(ops, x.range_)
    # Colours come from the graph, and every junction is checked.
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
    # The constructor freezes the row lists to tuples.
    return Morphism(ops, w, vrows, arows, brows)


@cache
def _rule(ops) -> tuple:
    """The mode's rewriting rule, derived from its two boundary words:
    (the colour word to replace, the word it becomes, the collection's map
    from one to the other, the replaced boundary's ``NotCovered`` label).
    Rewriting goes toward the boundary that spells the square degree's
    shortest word."""
    red, blue = ops.red_first_word, ops.blue_first_word
    if ops.shortest_letters(ops.square_degree) == red:
        return "".join(blue), red, "_blue_to_red", "blue-first"
    return "".join(red), blue, "_red_to_blue", "red-first"


def normal_form(collection: CompleteCollection, x: Path) -> Path:
    """The shortest traversal of the morphism that x traverses.

    Rewrites one square at a time toward the boundary that spells the
    square degree's shortest word: in BS mode each red-first ``a b b``
    edge triple becomes its square's blue-first ``b a`` pair, in grid mode
    each blue-first ``b a`` pair becomes the red-first ``a b`` pair.  The
    rules do not overlap and each shortens the colour word or moves a red
    letter left, so every order of rewriting ends at the same normal form:
    the word with no ``a b b`` factor, resp. ``a^m b^n``.  Letters wait on
    a stack, so a rewrite only looks again at its neighbours.  A missing
    square raises ``NotCovered``.
    """
    pattern, word, table, kind = _rule(collection.ops)
    # Everything before the first match is normal already, and most paths
    # of a sweep have no match at all.
    width = len(pattern)
    start = "".join(x.colours).find(pattern)
    if start < 0:
        return x
    start += width - 1
    table, last = getattr(collection, table), pattern[-1]
    pattern, word = list(pattern), word[::-1]
    names, colours = list(x.edges[:start]), list(x.colours[:start])
    # Edges still to place, next one last; a rewrite pushes its output here.
    todo = list(zip(reversed(x.edges[start:]), reversed(x.colours[start:])))
    while todo:
        name, colour = todo.pop()
        names.append(name)
        colours.append(colour)
        if colour == last and colours[-width:] == pattern:
            boundary = tuple(names[-width:])
            other = table.get(boundary) or not_covered(kind, boundary)
            del names[-width:], colours[-width:]
            todo.extend(zip(reversed(other), word))
    return Path(tuple(names), x.range_, x.source, tuple(colours))


def check_traverses(lam: Morphism, x: Path) -> bool:
    """True iff degrees match and x reads off lam's images in order."""
    return path_degree(lam.ops, x) == lam.degree and _read_traversal(lam, x.colours) == x


def _read_traversal(lam: Morphism, letters, start=None) -> Path:
    """The path lam's edge images spell along letters from the domain
    vertex start (the identity if None)."""
    ops = lam.ops
    rows, step = {"a": lam.arows, "b": lam.brows}, ops.step
    w = ops.identity if start is None else start
    range_ = lam.vrows[w[0]][w[1]]
    names = []
    for letter in letters:
        names.append(rows[letter][w[0]][w[1]])
        w = step(w, letter)
    return Path(tuple(names), range_, lam.vrows[w[0]][w[1]], tuple(letters))


def shortest_traversal(lam: Morphism) -> Path:
    return _read_traversal(lam, lam.ops.shortest_letters(lam.degree))


def longest_traversal(lam: Morphism) -> Path:
    return _read_traversal(lam, lam.ops.longest_letters(lam.degree))


def split_traversals(lam: Morphism, w1, w2) -> tuple[Path, Path]:
    """The shortest traversals of lam's degree-(w1, w2) factor pair, read
    straight off lam: from e along shortest(w1), then from w1 along
    shortest(w2).  The factors are lam on the prefixes of w1 and, shifted
    by w1, on the rest of its domain; this builds neither of them nor its
    model graph."""
    shortest = lam.ops.shortest_letters
    return _read_traversal(lam, shortest(w1)), _read_traversal(lam, shortest(w2), w1)


# Search nodes (partial assignments each of whose squares agrees with some
# square of the collection on the edges assigned so far, complete ones
# included) one enumeration may visit.  Its cost grows exponentially with
# the domain's edges, which the vertex guard does not bound.  The largest
# count the test suite, ``verify --max-len 6`` on example_E.cg and the
# benchmark reach is 2,133 (degree baaa on a generated three-vertex
# collection); degree bbaaa on blue_cycle.cg takes 622, ``verify --max-len
# 6`` alone reaches 200, and the benchmark 23 on seed 1.
MAX_SEARCH_NODES = 10**6
# Vertices of the model graph one enumeration may search over.
MAX_ENUMERATION_VERTICES = 10**4


class _LimitReached(Exception):
    """Unwinds the enumeration search once it has found enough morphisms."""


def enumerate_morphisms(
    collection: CompleteCollection, w, limit: int | None = None, through: Path | None = None
) -> list[Morphism]:
    """Brute-force oracle: every compatible morphism of degree w, found by
    backtracking over colour/structure-preserving assignments on its model
    graph.

    Backtracks over domain edges in declaration order, trying ambient
    edges in declaration order; output order is deterministic.  Each
    square occurrence is checked against ``collection.squares`` at the
    level of each of its edges, on the edges assigned so far, so only
    branches without a result are cut, each as soon as none of the
    squares fits it; the search never reads the collection's boundary
    maps or the lift.  With a path ``through`` of the collection's graph it
    returns only the morphisms that path traverses, in the same order:
    the identity goes to its range and the domain edges along its colours
    to its own edges.  Exponential by design; guarded by
    MAX_ENUMERATION_VERTICES before the search and by MAX_SEARCH_NODES
    during it.  With a non-negative ``limit`` the search stops once it has
    found that many morphisms, and returns the first ``limit`` of the full
    list.
    """
    ops, g = collection.ops, collection.graph
    if too_many_vertices(ops, w, MAX_ENUMERATION_VERTICES):
        raise ResourceLimit(f"enumeration domain of more than {MAX_ENUMERATION_VERTICES} vertices")
    if through is not None and path_degree(ops, through) != w:
        return []
    starts = g.vertices if through is None else [through.range_]
    domain = model(ops, w)
    vertices, edge_keys = domain.vertices, domain.edges
    if not edge_keys:
        return [identity_morphism(ops, v) for v in starts][:limit]
    if limit == 0:
        return []
    # Domain vertices and edges are numbered in model order; images[i] is
    # the ambient vertex of vertices[i], names[i] the ambient edge of
    # edge_keys[i], and read_rows cuts a result's rows out of both.
    vertex_index = {z: i for i, z in enumerate(vertices)}
    edge_index = {k: i for i, k in enumerate(edge_keys)}
    read_rows = _rows_reader(ops.row_widths(w))
    # A square's edge names, red-first boundary then blue-first, the
    # fixture slot order.  Each occurrence is checked at the level of each
    # of its edges: the ones assigned so far must be those some square has
    # in the same slots, so a branch is cut as soon as no square can close
    # it.  A check is a reader of those slots of names and the set of what
    # the squares hold there; the same itemgetter reads both, so one slot
    # gives a name and several a tuple.
    known = [sq.red + sq.blue for sq in collection.squares]
    allowed: dict = {}
    closing: list = [[] for _ in edge_keys]
    for m in square_positions(ops, w):
        slots = [edge_index[(ops.mul(m, z), l)] for z, l in boundary_edges(ops)]
        order = sorted(range(len(slots)), key=slots.__getitem__)
        for n in range(1, len(order) + 1):
            kept = tuple(sorted(order[:n]))
            if kept not in allowed:
                allowed[kept] = set(map(itemgetter(*kept), known))
            read = itemgetter(*[slots[k] for k in kept])
            closing[slots[order[n - 1]]].append((read, allowed[kept]))
    # (name, source) of the ambient edges of each colour, by range vertex.
    # A domain edge along the pinned path gets the path's own edge only,
    # offered at every range: the identity's image (for the first edge) or
    # the path's edge before it, assigned earlier in model order, has
    # already put that range in place or cut the branch.
    candidates: dict = {l: {v: [] for v in g.vertices} for l in "ab"}
    for e in g.edges:
        candidates[e.colour][e.range_].append((e.name, e.source))
    choices = [candidates[l] for _, l in edge_keys]
    if through is not None:
        z = ops.identity
        for name, l in zip(through.edges, through.colours):
            choices[edge_index[(z, l)]] = dict.fromkeys(g.vertices, [(name, g.edge(name).source)])
            z = ops.step(z, l)
    # Per domain edge: its range, its source, whether an earlier edge (or
    # the identity) already fixed the source, its candidates by range and
    # the squares it closes.
    levels = []
    fixed = {vertex_index[ops.identity]}
    for (z, l), options, closes in zip(edge_keys, choices, closing):
        t = vertex_index[ops.step(z, l)]
        levels.append((vertex_index[z], t, t in fixed, options, closes))
        fixed.add(t)
    last = len(levels)
    images: list = [None] * len(vertices)
    names: list = [None] * last
    results: list[Morphism] = []
    nodes = 0

    def backtrack(i: int):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise ResourceLimit(
                f"enumeration of {ops.format(w)} passed {MAX_SEARCH_NODES} search nodes"
            )
        if i == last:
            results.append(Morphism(ops, w, *read_rows(images, names)))
            if len(results) == limit:
                raise _LimitReached
            return
        r, t, source_fixed, options, closes = levels[i]
        for name, source in options[images[r]]:
            if source_fixed and source != images[t]:
                continue
            names[i], images[t] = name, source
            for read, seen in closes:
                if read(names) not in seen:
                    break
            else:
                backtrack(i + 1)

    try:
        for v in starts:
            images[vertex_index[ops.identity]] = v
            backtrack(0)
    except _LimitReached:
        pass
    return results
