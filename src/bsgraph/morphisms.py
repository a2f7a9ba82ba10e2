"""Coloured-graph morphisms out of model graphs, and path lifting.

The central operation turns a path of the ambient graph into the unique
compatible morphism on the model graph of its degree.  A complete
collection fixes that morphism square by square (unique factorization), so
the lift grows the model graph's rows one path edge at a time and reads
every other domain square once from the collection's maps: from its
blue-first side, left of the path, as a red edge opens the next row, and
from its red-first side, right of it, as blue edges fill the row below.
A boundary in two squares raises ``Conflict`` before any square is read;
a missing square raises ``NotCovered``.  The morphism is stored as those
rows, in model order, and written out (JSON, DOT, ``key()``) by walking
them.

The shortest traversal is canonical.  ``normal_form`` computes it from any
other traversal by rewriting one square boundary at a time, without
building the dense map.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .errors import NotComposable, ResourceLimit
from .graphs import Frozen, Path, _set, path_degree, require_vertex
from .models import check_model_size, edge_count, square_positions, too_many_vertices
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
        """The text of ``json_parts(level)``, joined."""
        return "".join(self.json_parts(level))

    def json_parts(self, level: int = 0) -> list:
        """The morphism's ``indent=2`` JSON text, as a list of str parts.

        The object holds the mode, the degree (word and pair), and the
        vertex and edge images, each read off the rows in model order.
        Every line after the first is indented by ``level`` more steps of
        two spaces, so the text can sit as a value at that nesting depth of
        an enclosing ``indent=2`` document.  Prefix labels come from
        ``ops.label_rows``.  The text between one item's label and the next
        one's depends on the item's row, its column and its image only, so
        each image's part of it is written once per call, names escaped by
        the same C string encoder ``json.dumps`` uses, and each row is
        filled in by slices: labels, the row's pair head, column numbers
        and image tails.
        """
        ops, vrows, arows, brows = self.ops, self.vrows, self.arows, self.brows
        head, pair, vertex, red, blue, following, edges_open, no_edges, end = _json_pieces(level)
        label = ops.label_rows(self.degree)
        vertices, edges = sum(map(len, label)), edge_count(ops.row_widths(self.degree))
        # The head, four pieces per vertex item, then two per edge item:
        # the label of its base vertex, then its tail.
        parts = [None] * (1 + 4 * vertices + 2 * edges)
        parts[0] = head % (ops.name, label[-1][-1], *self.degree)
        columns = list(map(str, range(len(label[-1]))))
        vtails = _tails(vertex, vrows).__getitem__
        rtails, btails = _tails(red, arows).__getitem__, _tails(blue, brows).__getitem__
        o, e = 1, 1 + 4 * vertices
        for i, labels in enumerate(label):
            width = len(labels)
            stop = o + 4 * width
            parts[o:stop:4] = labels
            parts[o + 1 : stop : 4] = [pair % i] * width
            parts[o + 2 : stop : 4] = columns[:width]
            parts[o + 3 : stop : 4] = map(vtails, vrows[i])
            o = stop
            if arows[i]:
                # a(i, 0), b(i, 0), a(i, 1), ..., a(i, last)
                stop = e + 4 * width - 2
                parts[e:stop:4] = labels
                parts[e + 1 : stop : 4] = map(rtails, arows[i])
                parts[e + 2 : stop : 4] = labels[:-1]
                parts[e + 3 : stop : 4] = map(btails, brows[i])
            else:
                stop = e + 2 * width - 2
                parts[e:stop:2] = labels[:-1]
                parts[e + 1 : stop : 2] = map(btails, brows[i])
            e = stop
        # The last item of each list closes it instead of opening the next.
        parts[o - 1] = parts[o - 1][: -len(following)] + (edges_open if edges else no_edges)
        if edges:
            parts[-1] = parts[-1][: -len(following)] + end
        return parts


@cache
def _json_pieces(level: int) -> tuple:
    """The constant texts of ``Morphism.json_parts`` at nesting depth
    ``level``: the document head up to the first vertex label, a row's
    pair head, the vertex, red and blue item tails after the label (``%``
    templates, each ending with the text between two items up to the
    next one's label), that text alone, the texts that open the edge list
    or write it empty after the last vertex item, and the text that closes
    the edge list and the object."""
    i0 = "\n" + "  " * level
    i1, i2, i3, i4 = (i0 + "  " * k for k in range(1, 5))
    opening = "{" + i3 + '"prefix": "'
    following = "," + i2 + opening
    head = (
        "{" + i1 + '"mode": "%s",' + i1 + '"degree": {' + i2 + '"word": "%s",' + i2
        + '"pair": [' + i3 + "%d," + i3 + "%d" + i2 + "]" + i1 + "}," + i1
        + '"vertices": [' + i2 + opening
    )
    pair = '",' + i3 + '"pair": [' + i4 + "%d," + i4
    vertex = i3 + "]," + i3 + '"vertex": %s' + i2 + "}" + following
    red, blue = ('",' + i3 + '"letter": "' + l + '",' + i3 + '"edge": %s' + i2 + "}" + following
                 for l in "ab")
    edges_open = i1 + "]," + i1 + '"edges": [' + i2 + opening
    no_edges = i1 + "]," + i1 + '"edges": []' + i0 + "}"
    return head, pair, vertex, red, blue, following, edges_open, no_edges, i1 + "]" + i0 + "}"


def _tails(template: str, rows) -> dict:
    """Each ambient name in rows -> template filled with the name as a
    JSON string."""
    names = dict.fromkeys(chain.from_iterable(rows))
    return dict(zip(names, map(template.__mod__, map(encode_basestring_ascii, names))))


def identity_morphism(ops, vertex: str) -> Morphism:
    return Morphism(ops, ops.identity, ((vertex,),), ((),), ((),))


def lift_path(collection: CompleteCollection, x: Path) -> Morphism:
    """The unique compatible morphism traversed by x, built as the paper's
    induction builds it: the lift of y·f is the lift of y extended by f.

    The model graph's rows grow with the path, one edge at a time.  A red
    edge a(N, d) opens row N + 1: each square of row N is read right to
    left from its blue-first side.  A blue edge extends row N, and each
    row above whose row below has just completed k more blue edges, where
    (1, k) is the square degree, gains one square, read from its red-first
    side.  So a lift that fails raises what its shortest failing prefix
    raises.  The same loop checks that x is a path of the graph: its
    vertices, junctions and colour word.  No boundary is in two squares
    (``require_unique``), so both sides of a square name that one square.
    """
    collection.require_unique()
    ops, g, names = collection.ops, collection.graph, x.edges
    if len(x.colours) != len(names):
        raise NotComposable(None, f"colour word {x.colours!r} for {len(names)} edges")
    w = path_degree(ops, x)
    check_model_size(ops, w)
    at = require_vertex(g, x.range_)
    to_red, to_blue, k = collection._blue_to_red, collection._red_to_blue, ops.square_degree[1]
    # Row i's red and blue edges so far; row N, the last, has no red ones.
    arows, brows = [], [[]]
    for name, letter in zip(names, x.colours):
        edge = g.edge(name)
        if edge.range_ != at or edge.colour != letter:
            raise NotComposable(None, f"edge {name!r} is not of colour {letter} with range {at!r}")
        at = edge.source
        if letter == "a":
            a, reds, below = name, [name], []
            for b in reversed(brows[-1]):
                pair = (b, a)
                red = to_red.get(pair) or not_covered("blue-first", pair)
                a = red[0]
                reds.append(a)
                below += red[:0:-1]  # row N + 1's blue edges, right to left
            reds.reverse()
            arows.append(reds)
            brows.append(below[::-1])
            continue
        brows[-1].append(name)
        # Row i's next square reads a(i, j) and b(i+1, kj) .. b(i+1, kj+k-1),
        # and yields b(i, j) and a(i, j+1).
        i = len(arows) - 1
        while i >= 0 and len(brows[i + 1]) == k * len(arows[i]):
            boundary = (arows[i][-1], *brows[i + 1][-k:])
            b, a = to_blue.get(boundary) or not_covered("red-first", boundary)
            brows[i].append(b)
            arows[i].append(a)
            i -= 1
    if at != x.source:
        raise NotComposable(None, f"the path ends at {at!r}, not at its source {x.source!r}")
    range_of = g.range_of.__getitem__
    vrows = [*(map(range_of, reds) for reds in arows), (*map(range_of, brows[-1]), at)]
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
        return blue, red, "_blue_to_red", "blue-first"
    return red, blue, "_red_to_blue", "red-first"


def normal_form(collection: CompleteCollection, x: Path) -> Path:
    """The shortest traversal of the morphism that x traverses.

    Rewrites one square at a time toward the boundary that spells the
    square degree's shortest word: in BS mode each red-first ``a b b``
    edge triple becomes its square's blue-first ``b a`` pair, in grid mode
    each blue-first ``b a`` pair becomes the red-first ``a b`` pair.  The
    rules do not overlap and each shortens the colour word or moves a red
    letter left, so every order of rewriting ends at the same normal form:
    the word with no ``a b b`` factor, resp. ``a^m b^n``.  Each step
    rewrites the leftmost match in place, the square's other boundary into
    the edges and its word into the colours.  A boundary in two squares
    raises ``Conflict`` (``require_unique``) before any square is read, as
    in ``lift_path``; a missing square raises ``NotCovered``.
    """
    collection.require_unique()
    pattern, word, table, kind = _rule(collection.ops)
    table, width = getattr(collection, table), len(pattern)
    colours, names, start = x.colours, list(x.edges), 0
    while (start := colours.find(pattern, start)) >= 0:
        end = start + width
        boundary = tuple(names[start:end])
        names[start:end] = table.get(boundary) or not_covered(kind, boundary)
        colours = colours[:start] + word + colours[end:]
        # A new match overlaps the replacement: nothing left of it changed.
        start = max(start - width + 1, 0)
    return Path(tuple(names), x.range_, x.source, colours)


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
    return Path(tuple(names), range_, lam.vrows[w[0]][w[1]], letters)


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


def factors(lam: Morphism, w1) -> tuple[Morphism, Morphism]:
    """lam's degree-(w1, w2) factor pair, where w1 w2 is lam's degree, cut
    out of lam's rows: by unique factorization the left factor is lam on
    the prefixes of w1 and the right one lam on w1 times the prefixes of
    w2.  So row i of the left factor is lam's row i cut to w1's row
    width, and row i of the right one is lam's row N1 + i from column
    M1 k^i on, (N1, M1) = w1.  Raises ``NotAPrefix`` unless w1 is a prefix
    of lam's degree."""
    ops = lam.ops
    w2 = ops.quotient(w1, lam.degree)
    (n1, m1), shift = w1, ops.shift
    return _cut(lam, w1, 0, repeat(0)), _cut(lam, w2, n1, (m1 << shift * i for i in count()))


def _cut(lam: Morphism, w, top: int, starts) -> Morphism:
    """The morphism of degree w whose row i is lam's row top + i from
    column ``starts``'s i-th item on."""
    spans = [(s, s + width) for s, width in zip(starts, lam.ops.row_widths(w))]
    vrows, arows, brows = (rows[top:] for rows in (lam.vrows, lam.arows, lam.brows))
    return Morphism(
        lam.ops,
        w,
        [row[s:e] for row, (s, e) in zip(vrows, spans)],
        [*(row[s:e] for row, (s, e) in zip(arows, spans[:-1])), ()],
        [row[s : e - 1] for row, (s, e) in zip(brows, spans)],
    )


def _numbered_edges(ops, widths) -> tuple:
    """The edges of the model graph with rows of these widths, numbered in
    model order as ``_rows_reader`` cuts them, with no prefix pair built.

    Vertex (i, j) is number W_0 + ... + W_(i-1) + j.  Below row N, row i's
    edges run a(i, 0), b(i, 0), a(i, 1), ..., a(i, last); row N has only
    its blue ones.  Returns the list of each edge's (range number, letter,
    source number), and the function that numbers the edge ((i, j), l)."""
    k, last = 1 << ops.shift, len(widths) - 1
    edges, firsts, v = [], [], 0
    for i, width in enumerate(widths):
        firsts.append(len(edges))
        if i < last:
            for j in range(v, v + width - 1):
                edges += ((j, "a", v + width + k * (j - v)), (j, "b", j + 1))
            edges.append((v + width - 1, "a", v + width + k * (width - 1)))
        else:
            edges += [(j, "b", j + 1) for j in range(v, v + width - 1)]
        v += width

    def number(i: int, j: int, letter: str) -> int:
        if i < last:
            return firsts[i] + 2 * j + (letter == "b")
        return firsts[i] + j

    return edges, number


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


def _too_many_nodes(ops, w) -> ResourceLimit:
    return ResourceLimit(f"enumeration of {ops.format(w)} passed {MAX_SEARCH_NODES} search nodes")


def enumerate_morphisms(
    collection: CompleteCollection, w, limit: int | None = None, through: Path | None = None
) -> list[Morphism]:
    """Brute-force oracle: every compatible morphism of degree w, found by
    backtracking over colour/structure-preserving assignments on its model
    graph.

    Backtracks over domain edges in declaration order, trying ambient
    edges in declaration order; output order is deterministic.  The search
    keeps its own stack, one level per domain edge, so its depth is not
    bounded by Python's recursion limit.  Each square occurrence is
    checked against ``collection.squares`` at the level of each of its
    edges, on the edges assigned so far, so only branches without a
    result are cut, each as soon as none of the squares fits it; the
    search never reads the collection's boundary maps or the lift.  With
    a path ``through`` of the collection's graph it returns only the
    morphisms that path traverses, in the same order: the identity goes
    to its range and the domain edges along its colours to its own edges;
    a ``through`` that is not a path of the graph finds none.
    Exponential by design; guarded by MAX_ENUMERATION_VERTICES before the
    search and by MAX_SEARCH_NODES during it.  With a non-negative
    ``limit`` the search stops once it has found that many morphisms, and
    returns the first ``limit`` of the full list.
    """
    ops, g = collection.ops, collection.graph
    if too_many_vertices(ops, w, MAX_ENUMERATION_VERTICES):
        raise ResourceLimit(f"enumeration domain of more than {MAX_ENUMERATION_VERTICES} vertices")
    if through is not None and path_degree(ops, through) != w:
        return []
    starts = g.vertices if through is None else [through.range_]
    widths = ops.row_widths(w)
    edges, number = _numbered_edges(ops, widths)
    if not edges:
        return [identity_morphism(ops, v) for v in starts][:limit]
    if limit == 0:
        return []
    # Domain vertices and edges are numbered in model order (``edges``):
    # images[v] is the ambient vertex of vertex v, names[e] the ambient
    # edge of edge e, and read_rows cuts a result's rows out of both.
    read_rows = _rows_reader(widths)
    # A square's edge names, red-first boundary then blue-first, the
    # fixture slot order.  Each occurrence is checked at the level of each
    # of its edges: the ones assigned so far must be those some square has
    # in the same slots, so a branch is cut as soon as no square can close
    # it.  A check is a reader of those slots of names and the set of what
    # the squares hold there; the same itemgetter reads both, so one slot
    # gives a name and several a tuple.
    known = [sq.red + sq.blue for sq in collection.squares]
    allowed: dict = {}
    closing: list = [[] for _ in edges]
    square = boundary_edges(ops)
    for m in square_positions(ops, w):
        slots = [number(*ops.mul(m, z), l) for z, l in square]
        order = sorted(range(len(slots)), key=slots.__getitem__)
        for n in range(1, len(order) + 1):
            kept = tuple(sorted(order[:n]))
            if kept not in allowed:
                allowed[kept] = set(map(itemgetter(*kept), known))
            read = itemgetter(*[slots[k] for k in kept])
            closing[slots[order[n - 1]]].append((read, allowed[kept]))
    # (name, source) of the ambient edges of each colour, by range vertex.
    # A domain edge along the pinned path gets the path's own edge only, at
    # that edge's range in the graph and only if their colours agree.
    candidates: dict = {l: {v: [] for v in g.vertices} for l in "ab"}
    for e in g.edges:
        candidates[e.colour][e.range_].append((e.name, e.source))
    choices = [candidates[l] for _, l, _ in edges]
    if through is not None:
        z = ops.identity
        for name, l in zip(through.edges, through.colours):
            e = g.edge(name)
            pinned = {e.range_: [(name, e.source)]} if e.colour == l else {}
            choices[number(*z, l)] = dict.fromkeys(g.vertices, ()) | pinned
            z = ops.step(z, l)
    # Per domain edge: its range and its candidates by range (picks); its
    # source, whether an earlier edge (or the identity, vertex 0) already
    # fixed the source, and the squares it closes (checks).
    picks, checks = [], []
    fixed = {0}
    for (r, _, t), options, closes in zip(edges, choices, closing):
        picks.append((r, options))
        checks.append((t, t in fixed, closes))
        fixed.add(t)
    last = len(picks)
    images: list = [None] * sum(widths)
    names: list = [None] * last
    results: list[Morphism] = []
    nodes = 0
    # Per level of the current branch, its candidates not tried yet.
    untried: list = [None] * last
    for v in starts:
        images[0] = v
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise _too_many_nodes(ops, w)
        i = 0
        untried[0] = iter(picks[0][1][v])  # edge 0 leaves the identity
        while i >= 0:
            t, source_fixed, closes = checks[i]
            for name, source in untried[i]:
                if source_fixed and source != images[t]:
                    continue
                names[i], images[t] = name, source
                for read, seen in closes:
                    if read(names) not in seen:
                        break
                else:
                    # A new node: one level down, or a result.
                    nodes += 1
                    if nodes > MAX_SEARCH_NODES:
                        raise _too_many_nodes(ops, w)
                    if i + 1 < last:
                        i += 1
                        r, options = picks[i]
                        untried[i] = iter(options[images[r]])
                        break
                    results.append(Morphism(ops, w, *read_rows(images, names)))
                    if len(results) == limit:
                        return results
            else:
                i -= 1
    return results
