"""Coloured-graph morphisms out of model graphs, and path lifting.

The central operation turns a path of the ambient graph into the unique
compatible morphism on the model graph of its degree.  A morphism is fixed
by any one of its traversals (unique factorization), so the path is first
rewritten, one square boundary at a time, to the longest traversal a^N b^M:
the model graph's column of red edges out of e and its row of blue edges
into w.  Each row above is then filled from the row below, one square at a
time, by reading the red-first boundary in the collection's index.  A
missing square raises ``NotCovered``; a result that does not traverse the
input (the collection pairs a boundary with two squares) raises
``Conflict``.

The shortest traversal is canonical.  ``normal_form`` computes it from any
other traversal by the same boundary rewriting, without building the
dense map.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import MappingProxyType

from .errors import Conflict, NotComposable, ResourceLimit
from .graphs import ColouredGraph, Path, path_degree
from .models import check_model_size, model, square_positions
from .squares import CompleteCollection, Square, square_edges


@dataclass(frozen=True, eq=False)
class Morphism:
    """Total colour/structure-preserving assignment on a model graph.

    vmap sends each domain vertex (a degree) to an ambient vertex name;
    emap sends each domain edge (degree, letter) to an ambient edge name.
    Both are stored as read-only views of private copies, so a morphism
    and its cached ``key()`` never change.  Morphisms compare by degree and
    both maps.
    """

    ops: object
    degree: object
    vmap: Mapping
    emap: Mapping

    def __post_init__(self):
        object.__setattr__(self, "vmap", MappingProxyType(dict(self.vmap)))
        object.__setattr__(self, "emap", MappingProxyType(dict(self.emap)))

    @property
    def range_(self) -> str:
        return self.vmap[self.ops.identity]

    @property
    def source(self) -> str:
        return self.vmap[self.degree]

    def key(self):
        """Canonical hashable identity, for memo tables and dedup."""
        cached = getattr(self, "_key", None)
        if cached is not None:
            return cached
        key = (
            self.ops.name,
            self.degree,
            tuple(sorted(self.vmap.items())),
            tuple(sorted(self.emap.items())),
        )
        object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Morphism)
            and self.ops.name == other.ops.name
            and self.degree == other.degree
            and self.vmap == other.vmap
            and self.emap == other.emap
        )

    def __hash__(self):
        return hash(self.key())

    def json_text(self, level: int = 0) -> str:
        """The morphism as an ``indent=2`` JSON object, written in one pass.

        The object holds the mode, the degree (word and pair), the vertex
        images sorted by prefix pair, and the edge images sorted by
        (prefix pair, letter).  Every line after the first is indented by
        ``level`` more steps of two spaces, so the text can sit as a value
        at that nesting depth of an enclosing ``indent=2`` document.  Names
        go through the same C string encoder ``json.dumps`` uses; prefix
        labels come from one ``ops.labels`` table.
        """
        ops = self.ops
        # Line break plus indentation at depth level, level + 1, ...
        i0 = "\n" + "  " * level
        i1, i2, i3, i4 = (i0 + "  " * k for k in range(1, 5))
        vertices = sorted(self.vmap.items())
        label = ops.labels([z for z, _ in vertices])
        quoted = {
            name: encode_basestring_ascii(name)
            for name in {*self.vmap.values(), *self.emap.values()}
        }
        vertex_items = f",{i2}".join([
            f'{{{i3}"prefix": "{label[z]}",{i3}"pair": [{i4}{z[0]},{i4}{z[1]}{i3}],'
            f'{i3}"vertex": {quoted[v]}{i2}}}'
            for z, v in vertices
        ])
        edge_items = f",{i2}".join([
            f'{{{i3}"prefix": "{label[z]}",{i3}"letter": "{l}",{i3}"edge": {quoted[e]}{i2}}}'
            for (z, l), e in sorted(self.emap.items())
        ])
        edges = f"[{i2}{edge_items}{i1}]" if edge_items else "[]"
        n, m = self.degree
        return (
            f'{{{i1}"mode": "{ops.name}",{i1}"degree": {{{i2}"word": "{label[self.degree]}",'
            f'{i2}"pair": [{i3}{n},{i3}{m}{i2}]{i1}}},'
            f'{i1}"vertices": [{i2}{vertex_items}{i1}],{i1}"edges": {edges}{i0}}}'
        )


def identity_morphism(ops, vertex: str) -> Morphism:
    return Morphism(ops, ops.identity, {ops.identity: vertex}, {})


def _rewrite(names, colours, collection: CompleteCollection, to_red: bool):
    """Rewrite an edge path one square boundary at a time until no factor
    has the colour word of the boundaries being replaced.

    With ``to_red`` each blue-first ``b a`` pair becomes the red-first
    boundary of its square, else each red-first boundary becomes the
    blue-first ``b a`` pair.  Letters wait on a stack, so a rewrite only
    looks again at its neighbours.  Returns the new (names, colours) lists,
    or None when no factor matches.  A missing square raises
    ``NotCovered``.
    """
    ops = collection.ops
    if to_red:
        pattern, word = ops.blue_first_word, ops.red_first_word
        table, lookup, side = collection.blue_to_red, collection.lookup_blue, Square.red_boundary
    else:
        pattern, word = ops.red_first_word, ops.blue_first_word
        table, lookup, side = collection.red_to_blue, collection.lookup_red, Square.blue_boundary
    width = len(pattern)
    # Everything before the first match is already rewritten.
    start = "".join(colours).find("".join(pattern))
    if start < 0:
        return None
    start += width - 1
    pattern = list(pattern)
    last = pattern[-1]
    word = word[::-1]
    out_names = list(names[:start])
    out_colours = list(colours[:start])
    # Edges still to place, next one last; a rewrite pushes its output here.
    todo = list(zip(reversed(names[start:]), reversed(colours[start:])))
    while todo:
        name, colour = todo.pop()
        out_names.append(name)
        out_colours.append(colour)
        if colour == last and out_colours[-width:] == pattern:
            boundary = tuple(out_names[-width:])
            other = table.get(boundary) or side(lookup(boundary))
            del out_names[-width:], out_colours[-width:]
            todo.extend(zip(reversed(other), word))
    return out_names, out_colours


def lift_path(g: ColouredGraph, collection: CompleteCollection, x: Path) -> Morphism:
    """The unique compatible morphism traversed by x.

    The path is rewritten to the morphism's longest traversal a^N b^M,
    which is the model graph's column of red edges out of e and its row of
    blue edges into w.  Every other row of the model graph is then filled
    from the row below it, one red-first index read per domain square.
    """
    ops = collection.ops
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
    n, m = w = reduce(ops.step, colours, ops.identity)
    check_model_size(ops, w)
    rewritten = _rewrite(x.edges, colours, collection, to_red=True)
    names = rewritten[0] if rewritten else x.edges
    # blue is the row of b(i, j); row i's square at j reads a(i, j) and
    # b(i+1, 2j), b(i+1, 2j+1) (BS) or b(i+1, j) (grid), and yields the
    # blue-first pair b(i, j), a(i, j+1).
    blue = names[n:]
    edge_of = g.edge
    vmap = dict(zip(zip(repeat(n), range(m)), [edge_of(b).range_ for b in blue]))
    vmap[w] = at
    emap = dict(zip(zip(vmap, repeat("b")), blue))
    to_blue, lookup = collection.red_to_blue, collection.lookup_red
    bs = ops.name == "bs"
    for i in range(n - 1, -1, -1):
        a = names[i]
        reds = [a]
        below, blue = blue, []
        for tail in zip(below[::2], below[1::2]) if bs else zip(below):
            boundary = (a, *tail)
            pair = to_blue.get(boundary) or lookup(boundary).blue_boundary()
            blue.append(pair[0])
            a = pair[1]
            reds.append(a)
        zs = list(zip(repeat(i), range(len(reds))))
        vmap.update(zip(zs, [edge_of(r).range_ for r in reds]))
        emap.update(zip(zip(zs, repeat("a")), reds))
        emap.update(zip(zip(zs, repeat("b")), blue))
    lam = Morphism(ops, w, vmap, emap)
    if not check_traverses(g, lam, x):
        raise Conflict(
            f"the lift of {x} does not traverse it; the collection cannot be "
            f"complete for this graph"
        )
    return lam


def normal_form(g: ColouredGraph, collection: CompleteCollection, x: Path) -> Path:
    """The shortest traversal of the morphism that x traverses.

    Rewrites one square at a time: in BS mode each red-first ``a b b``
    edge triple becomes its square's blue-first ``b a`` pair, in grid mode
    each blue-first ``b a`` pair becomes the red-first ``a b`` pair.  The
    rules do not overlap and each shortens the colour word or moves a red
    letter left, so every order of rewriting ends at the same normal form:
    the word with no ``a b b`` factor, resp. ``a^m b^n``.  A missing
    square raises ``NotCovered``.
    """
    ops = collection.ops
    to_red = ops.name != "bs"
    # Most paths of a sweep are normal already: no factor to rewrite.
    if "".join(ops.blue_first_word if to_red else ops.red_first_word) not in "".join(x.colours):
        return x
    names, colours = _rewrite(x.edges, x.colours, collection, to_red)
    return Path(tuple(names), x.range_, x.source, tuple(colours))


def check_traverses(g: ColouredGraph, lam: Morphism, x: Path) -> bool:
    """True iff degrees match and x reads off lam's edge images in order."""
    ops = lam.ops
    if path_degree(ops, x) != lam.degree:
        return False
    if not x.edges:
        return lam.vmap.get(ops.identity) == x.range_
    w = ops.identity
    for name in x.edges:
        colour = g.edge(name).colour
        if lam.emap.get((w, colour)) != name:
            return False
        w = ops.step(w, colour)
    return True


def _read_traversal(lam: Morphism, letters, start=None) -> Path:
    """The path lam's edge images spell along letters from the domain
    vertex start (the identity if None)."""
    ops = lam.ops
    emap, step = lam.emap, ops.step
    w = ops.identity if start is None else start
    range_ = lam.vmap[w]
    names = []
    for letter in letters:
        names.append(emap[(w, letter)])
        w = step(w, letter)
    return Path(tuple(names), range_, lam.vmap[w], tuple(letters))


def shortest_traversal(g: ColouredGraph, lam: Morphism) -> Path:
    return _read_traversal(lam, lam.ops.shortest_letters(lam.degree))


def longest_traversal(g: ColouredGraph, lam: Morphism) -> Path:
    return _read_traversal(lam, lam.ops.longest_letters(lam.degree))


def split_traversals(lam: Morphism, w1, w2) -> tuple[Path, Path]:
    """The shortest traversals of lam's degree-(w1, w2) factor pair, read
    straight off lam: from e along shortest(w1), then from w1 along
    shortest(w2).  The factors are lam on the prefixes of w1 and, shifted
    by w1, on the rest of its domain; this builds neither of them nor its
    model graph."""
    shortest = lam.ops.shortest_letters
    return _read_traversal(lam, shortest(w1)), _read_traversal(lam, shortest(w2), w1)


# Search nodes (partial assignments, complete ones included) one
# enumeration may visit.  Its cost grows exponentially with the domain's
# edges, which the vertex guard does not bound.  The largest count the
# test suite, ``verify --max-len 6`` on example_E.cg and the benchmark
# reach is 590,236 (degree a^3 b^8 over three red loops).
MAX_SEARCH_NODES = 10**6


class _LimitReached(Exception):
    """Unwinds the enumeration search once it has found enough morphisms."""


def enumerate_morphisms(
    g: ColouredGraph,
    collection: CompleteCollection,
    w,
    max_vertices: int = 10**4,
    limit: int | None = None,
) -> list[Morphism]:
    """Brute-force oracle: every total colour/structure-preserving
    assignment on the model graph of w, filtered to compatible ones.

    Backtracks over domain edges in declaration order, trying ambient
    edges in declaration order; output order is deterministic.  Squares
    are checked only on total assignments, so the search itself knows
    nothing of the collection.  Exponential by design;
    guarded by max_vertices before the search and by MAX_SEARCH_NODES
    during it.  With a non-negative ``limit`` the search stops once it has
    found that many morphisms, and returns the first ``limit`` of the full
    list.
    """
    ops = collection.ops
    if ops.prefix_count(w) > max_vertices:
        raise ResourceLimit(
            f"enumeration domain {ops.format(w)} exceeds {max_vertices} vertices"
        )
    domain = model(ops, w)
    vertices, edge_keys = domain.vertices, domain.edges
    if not edge_keys:
        return [identity_morphism(ops, v) for v in g.vertices][:limit]
    if limit == 0:
        return []
    # Domain vertices and edges are numbered; images[i] is the ambient
    # vertex of vertices[i], names[i] the ambient edge of edge_keys[i].
    vertex_index = {z: i for i, z in enumerate(vertices)}
    edge_index = {k: i for i, k in enumerate(edge_keys)}
    # A square's edge names in model-edge order; one reader per occurrence
    # picks that tuple out of names (a square has at least four edges, so
    # itemgetter returns a tuple).
    edges = square_edges(ops)
    known = {tuple([sq.emap[k] for k in edges]) for sq in collection.squares}
    square_readers = [
        itemgetter(*[edge_index[(ops.mul(m, z), l)] for z, l in edges])
        for m in square_positions(ops, w)
    ]
    # (name, source) of the ambient edges of each colour, by range vertex.
    candidates: dict = {l: {v: [] for v in g.vertices} for l in "ab"}
    for e in g.edges:
        candidates[e.colour][e.range_].append((e.name, e.source))
    # Per domain edge: its range, its source, whether an earlier edge (or
    # the identity) already fixed the source, and the candidates by range.
    levels = []
    fixed = {vertex_index[ops.identity]}
    for z, l in edge_keys:
        t = vertex_index[ops.step(z, l)]
        levels.append((vertex_index[z], t, t in fixed, candidates[l]))
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
            if all(read(names) in known for read in square_readers):
                results.append(Morphism(
                    ops, w, dict(zip(vertices, images)), dict(zip(edge_keys, names))
                ))
                if len(results) == limit:
                    raise _LimitReached
            return
        r, t, source_fixed, choices = levels[i]
        if source_fixed:
            target = images[t]
            for name, source in choices[images[r]]:
                if source == target:
                    names[i] = name
                    backtrack(i + 1)
        else:
            for name, source in choices[images[r]]:
                names[i] = name
                images[t] = source
                backtrack(i + 1)

    try:
        for v in g.vertices:
            images[vertex_index[ops.identity]] = v
            backtrack(0)
    except _LimitReached:
        pass
    return results
