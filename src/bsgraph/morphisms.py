"""Coloured-graph morphisms out of model graphs, and path lifting.

The central operation turns a path of the ambient graph into the unique
compatible morphism on the model graph of its degree.  It works by
constraint propagation: appending an edge extends the domain, and a
worklist completes every translated square whose one boundary is fully
assigned by looking the square up in the collection and copying the other
boundary.  Under a complete collection this reaches a total assignment;
a failed lookup or a contradictory assignment is surfaced as evidence
that the collection is not complete for the graph.

A morphism is also fixed by any one of its traversals, and its shortest
traversal is canonical.  ``normal_form`` computes that traversal from any
other one by boundary rewriting, without building the dense map.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .errors import (
    Conflict,
    NotAPrefix,
    NotComposable,
    PreconditionViolated,
    ResourceLimit,
)
from .graphs import ColouredGraph, Path, path_degree
from .models import check_model_size, model, square_positions
from .squares import CompleteCollection, Square, blue_keys, red_keys


@dataclass(frozen=True, eq=False)
class Morphism:
    """Total colour/structure-preserving assignment on a model graph.

    vmap sends each domain vertex (a degree) to an ambient vertex name;
    emap sends each domain edge (degree, letter) to an ambient edge name.
    Morphisms compare by degree and both maps.
    """

    ops: object
    degree: object
    vmap: dict
    emap: dict

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

    def to_json(self) -> dict:
        ops = self.ops
        return {
            "mode": ops.name,
            "degree": {"word": ops.format(self.degree), "pair": list(self.degree)},
            "vertices": [
                {"prefix": ops.format(z), "pair": list(z), "vertex": v}
                for z, v in sorted(self.vmap.items())
            ],
            "edges": [
                {"prefix": ops.format(z), "letter": l, "edge": e}
                for (z, l), e in sorted(self.emap.items())
            ],
        }

    def json_text(self, level: int = 0) -> str:
        """``json.dumps(self.to_json(), indent=2)``, written in one pass.

        Every line after the first is indented by ``level`` more steps of
        two spaces, so the text can sit as a value at that nesting depth
        of an enclosing ``indent=2`` document.  Names go through the same
        C string encoder ``json.dumps`` uses; prefix labels come from one
        ``ops.labels`` table; sort order is that of ``to_json``.
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


class _LiftState:
    """Mutable assignment with square-completion propagation."""

    def __init__(self, g: ColouredGraph, collection: CompleteCollection):
        self.g = g
        self.c = collection
        ops = self.ops = collection.ops
        self.vmap: dict = {}  # degree -> ambient vertex name
        self.emap: dict = {}  # (degree, letter) -> ambient edge name
        self.degree = ops.identity
        # Square positions already filled and checked; never revisited.
        self._done: set = set()
        self._red_keys = red_keys(ops)
        self._blue_keys = blue_keys(ops)
        self._unit = {l: ops.step(ops.identity, l) for l in "ab"}
        # (relative base, letter) pairs that can place an assigned edge
        # inside a square boundary, for worklist seeding.
        self._offsets = {
            l: [k for k in self._red_keys + self._blue_keys if k[1] == l] for l in "ab"
        }

    def set_vertex(self, z, vertex: str):
        old = self.vmap.setdefault(z, vertex)
        if old != vertex:
            raise Conflict(
                f"vertex {self.ops.format(z)} forced to both {old!r} and {vertex!r}"
            )

    def set_edge(self, z, letter: str, name: str, queue: list):
        key = (z, letter)
        old = self.emap.get(key)
        if old is not None:
            if old != name:
                raise Conflict(
                    f"edge ({self.ops.format(z)},{letter}) forced to "
                    f"both {old!r} and {name!r}"
                )
            return
        edge = self.g.edge(name)
        self.emap[key] = name
        self.set_vertex(z, edge.range_)
        self.set_vertex(self.ops.step(z, letter), edge.source)
        # Every square that uses this edge on a boundary may now be completable.
        left_factor = self.ops.left_factor
        done = self._done
        for rel, l in self._offsets[letter]:
            m = left_factor(z, rel)
            if m is not None and m not in done:
                queue.append(m)

    def append(self, name: str):
        """Extend the domain by one letter along the path and re-propagate."""
        ops = self.ops
        edge = self.g.edge(name)
        if self.vmap[self.degree] != edge.range_:
            raise NotComposable(
                None,
                f"edge {name!r} has range {edge.range_!r} but the path is at "
                f"{self.vmap[self.degree]!r}",
            )
        queue: list = []
        self.degree = ops.step(self.degree, edge.colour)
        self.set_edge(
            ops.left_factor(self.degree, self._unit[edge.colour]),
            edge.colour,
            name,
            queue,
        )
        self.propagate(queue)

    def propagate(self, queue: list):
        mul = self.ops.mul
        is_prefix = self.ops.is_prefix
        emap_get = self.emap.get
        done = self._done
        sq_degree = self.ops.square_degree
        degree = self.degree
        red_keys_ = self._red_keys
        blue_keys_ = self._blue_keys
        while queue:
            m = queue.pop()
            if m in done:
                continue
            if not is_prefix(mul(m, sq_degree), degree):
                continue
            red = [emap_get((mul(m, rel), l)) for rel, l in red_keys_]
            blue = [emap_get((mul(m, rel), l)) for rel, l in blue_keys_]
            if all(red) and not all(blue):
                self._fill(m, self.c.lookup_red(red), queue)
                done.add(m)
            elif all(blue) and not all(red):
                self._fill(m, self.c.lookup_blue(blue), queue)
                done.add(m)
            elif all(red) and all(blue):
                # Both sides known: the occurrence must be a collection square.
                sq = self.c.lookup_red(red)
                if list(sq.blue_boundary()) != blue:
                    raise Conflict(
                        f"square at {self.ops.format(m)} pairs {red} with {blue}, "
                        f"but the collection pairs it with "
                        f"{list(sq.blue_boundary())}"
                    )
                done.add(m)

    def _fill(self, m, square: Square, queue: list):
        mul = self.ops.mul
        emap = self.emap
        for (rel, letter), name in square.emap.items():
            z = mul(m, rel)
            old = emap.get((z, letter))
            if old is None:
                self.set_edge(z, letter, name, queue)
            elif old != name:
                raise Conflict(
                    f"edge ({self.ops.format(z)},{letter}) forced to "
                    f"both {old!r} and {name!r}"
                )

    def morphism(self) -> Morphism:
        return Morphism(self.ops, self.degree, self.vmap, self.emap)

    def assert_total(self):
        # Closed-form count first; build the model only to name the gaps.
        ops = self.ops
        if len(self.emap) == ops.edge_count(self.degree):
            return
        missing = [k for k in model(ops, self.degree).edges if k not in self.emap]
        pretty = [f"({ops.format(z)},{l})" for z, l in missing]
        raise Conflict(
            f"propagation left {len(missing)} domain edges unassigned "
            f"({', '.join(pretty[:5])}...); the collection cannot be "
            f"complete for this graph"
        )


def lift_path(g: ColouredGraph, collection: CompleteCollection, x: Path) -> Morphism:
    """The unique compatible morphism traversed by x."""
    ops = collection.ops
    if not x.edges:
        return identity_morphism(ops, x.range_)
    check_model_size(ops, path_degree(ops, x))
    state = _LiftState(g, collection)
    state.set_vertex(ops.identity, x.range_)
    for name in x.edges:
        state.append(name)
    state.assert_total()
    return state.morphism()


def normal_form(g: ColouredGraph, collection: CompleteCollection, x: Path) -> Path:
    """The shortest traversal of the morphism that x traverses.

    Rewrites one square at a time: in BS mode each red-first ``a b b``
    edge triple becomes its square's blue-first ``b a`` pair, in grid mode
    each blue-first ``b a`` pair becomes the red-first ``a b`` pair.  The
    rules do not overlap and each shortens the colour word or moves a red
    letter left, so every order of rewriting ends at the same normal form:
    the word with no ``a b b`` factor, resp. ``a^m b^n``.  Letters wait on
    a stack, so a rewrite only looks again at its neighbours.  A missing
    square raises ``NotCovered``.
    """
    ops = collection.ops
    if ops.name == "bs":
        pattern, lookup, keys = ops.red_first_word, collection.lookup_red, blue_keys(ops)
    else:
        pattern, lookup, keys = ops.blue_first_word, collection.lookup_blue, red_keys(ops)
    width = len(pattern)
    # Everything before the first match is already in normal form.
    start = "".join(x.colours).find("".join(pattern))
    if start < 0:
        return x
    start += width - 1
    pattern = list(pattern)
    names = list(x.edges[:start])
    colours = list(x.colours[:start])
    # Edges still to place, next one last; a rewrite pushes its output here.
    todo = list(zip(reversed(x.edges[start:]), reversed(x.colours[start:])))
    while todo:
        name, colour = todo.pop()
        names.append(name)
        colours.append(colour)
        if colour == pattern[-1] and colours[-width:] == pattern:
            emap = lookup(names[-width:]).emap
            del names[-width:], colours[-width:]
            todo.extend((emap[k], k[1]) for k in reversed(keys))
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


def _read_traversal(g: ColouredGraph, lam: Morphism, letters) -> Path:
    ops = lam.ops
    names = []
    colours = []
    w = ops.identity
    for letter in letters:
        names.append(lam.emap[(w, letter)])
        colours.append(letter)
        w = ops.step(w, letter)
    return Path(tuple(names), lam.range_, lam.source, tuple(colours))


def shortest_traversal(g: ColouredGraph, lam: Morphism) -> Path:
    return _read_traversal(g, lam, lam.ops.shortest_letters(lam.degree))


def longest_traversal(g: ColouredGraph, lam: Morphism) -> Path:
    return _read_traversal(g, lam, lam.ops.longest_letters(lam.degree))


def restrict(lam: Morphism, w1) -> Morphism:
    """lam on the model graph of a prefix w1, values unchanged."""
    ops = lam.ops
    if not ops.is_prefix(w1, lam.degree):
        raise NotAPrefix(f"{ops.format(w1)} is not a prefix of {ops.format(lam.degree)}")
    domain = model(ops, w1)
    return Morphism(
        ops,
        w1,
        {z: lam.vmap[z] for z in domain.vertices},
        {k: lam.emap[k] for k in domain.edges},
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
    return Morphism(
        ops,
        w,
        {z: lam.vmap[ops.mul(w1, z)] for z in domain.vertices},
        {(z, l): lam.emap[(ops.mul(w1, z), l)] for (z, l) in domain.edges},
    )


def occurrences(lam: Morphism) -> list[tuple]:
    """(base position, square edge map) of every translated square inside
    lam's domain; the edge map is keyed relative to the square's domain."""
    ops = lam.ops
    square_edges = model(ops, ops.square_degree).edges
    return [
        (m, {(z, l): lam.emap[(ops.mul(m, z), l)] for (z, l) in square_edges})
        for m in square_positions(ops, lam.degree)
    ]


def check_compatible(lam: Morphism, collection: CompleteCollection) -> bool:
    """True iff every occurring square belongs to the collection."""
    known = {frozenset(sq.emap.items()) for sq in collection.squares}
    return all(frozenset(emap.items()) in known for _, emap in occurrences(lam))


def rewrite_tail(g: ColouredGraph, lam: Morphism, z: Path) -> Path:
    """Replace a trailing blue,red edge pair of a traversal by the
    equal-degree red,blue,blue reading of the same square."""
    ops = lam.ops
    if ops.name != "bs":
        raise PreconditionViolated("rewrite_tail applies to BS-mode morphisms")
    if len(z.edges) < 2 or z.colours[-2:] != ("b", "a"):
        raise PreconditionViolated("path must end in a blue then a red edge")
    if not check_traverses(g, lam, z):
        raise PreconditionViolated("path does not traverse the morphism")
    base = ops.identity
    for colour in z.colours[:-2]:
        base = ops.step(base, colour)
    replacement = [lam.emap[(ops.mul(base, rel), l)] for rel, l in red_keys(ops)]
    names = z.edges[:-2] + tuple(replacement)
    colours = z.colours[:-2] + tuple(l for _, l in red_keys(ops))
    return Path(names, z.range_, z.source, colours)


# Search nodes (partial assignments, complete ones included) one
# enumeration may visit.  Its cost grows exponentially with the domain's
# edges, which the vertex guard does not bound.  The largest count the
# test suite, ``verify --max-len 6`` on example_E.cg and the benchmark
# reach is 590,236 (degree a^3 b^8 over three red loops).
MAX_SEARCH_NODES = 10**6


def enumerate_morphisms(
    g: ColouredGraph,
    collection: CompleteCollection,
    w,
    max_vertices: int = 10**4,
) -> list[Morphism]:
    """Brute-force oracle: every total colour/structure-preserving
    assignment on the model graph of w, filtered to compatible ones.

    Backtracks over domain edges in declaration order, trying ambient
    edges in declaration order; output order is deterministic.  Squares
    are checked only on total assignments, so the search itself knows
    nothing of the collection.  Exponential by design;
    guarded by max_vertices before the search and by MAX_SEARCH_NODES
    during it.
    """
    ops = collection.ops
    if ops.prefix_count(w) > max_vertices:
        raise ResourceLimit(
            f"enumeration domain {ops.format(w)} exceeds {max_vertices} vertices"
        )
    domain = model(ops, w)
    vertices, edge_keys = domain.vertices, domain.edges
    if not edge_keys:
        return [identity_morphism(ops, v) for v in g.vertices]
    # Domain vertices and edges are numbered; images[i] is the ambient
    # vertex of vertices[i], names[i] the ambient edge of edge_keys[i].
    vertex_index = {z: i for i, z in enumerate(vertices)}
    edge_index = {k: i for i, k in enumerate(edge_keys)}
    # A square's edge names in model-edge order; one reader per occurrence
    # picks that tuple out of names (a square has at least four edges, so
    # itemgetter returns a tuple).
    square_edges = model(ops, ops.square_degree).edges
    known = {tuple([sq.emap[k] for k in square_edges]) for sq in collection.squares}
    square_readers = [
        itemgetter(*[edge_index[(ops.mul(m, z), l)] for z, l in square_edges])
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

    for v in g.vertices:
        images[vertex_index[ops.identity]] = v
        backtrack(0)
    return results
