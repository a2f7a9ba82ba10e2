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
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cache
from operator import itemgetter

from bsgraph.errors import ColourMismatch, JunctionMismatch, NotAPrefix, NotComposable
from bsgraph.graphs import concat
from bsgraph.models import model, square_positions
from bsgraph.morphisms import (
    Morphism,
    _rows_reader,
    identity_morphism,
    lift_path,
    shortest_traversal,
)
from bsgraph.squares import Square, boundary_edges

ALPHABET = "ab"


def fold_pair(s: str) -> tuple[int, int]:
    """Fold a letter string to its (N, M) pair one letter at a time.

    Uses only the defining facts a = (1,0), b = (0,1) appended on the
    right, i.e. appending a doubles M, appending b adds one.
    """
    n = m = 0
    for ch in s:
        if ch == "a":
            n, m = n + 1, 2 * m
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


def brute_prefixes(pair: tuple[int, int]) -> set[tuple[int, int]]:
    """Left divisors of a pair, by peeling single letters off the right.

    z is a prefix of w iff w = z, or w ends (as a monoid element) in a
    letter whose removal leaves something z is a prefix of.  Removing a
    trailing b from (n, m) gives (n, m-1); removing a trailing a is only
    possible when m is even and gives (n-1, m/2).
    """
    seen = {pair}
    queue = deque([pair])
    while queue:
        n, m = queue.popleft()
        parents = []
        if m > 0:
            parents.append((n, m - 1))
        if n > 0 and m % 2 == 0:
            parents.append((n - 1, m // 2))
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
