"""The one-edge lift against the engines it replaced.

``_WorklistLift`` is the earliest engine, kept here as a reference: it
appends the path one edge at a time and completes every translated square
whose one boundary is fully assigned, from either side, until nothing
changes.  ``oracles.lift_path_two_pass`` is the one before the fold: a
walk over the path, then the squares left of it read top down and those
right of it bottom up.  Each must give the same morphism on every path of
a complete collection; the two-pass lift must also fail on the same paths
of an incomplete one.  The fold fails as its shortest failing prefix
does, and refuses a ``Path`` that is not a path of the graph.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgraph.category import all_paths
from bsgraph.errors import Conflict, NotComposable, NotCovered, UnknownVertex
from bsgraph.fixtures import load_fixture, parse_fixture
from bsgraph.graphs import Path, path_degree, validate_path, vertex_path
from bsgraph.models import check_model_size
from bsgraph.morphisms import Morphism, check_traverses, enumerate_morphisms, lift_path
from bsgraph.squares import CompleteCollection

from .conftest import FIXTURE_DIR
from .oracles import (
    blue_keys,
    from_maps,
    lift_path_two_pass,
    maps,
    model,
    red_keys,
    square_map,
)

from .test_normal_form import generated_paths


def left_factor(ops, w, suffix):
    """The m with m * suffix = w, or None if no such element exists."""
    n, rest = w[0] - suffix[0], w[1] - suffix[1]
    if n < 0 or rest < 0:
        return None
    if ops.name == "grid":
        return (n, rest)
    # BS: m * suffix = (m0 + s0, m1 * 2^s0 + s1).
    if rest & ((1 << suffix[0]) - 1):
        return None
    return (n, rest >> suffix[0])


class _WorklistLift:
    """Mutable assignment with square-completion propagation."""

    def __init__(self, collection):
        self.g = collection.graph
        ops = self.ops = collection.ops
        # Boundary -> the first square with it, built here from the squares
        # so that the reference shares no index with the lift it checks.
        self._squares: dict = {"red-first": {}, "blue-first": {}}
        for sq in collection.squares:
            self._squares["red-first"].setdefault(sq.red, sq)
            self._squares["blue-first"].setdefault(sq.blue, sq)
        self.vmap: dict = {}
        self.emap: dict = {}
        self.degree = ops.identity
        self._done: set = set()
        self._red_keys = red_keys(ops)
        self._blue_keys = blue_keys(ops)
        self._unit = {l: ops.step(ops.identity, l) for l in "ab"}
        # (relative base, letter) pairs that can place an assigned edge
        # inside a square boundary, for worklist seeding.
        self._offsets = {
            l: [k for k in self._red_keys + self._blue_keys if k[1] == l] for l in "ab"
        }

    def set_vertex(self, z, vertex):
        old = self.vmap.setdefault(z, vertex)
        if old != vertex:
            raise Conflict(f"vertex {self.ops.format(z)} forced to both {old!r} and {vertex!r}")

    def set_edge(self, z, letter, name, queue):
        old = self.emap.get((z, letter))
        if old is not None:
            if old != name:
                raise Conflict(f"edge ({self.ops.format(z)},{letter}) forced to two edges")
            return
        edge = self.g.edge(name)
        self.emap[(z, letter)] = name
        self.set_vertex(z, edge.range_)
        self.set_vertex(self.ops.step(z, letter), edge.source)
        for rel, _ in self._offsets[letter]:
            m = left_factor(self.ops, z, rel)
            if m is not None and m not in self._done:
                queue.append(m)

    def append(self, name):
        ops = self.ops
        edge = self.g.edge(name)
        if self.vmap[self.degree] != edge.range_:
            raise NotComposable(None, f"edge {name!r} does not meet the path")
        queue: list = []
        self.degree = ops.step(self.degree, edge.colour)
        z = left_factor(ops, self.degree, self._unit[edge.colour])
        self.set_edge(z, edge.colour, name, queue)
        self.propagate(queue)

    def propagate(self, queue):
        ops = self.ops
        while queue:
            m = queue.pop()
            if m in self._done or not ops.is_prefix(ops.mul(m, ops.square_degree), self.degree):
                continue
            red = [self.emap.get((ops.mul(m, rel), l)) for rel, l in self._red_keys]
            blue = [self.emap.get((ops.mul(m, rel), l)) for rel, l in self._blue_keys]
            if all(red) and not all(blue):
                self._fill(m, self.square("red-first", red), queue)
            elif all(blue) and not all(red):
                self._fill(m, self.square("blue-first", blue), queue)
            elif all(red) and all(blue):
                if list(self.square("red-first", red).blue) != blue:
                    raise Conflict(f"square at {ops.format(m)} is not in the collection")
            else:
                continue
            self._done.add(m)

    def square(self, kind, boundary):
        """The square with this red-first or blue-first boundary."""
        boundary = tuple(boundary)
        sq = self._squares[kind].get(boundary)
        if sq is None:
            raise NotCovered(boundary, f"no square with {kind} boundary {' '.join(boundary)}")
        return sq

    def _fill(self, m, square, queue):
        for (rel, letter), name in square_map(self.ops, square).items():
            z = self.ops.mul(m, rel)
            old = self.emap.get((z, letter))
            if old is None:
                self.set_edge(z, letter, name, queue)
            elif old != name:
                raise Conflict(f"edge ({self.ops.format(z)},{letter}) forced to two edges")


def worklist_maps(collection, x) -> tuple:
    """The degree, vertex dict and edge dict the worklist lift assigns."""
    ops = collection.ops
    if not x.edges:
        return ops.identity, {ops.identity: x.range_}, {}
    check_model_size(ops, path_degree(ops, x))
    state = _WorklistLift(collection)
    state.set_vertex(ops.identity, x.range_)
    for name in x.edges:
        state.append(name)
    if len(state.emap) != len(model(ops, state.degree).edges):
        raise Conflict("propagation left domain edges unassigned")
    return state.degree, state.vmap, state.emap


def worklist_lift(collection, x) -> Morphism:
    return from_maps(collection.ops, *worklist_maps(collection, x))


def _agree(ctx: CompleteCollection, paths) -> None:
    for x in paths:
        assert lift_path(ctx, x) == worklist_lift(ctx, x), str(x)


def _maps_agree(ctx: CompleteCollection, paths) -> None:
    """The row lift's maps equal the worklist lift's dicts, and its rows
    and ``key()`` list their images in the model graph's order."""
    for x in paths:
        lam = lift_path(ctx, x)
        degree, vmap, emap = worklist_maps(ctx, x)
        domain = model(ctx.ops, degree)
        assert lam.degree == degree
        assert maps(lam) == (vmap, emap), str(x)
        assert [v for row in lam.vrows for v in row] == [vmap[z] for z in domain.vertices]
        assert lam.key()[2:] == (
            tuple(vmap[z] for z in domain.vertices),
            tuple(emap[k] for k in domain.edges),
        )


def _walks(g, rng, lengths, count: int) -> list:
    """count seeded random walks in g, of lengths drawn from lengths."""
    out_of = {v: [e for e in g.edges if e.range_ == v] for v in g.vertices}
    paths = []
    for _ in range(count):
        at, names = rng.choice(g.vertices), []
        for _ in range(rng.choice(lengths)):
            edge = rng.choice(out_of[at])
            names.append(edge.name)
            at = edge.source
        paths.append(validate_path(g, names))
    return paths


@pytest.mark.parametrize("name, max_len", [("ctx", 8), ("grid_ctx", 9)])
def test_lift_matches_worklist_on_fixtures(name, max_len, request):
    ctx = request.getfixturevalue(name)
    _agree(ctx, all_paths(ctx.graph, max_len))


@pytest.mark.parametrize(
    "name, lengths", [("ctx", range(9, 15)), ("grid_ctx", range(20, 61))], ids=["E", "grid"]
)
def test_lift_matches_worklist_on_long_walks(name, lengths, request):
    ctx = request.getfixturevalue(name)
    _agree(ctx, _walks(ctx.graph, random.Random(name), lengths, 60))


def test_lift_on_blue_cycle_matches_worklist_and_enumeration(fixture_dir):
    """blue_cycle.cg has blue edges between its two vertices, so no square's
    blue half is forced by a loop."""
    ctx = load_fixture(fixture_dir / "blue_cycle.cg")
    paths = [x for x in all_paths(ctx.graph, 5) if x.edges]
    assert len(paths) == 726
    _agree(ctx, paths)
    found: dict = {}
    for x in paths:
        if len(x) <= 4:
            w = path_degree(ctx.ops, x)
            if w not in found:
                found[w] = enumerate_morphisms(ctx, w)
            matches = [m for m in found[w] if check_traverses(m, x)]
            assert matches == [lift_path(ctx, x)], str(x)


@settings(max_examples=60, deadline=None)
@given(generated_paths(8))
def test_lift_matches_worklist_on_one_vertex_collections(drawn):
    ctx, paths = drawn
    _agree(ctx, paths)


@st.composite
def multi_vertex_paths(draw):
    """Two or three vertices with a blue loop b<v> at each, parallel red
    edges between them, and per (range, source) pair a random permutation
    pairing each red-first boundary r b b (grid: r b) with a blue-first
    b r'; plus random walks in that graph."""
    mode = draw(st.sampled_from(["bs", "grid"]))
    colours = {"a": "a", "b": "b"} if mode == "bs" else {"a": "1", "b": "2"}
    vertices = [f"v{i}" for i in range(draw(st.integers(2, 3)))]
    lines = [f"mode {mode}"] + [f"vertex {v}" for v in vertices]
    lines += [f"edge b{v} {colours['b']} {v} {v}" for v in vertices]
    for u in vertices:
        for v in vertices:
            reds = [f"r{u}{v}_{k}" for k in range(draw(st.integers(0, 2)))]
            lines += [f"edge {r} {colours['a']} {u} {v}" for r in reds]
            for r, s in zip(reds, draw(st.permutations(reds))):
                if mode == "bs":
                    lines.append(f"square s{r} eA={r} aB=b{v} abB=b{v} eB=b{u} bA={s}")
                else:
                    lines.append(f"square s{r} v1={r} e1v2=b{v} v2=b{u} e2v1={s}")
    ctx = parse_fixture("\n".join(lines) + "\n")
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from(vertices))
        names = []
        for _ in range(draw(st.integers(1, 14))):
            out = [e for e in ctx.graph.edges if e.range_ == at]
            edge = draw(st.sampled_from(out))
            names.append(edge.name)
            at = edge.source
        paths.append(validate_path(ctx.graph, names))
    return ctx, paths


@settings(max_examples=60, deadline=None)
@given(multi_vertex_paths())
def test_lift_matches_worklist_on_multi_vertex_collections(drawn):
    ctx, paths = drawn
    _agree(ctx, paths)


@settings(max_examples=60, deadline=None)
@given(st.one_of(generated_paths(8), multi_vertex_paths()))
def test_row_maps_match_worklist_dicts_in_model_order(drawn):
    ctx, paths = drawn
    g = ctx.graph
    _maps_agree(ctx, paths + [vertex_path(g, v) for v in g.vertices[:1]])


# Both squares have the red-first boundary r1 b b, and no square has r2 b b.
DUPLICATED_RED = (
    "mode bs\nvertex x\nedge b b x x\nedge r1 a x x\nedge r2 a x x\n"
    "square S' eA=r1 aB=b abB=b eB=b bA=r2\n"
    "square S eA=r1 aB=b abB=b eB=b bA=r1\n"
)


def test_duplicated_red_boundary_is_a_conflict():
    # S' comes first, so it owns r1 b b in the maps, while b r1 belongs to
    # S alone.
    coll = parse_fixture(DUPLICATED_RED)
    x = validate_path(coll.graph, ["b", "r1"])
    # The worklist lift completes the square from its blue-first side.
    s = next(sq for sq in coll.squares if sq.name == "S")
    assert maps(worklist_lift(coll, x))[1] == square_map(coll.ops, s)
    # The lift refuses the collection before it reads any square: on b b r1
    # too, whose square r2 b b is missing.
    for names in (["b", "r1"], ["b", "b", "r1"]):
        with pytest.raises(Conflict) as exc:
            lift_path(coll, validate_path(coll.graph, names))
        assert str(exc.value) == (
            "the red-first boundary r1 b b belongs to more than one square; "
            "the collection cannot be complete for this graph"
        )


@pytest.mark.parametrize(
    "names, message",
    [
        # The square left of h is read from phi2's blue side as h opens row 1.
        (["k", "h"], "no square with blue-first boundary k h"),
        # The square right of h is read from phi2's red side once g g fill row 1.
        (["h", "g", "g"], "no square with red-first boundary h g g"),
    ],
)
def test_lift_names_the_missing_boundary(incomplete_fixture, names, message):
    coll = incomplete_fixture
    with pytest.raises(NotCovered) as exc:
        lift_path(coll, validate_path(coll.graph, names))
    assert str(exc.value) == message


# ------------------------------------------------- the two-pass lift it replaced

COMPLETE = [("example_E.cg", 7), ("blue_cycle.cg", 7), ("grid_single_vertex.cg", 9)]


def _lift_or_missing(lift, ctx, x):
    """lift(ctx, x), or None if a square is missing."""
    try:
        return lift(ctx, x)
    except NotCovered:
        return None


def _same_as_two_pass(ctx, paths) -> int:
    """Checks the fold against the two-pass lift on each path: the same
    morphism, or both fail for a missing square; returns how many fail."""
    failed = 0
    for x in paths:
        got = _lift_or_missing(lift_path, ctx, x)
        assert got == _lift_or_missing(lift_path_two_pass, ctx, x), str(x)
        failed += got is None
    return failed


@pytest.mark.parametrize("name, max_len", COMPLETE, ids=lambda v: str(v).split(".")[0])
def test_lift_matches_two_pass_on_fixtures(name, max_len):
    ctx = load_fixture(FIXTURE_DIR / name)
    assert _same_as_two_pass(ctx, all_paths(ctx.graph, max_len)) == 0


@settings(max_examples=60, deadline=None)
@given(st.one_of(generated_paths(8), multi_vertex_paths()))
def test_lift_matches_two_pass_on_generated_collections(drawn):
    ctx, paths = drawn
    assert _same_as_two_pass(ctx, paths) == 0


def test_lift_matches_two_pass_on_long_walks(ctx, grid_ctx):
    """A 200-edge grid walk, where every blue edge climbs to row 0, and a
    16-edge walk on the BS example, whose model graph is deep."""
    walks = [(grid_ctx, _walks(grid_ctx.graph, random.Random(0), [200], 1)[0])]
    walks.append((ctx, _walks(ctx.graph, random.Random(1), [16], 1)[0]))
    for coll, x in walks:
        lam = lift_path(coll, x)
        assert lam == lift_path_two_pass(coll, x)
        assert check_traverses(lam, x)


@pytest.mark.parametrize("name, max_len", COMPLETE, ids=lambda v: str(v).split(".")[0])
def test_lift_fails_where_two_pass_does_without_a_square(name, max_len):
    """Without any one square of a complete fixture, the fold and the
    two-pass lift fail on the same paths, and agree on the others."""
    ctx = load_fixture(FIXTURE_DIR / name)
    paths = all_paths(ctx.graph, max_len - 2)
    for dropped in ctx.squares:
        kept = [sq for sq in ctx.squares if sq is not dropped]
        assert _same_as_two_pass(CompleteCollection(ctx.graph, ctx.ops, kept), paths) > 0


# ------------------------------------------------------- what the fold changed


def _missing(ctx, x):
    """The boundary and message of the ``NotCovered`` lifting x raises,
    or None if it lifts."""
    try:
        lift_path(ctx, x)
    except NotCovered as exc:
        return exc.boundary, str(exc)
    return None


def test_a_failed_lift_fails_as_its_shortest_failing_prefix(incomplete_fixture):
    """The fold reads squares as the path grows, so lifting x stops at the
    square its shortest failing prefix misses.  Two passes did not: the
    top-down pass for a later red edge could miss a square first."""
    coll = incomplete_fixture
    failed = 0
    for x in all_paths(coll.graph, 7):
        got = _missing(coll, x)
        if got is None:
            continue
        failed += 1
        prefixes = (validate_path(coll.graph, x.edges[:n]) for n in range(1, len(x) + 1))
        assert got == next(m for y in prefixes if (m := _missing(coll, y))), str(x)
    assert failed == 426
    x = validate_path(coll.graph, "h g g f h".split())
    assert _missing(coll, x) == (("h", "g", "g"), "no square with red-first boundary h g g")


@pytest.mark.parametrize(
    "x, error, message",
    [
        (Path((), "zzz", "zzz", ""), UnknownVertex, "unknown vertex 'zzz'"),
        (Path((), "u", "v", ""), NotComposable, "the path ends at 'u', not at its source 'v'"),
        (Path(("g", "g"), "u", "zzz", "bb"), NotComposable,
         "the path ends at 'u', not at its source 'zzz'"),
        (Path(("h", "k"), "u", "v", "ab"), NotComposable,
         "edge 'h' is not of colour a with range 'u'"),
        (Path(("f", "k", "k"), "u", "v", "bbb"), NotComposable,
         "edge 'f' is not of colour b with range 'u'"),
        (Path(("f", "k"), "u", "v", "abb"), NotComposable, "colour word 'abb' for 2 edges"),
    ],
    ids=["unknown-vertex", "vertex-path-u-to-v", "wrong-source", "wrong-range", "wrong-colour",
         "long-word"],
)
def test_lift_refuses_a_path_that_is_not_one_of_the_graph(ctx, x, error, message):
    """The fold checks x against the graph as it reads it: its range, each
    edge's range and colour, the length of its colour word, and where it
    ends."""
    with pytest.raises(error) as exc:
        lift_path(ctx, x)
    assert str(exc.value) == message
