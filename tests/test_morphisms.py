"""Lifting, traversals, the dense restriction references, and the
enumeration oracle."""

from __future__ import annotations

import json

import pytest

from bsgraph.category import all_paths, pool_morphisms
from bsgraph.errors import Conflict, NotComposable, NotCovered
from bsgraph.fixtures import parse_fixture
from bsgraph.graphs import validate_path, vertex_path
from bsgraph.morphisms import (
    Morphism,
    check_traverses,
    enumerate_morphisms,
    identity_morphism,
    lift_path,
    longest_traversal,
    shortest_traversal,
)
from bsgraph.models import square_positions
from bsgraph.squares import CompleteCollection
from bsgraph.words import BS

from .oracles import (
    check_compatible,
    from_maps,
    maps,
    model,
    occurrences,
    restrict,
    restrict_shifted,
    square_map,
)


def expected_example_lam(graph):
    """The worked-example morphism written out entry by entry:
    rows u/v/u, blue rows g/k/g, red columns f then h."""
    w = (2, 8)
    vmap = {z: ("u", "v", "u")[z[0]] for z in BS.prefixes(w)}
    emap = {}
    for z, l in model(BS, w).edges:
        if l == "b":
            emap[(z, l)] = ("g", "k", "g")[z[0]]
        else:
            emap[(z, l)] = ("f", "h")[z[0]]
    return from_maps(BS, w, vmap, emap)


def test_lift_ggfh_matches_worked_example(ctx, example_lam):
    assert example_lam.degree == (2, 8)
    vmap, emap = maps(example_lam)
    assert len(vmap) == 17
    assert len(emap) == 22
    assert example_lam == expected_example_lam(ctx.graph)
    assert (example_lam.range_, example_lam.source) == ("u", "u")


def test_lift_vertex_path(ctx):
    lam = lift_path(ctx, vertex_path(ctx.graph, "u"))
    assert lam == identity_morphism(BS, "u")
    assert lam.degree == BS.identity


def test_lift_equal_for_square_traversals(ctx):
    via_red = lift_path(ctx, validate_path(ctx.graph, ["f", "k", "k"]))
    via_blue = lift_path(ctx, validate_path(ctx.graph, ["g", "f"]))
    assert via_red == via_blue
    assert via_red.degree == (1, 2)
    # it is exactly phi1 viewed as a morphism
    phi1 = next(sq for sq in ctx.squares if sq.name == "phi1")
    assert maps(via_red)[1] == square_map(BS, phi1)


def test_lift_rejects_non_composable(ctx):
    path = validate_path(ctx.graph, ["g"])
    bad = type(path)(("g", "h"), "u", "u", path.colours * 2)  # forged junction
    with pytest.raises(NotComposable):
        lift_path(ctx, bad)


def test_lift_not_covered_without_phi2(ctx, incomplete_fixture):
    coll = incomplete_fixture
    with pytest.raises(NotCovered) as exc:
        lift_path(coll, validate_path(coll.graph, ["g", "g", "f", "h"]))
    assert exc.value.boundary in (("k", "h"), ("h", "g", "g"))


def test_lift_loop_invariant(ctx):
    # every prefix of the path lifts to a total morphism it traverses
    names = ["g", "g", "f", "h", "g", "f"]
    for n in range(1, len(names) + 1):
        path = validate_path(ctx.graph, names[:n])
        lam = lift_path(ctx, path)
        assert check_traverses(lam, path)


def test_check_traverses(ctx, example_lam):
    g = ctx.graph
    assert check_traverses(example_lam, validate_path(g, ["g", "g", "f", "h"]))
    assert check_traverses(example_lam, validate_path(g, ["f", "h"] + ["g"] * 8))
    assert not check_traverses(example_lam, validate_path(g, ["g", "g"]))
    lam_u = identity_morphism(BS, "u")
    assert check_traverses(lam_u, vertex_path(g, "u"))
    assert not check_traverses(lam_u, vertex_path(g, "v"))


def test_traversal_extremes(ctx, example_lam):
    short = shortest_traversal(example_lam)
    long = longest_traversal(example_lam)
    assert short.edges == ("g", "g", "f", "h")
    assert long.edges == ("f", "h") + ("g",) * 8
    assert len(short) == 4 and len(long) == 10
    from bsgraph.graphs import path_degree

    assert path_degree(BS, short) == path_degree(BS, long) == (2, 8)


def test_traversals_traverse_their_morphism(ctx):
    for names in (["g", "f"], ["g", "g", "f", "h"], ["f", "k", "k"]):
        lam = lift_path(ctx, validate_path(ctx.graph, names))
        assert check_traverses(lam, shortest_traversal(lam))
        assert check_traverses(lam, longest_traversal(lam))


def test_restrict(ctx, example_lam):
    bottom = restrict(example_lam, (0, 2))
    assert shortest_traversal(bottom).edges == ("g", "g")
    assert restrict_shifted(example_lam, BS.identity, example_lam.degree) == example_lam
    top = restrict_shifted(example_lam, (0, 2), (2, 8))
    assert top.degree == (2, 0)
    assert shortest_traversal(top).edges == ("f", "h")


def test_restrictions_stay_compatible(ctx, example_lam):
    for w1 in BS.prefixes(example_lam.degree):
        assert check_compatible(restrict(example_lam, w1), ctx)
        assert check_compatible(
            restrict_shifted(example_lam, w1, example_lam.degree), ctx
        )


def test_occurrences(ctx, example_lam, phi1, phi2):
    assert occurrences(identity_morphism(BS, "v")) == []
    sq_morph = lift_path(ctx, validate_path(ctx.graph, ["g", "f"]))
    occs = occurrences(sq_morph)
    assert len(occs) == 1 and occs[0][0] == BS.identity
    occs28 = occurrences(example_lam)
    # one occurrence per square position of (2,8); brute count gives 6
    assert len(occs28) == len(square_positions(BS, (2, 8))) == 6
    key1, key2 = (frozenset(square_map(BS, phi).items()) for phi in (phi1, phi2))
    known = {key1: 0, key2: 0}
    for _, emap in occs28:
        known[frozenset(emap.items())] += 1
    # phi1 fills the bottom band twice, phi2 the top band four times
    assert known[key1] == 2
    assert known[key2] == 4


def test_check_compatible(ctx, example_lam, phi1):
    assert check_compatible(example_lam, ctx)
    assert check_compatible(identity_morphism(BS, "v"), ctx)
    only_phi1 = CompleteCollection(ctx.graph, BS, (phi1,))
    assert not check_compatible(example_lam, only_phi1)


def test_enumerate_ba(ctx, phi1, phi2):
    found = enumerate_morphisms(ctx, (1, 2))
    assert len(found) == 2
    assert {frozenset(maps(m)[1].items()) for m in found} == {
        frozenset(square_map(BS, phi1).items()),
        frozenset(square_map(BS, phi2).items()),
    }


def test_enumerate_identity_degree(ctx):
    found = enumerate_morphisms(ctx, BS.identity)
    assert found == [identity_morphism(BS, "u"), identity_morphism(BS, "v")]


def test_enumerate_contains_worked_example(ctx, example_lam):
    found = enumerate_morphisms(ctx, (2, 8))
    assert example_lam in found


def _enumerate_by_dicts(collection, w) -> list[Morphism]:
    """Reference search: extend vertex/edge dicts one domain edge at a time,
    trying every ambient edge, and keep the total assignments that
    check_compatible accepts."""
    ops, g = collection.ops, collection.graph
    edge_keys = model(ops, w).edges
    results = []

    def backtrack(i, vmap, emap):
        if i == len(edge_keys):
            lam = from_maps(ops, w, dict(vmap), dict(emap))
            if check_compatible(lam, collection):
                results.append(lam)
            return
        z, letter = edge_keys[i]
        target = ops.step(z, letter)
        for e in g.edges:
            if e.colour != letter or vmap[z] != e.range_:
                continue
            if vmap.get(target, e.source) != e.source:
                continue
            had = target in vmap
            emap[(z, letter)] = e.name
            vmap[target] = e.source
            backtrack(i + 1, vmap, emap)
            del emap[(z, letter)]
            if not had:
                del vmap[target]

    for v in g.vertices:
        backtrack(0, {ops.identity: v}, {})
    return results


# example_E.cg plus a second blue loop at v and two more red edges into u,
# one from v and one from u, so most domain edges have several
# candidates, some with different sources; phi1 and phi2 only.
BRANCHING = """\
mode bs
vertex u
vertex v
edge g b u u
edge k b v v
edge k2 b v v
edge f a u v
edge f2 a u v
edge f3 a u u
edge h a v u
square phi1 eA=f aB=k abB=k eB=g bA=f
square phi2 eA=h aB=g abB=g eB=k bA=h
"""


def test_enumerate_matches_dict_search(ctx, grid_ctx, incomplete_fixture):
    cases = [
        (ctx, (2, 4)),
        (grid_ctx, (3, 3)),
        (incomplete_fixture, (2, 4)),
        (parse_fixture(BRANCHING), (2, 2)),
    ]
    for coll, top in cases:
        for w in model(coll.ops, top).vertices:
            assert enumerate_morphisms(coll, w) == _enumerate_by_dicts(coll, w), w


def test_enumerate_limit_is_a_prefix_of_the_full_list(ctx, grid_ctx):
    for c, w in ((ctx, (1, 2)), (ctx, BS.identity), (grid_ctx, (1, 1))):
        full = enumerate_morphisms(c, w)
        for k in range(len(full) + 2):
            assert enumerate_morphisms(c, w, limit=k) == full[:k]


def test_unique_lifting_against_oracle(ctx):
    """Uniqueness at small scale: each path picks out exactly one
    compatible morphism, the lift."""
    from bsgraph.category import all_paths
    from bsgraph.graphs import path_degree

    for path in all_paths(ctx.graph, 3):
        lam = lift_path(ctx, path)
        matches = [
            m
            for m in enumerate_morphisms(ctx, path_degree(BS, path))
            if check_traverses(m, path)
        ]
        assert matches == [lam]


def test_conflict_reported_for_incompatible_seed(ctx, incomplete_fixture):
    """With phi2 missing, some path hits a boundary the collection lacks."""
    coll = incomplete_fixture
    with pytest.raises((NotCovered, Conflict)):
        lift_path(coll, validate_path(coll.graph, ["k", "k", "h", "f"]))


def _row_lists(lam) -> list:
    """lam's vrows, arows and brows as lists of lists."""
    return [[list(row) for row in rows] for rows in (lam.vrows, lam.arows, lam.brows)]


def test_morphism_maps_are_read_only(example_lam):
    key = example_lam.key()
    with pytest.raises(TypeError):
        example_lam.vrows[0][0] = "v"
    with pytest.raises(TypeError):
        example_lam.arows[0][0] = "h"
    for field in ("vrows", "arows", "brows", "degree"):
        with pytest.raises(AttributeError):
            setattr(example_lam, field, ())
    # The constructor freezes the rows: changing a list the morphism was
    # built from changes neither the morphism nor its cached key.
    vrows, arows, brows = _row_lists(example_lam)
    copy = Morphism(BS, example_lam.degree, vrows, arows, brows)
    vrows[0][0], arows[0][0] = "v", "h"
    vrows.append(["u"])
    assert copy == example_lam and copy.key() == key


def test_rows_constructor_rejects_misshapen_rows(example_lam):
    # The model graph of a^2 b^8 has rows of 3, 5 and 9 vertices, with 3
    # and 5 red edges in rows 0 and 1 and 2, 4 and 8 blue edges.
    vrows, arows, brows = _row_lists(example_lam)
    degree = example_lam.degree
    for bad in [
        (vrows[:1] + [vrows[1][:-1]] + vrows[2:], arows, brows),  # a short row
        (vrows + [["u"]], arows, brows),  # an extra row
        (vrows, arows + [["f"]], brows),  # an extra red row
        (vrows, arows[:2] + [["f"]], brows),  # a red edge on row N
        (vrows, arows, brows[:2] + [brows[2] + ["g"]]),  # a blue edge past a row's end
        (vrows, [arows[0] + ["f"]] + arows[1:], brows),  # a red edge past a row's end
        ([], [], []),
    ]:
        with pytest.raises(ValueError):
            Morphism(BS, degree, *bad)
    # The right rows under another degree are off its model graph.
    with pytest.raises(ValueError):
        Morphism(BS, (2, 7), vrows, arows, brows)
    with pytest.raises(ValueError):
        Morphism(BS, (1, 8), vrows, arows, brows)


@pytest.mark.parametrize(
    "key",
    [(-1, 0), (0, -1), (0, 5), (3, 0), (2, 9), (0,), (0, 0, 0), "e", None, ("0", 0)],
)
def test_off_domain_vertex_keys(example_lam, key):
    # The model graph of a^2 b^8 has rows of 3, 5 and 9 vertices: the key
    # is none of them, so a vertex map that has it is refused.
    vmap, emap = maps(example_lam)
    assert key not in vmap
    with pytest.raises(ValueError):
        from_maps(BS, example_lam.degree, {**vmap, key: "u"}, emap)


@pytest.mark.parametrize(
    "key",
    [
        ((2, 0), "a"),  # the top row has no red edges
        ((0, 2), "b"),  # nor has the last vertex of a row a blue one
        ((2, 8), "b"),
        ((0, 3), "a"),
        ((-1, 0), "a"),
        ((0, 0), "c"),
        ((0, 0), None),
        ((0, 0),),
        (0, 0),
        "a",
    ],
)
def test_off_domain_edge_keys(example_lam, key):
    vmap, emap = maps(example_lam)
    assert key not in emap
    with pytest.raises(ValueError):
        from_maps(BS, example_lam.degree, vmap, {**emap, key: "f"})


@pytest.mark.parametrize("name, max_len", [("ctx", 3), ("grid_ctx", 4)])
def test_maps_constructor_round_trips(name, max_len, request):
    ctx = request.getfixturevalue(name)
    for lam in pool_morphisms(ctx, max_len):
        # Through the two dicts, and from rows given as lists, which the
        # constructor freezes to tuples.
        for again in (
            from_maps(lam.ops, lam.degree, *maps(lam)),
            Morphism(lam.ops, lam.degree, *_row_lists(lam)),
        ):
            for rows in (again.vrows, again.arows, again.brows):
                assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            assert again == lam and hash(again) == hash(lam) and again.key() == lam.key()
            assert (again.vrows, again.arows, again.brows) == (lam.vrows, lam.arows, lam.brows)


def test_maps_constructor_rejects_partial_or_extra_keys(example_lam):
    vmap, emap = maps(example_lam)
    degree = example_lam.degree
    partial_v = {z: v for z, v in vmap.items() if z != (1, 2)}
    partial_e = {k: e for k, e in emap.items() if k != ((0, 1), "a")}
    for bad_v, bad_e in [
        (partial_v, emap),
        (vmap, partial_e),
        ({**vmap, (3, 0): "u"}, emap),
        (vmap, {**emap, ((2, 0), "a"): "f"}),
        (vmap, {**emap, ((0, 2), "b"): "g"}),
        ({}, {}),
    ]:
        with pytest.raises(ValueError):
            from_maps(BS, degree, bad_v, bad_e)
    # The same maps under another degree are off its model graph.
    with pytest.raises(ValueError):
        from_maps(BS, (2, 7), vmap, emap)


def _old_key(lam):
    """The key morphisms had as two dicts: sorted items of both maps."""
    vmap, emap = maps(lam)
    return (lam.ops.name, lam.degree, tuple(sorted(vmap.items())), tuple(sorted(emap.items())))


# Two red and two blue loops on one vertex, every pair commuting: many
# morphisms of one degree share their vertex images and differ in edges,
# where the order red and blue edges take in the key decides the sort.
PARALLEL_LOOPS = "mode grid\nvertex x\n" + "".join(
    f"edge {e} {c} x x\n" for e, c in (("r0", 1), ("r1", 1), ("b0", 2), ("b1", 2))
) + "".join(
    f"square s{r}{b} v1={r} e1v2={b} v2={b} e2v1={r}\n" for r in ("r0", "r1") for b in ("b0", "b1")
)


@pytest.mark.parametrize("name", ["ctx", "grid_ctx", "parallel loops"])
def test_key_sorts_and_dedups_like_sorted_items(name, request):
    if name == "parallel loops":
        ctx = parse_fixture(PARALLEL_LOOPS)
    else:
        ctx = request.getfixturevalue(name)
    ops = ctx.ops
    lifts = [lift_path(ctx, p) for p in all_paths(ctx.graph, 3)]
    enumerated = [
        m
        for w in ops.prefixes(ops.mul(ops.square_degree, ops.square_degree))
        for m in enumerate_morphisms(ctx, w)
    ]
    everything = lifts + enumerated
    assert sorted(everything, key=Morphism.key) == sorted(everything, key=_old_key)
    assert len({m.key() for m in everything}) == len({_old_key(m) for m in everything})
    pool = pool_morphisms(ctx, 3)
    assert pool == sorted(pool, key=_old_key)


def test_morphism_json_shape(example_lam):
    data = json.loads(example_lam.json_text())
    assert data["mode"] == "bs"
    assert data["degree"]["pair"] == [2, 8]
    assert len(data["vertices"]) == 17
    assert len(data["edges"]) == 22
    assert data["vertices"][0] == {"prefix": "e", "pair": [0, 0], "vertex": "u"}
