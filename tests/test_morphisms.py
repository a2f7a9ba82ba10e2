"""Lifting, traversals, restrictions, occurrences, and the enumeration oracle."""

from __future__ import annotations

import pytest

from bsgraph.errors import Conflict, NotComposable, NotCovered, PreconditionViolated
from bsgraph.fixtures import parse_fixture
from bsgraph.graphs import validate_path, vertex_path
from bsgraph.morphisms import (
    Morphism,
    check_compatible,
    check_traverses,
    enumerate_morphisms,
    identity_morphism,
    lift_path,
    longest_traversal,
    occurrences,
    restrict,
    restrict_shifted,
    rewrite_tail,
    shortest_traversal,
)
from bsgraph.models import model, square_positions
from bsgraph.squares import CompleteCollection
from bsgraph.words import BS


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
    return Morphism(BS, w, vmap, emap)


def test_lift_ggfh_matches_worked_example(ctx, example_lam):
    assert example_lam.degree == (2, 8)
    assert len(example_lam.vmap) == 17
    assert len(example_lam.emap) == 22
    assert example_lam == expected_example_lam(ctx.graph)
    assert (example_lam.range_, example_lam.source) == ("u", "u")


def test_lift_vertex_path(ctx):
    lam = lift_path(ctx.graph, ctx.collection, vertex_path(ctx.graph, "u"))
    assert lam == identity_morphism(BS, "u")
    assert lam.degree == BS.identity


def test_lift_equal_for_square_traversals(ctx):
    via_red = lift_path(ctx.graph, ctx.collection, validate_path(ctx.graph, ["f", "k", "k"]))
    via_blue = lift_path(ctx.graph, ctx.collection, validate_path(ctx.graph, ["g", "f"]))
    assert via_red == via_blue
    assert via_red.degree == (1, 2)
    # it is exactly phi1 viewed as a morphism
    phi1 = next(sq for sq in ctx.collection.squares if sq.name == "phi1")
    assert via_red.emap == phi1.emap


def test_lift_rejects_non_composable(ctx):
    path = validate_path(ctx.graph, ["g"])
    bad = type(path)(("g", "h"), "u", "u", path.colours * 2)  # forged junction
    with pytest.raises(NotComposable):
        lift_path(ctx.graph, ctx.collection, bad)


def test_lift_not_covered_without_phi2(ctx, incomplete_fixture):
    fx = incomplete_fixture
    coll = CompleteCollection(fx.ops, tuple(fx.squares))
    with pytest.raises(NotCovered) as exc:
        lift_path(fx.graph, coll, validate_path(fx.graph, ["g", "g", "f", "h"]))
    assert exc.value.boundary in (("k", "h"), ("h", "g", "g"))


def test_lift_loop_invariant(ctx):
    # every prefix of the path lifts to a total morphism it traverses
    names = ["g", "g", "f", "h", "g", "f"]
    for n in range(1, len(names) + 1):
        path = validate_path(ctx.graph, names[:n])
        lam = lift_path(ctx.graph, ctx.collection, path)
        assert check_traverses(ctx.graph, lam, path)


def test_check_traverses(ctx, example_lam):
    g = ctx.graph
    assert check_traverses(g, example_lam, validate_path(g, ["g", "g", "f", "h"]))
    assert check_traverses(g, example_lam, validate_path(g, ["f", "h"] + ["g"] * 8))
    assert not check_traverses(g, example_lam, validate_path(g, ["g", "g"]))
    lam_u = identity_morphism(BS, "u")
    assert check_traverses(g, lam_u, vertex_path(g, "u"))
    assert not check_traverses(g, lam_u, vertex_path(g, "v"))


def test_traversal_extremes(ctx, example_lam):
    short = shortest_traversal(ctx.graph, example_lam)
    long = longest_traversal(ctx.graph, example_lam)
    assert short.edges == ("g", "g", "f", "h")
    assert long.edges == ("f", "h") + ("g",) * 8
    assert len(short) == 4 and len(long) == 10
    from bsgraph.graphs import path_degree

    assert path_degree(BS, short) == path_degree(BS, long) == (2, 8)


def test_traversals_traverse_their_morphism(ctx):
    for names in (["g", "f"], ["g", "g", "f", "h"], ["f", "k", "k"]):
        lam = lift_path(ctx.graph, ctx.collection, validate_path(ctx.graph, names))
        assert check_traverses(ctx.graph, lam, shortest_traversal(ctx.graph, lam))
        assert check_traverses(ctx.graph, lam, longest_traversal(ctx.graph, lam))


def test_restrict(ctx, example_lam):
    bottom = restrict(example_lam, (0, 2))
    assert shortest_traversal(ctx.graph, bottom).edges == ("g", "g")
    assert restrict_shifted(example_lam, BS.identity, example_lam.degree) == example_lam
    top = restrict_shifted(example_lam, (0, 2), (2, 8))
    assert top.degree == (2, 0)
    assert shortest_traversal(ctx.graph, top).edges == ("f", "h")


def test_restrictions_stay_compatible(ctx, example_lam):
    for w1 in BS.prefixes(example_lam.degree):
        assert check_compatible(restrict(example_lam, w1), ctx.collection)
        assert check_compatible(
            restrict_shifted(example_lam, w1, example_lam.degree), ctx.collection
        )


def test_occurrences(ctx, example_lam, phi1, phi2):
    assert occurrences(identity_morphism(BS, "v")) == []
    sq_morph = lift_path(ctx.graph, ctx.collection, validate_path(ctx.graph, ["g", "f"]))
    occs = occurrences(sq_morph)
    assert len(occs) == 1 and occs[0][0] == BS.identity
    occs28 = occurrences(example_lam)
    # one occurrence per square position of (2,8); brute count gives 6
    assert len(occs28) == len(square_positions(BS, (2, 8))) == 6
    known = {frozenset(phi1.emap.items()): 0, frozenset(phi2.emap.items()): 0}
    for _, emap in occs28:
        known[frozenset(emap.items())] += 1
    # phi1 fills the bottom band twice, phi2 the top band four times
    assert known[frozenset(phi1.emap.items())] == 2
    assert known[frozenset(phi2.emap.items())] == 4


def test_check_compatible(ctx, example_lam, phi1):
    assert check_compatible(example_lam, ctx.collection)
    assert check_compatible(identity_morphism(BS, "v"), ctx.collection)
    only_phi1 = CompleteCollection(BS, (phi1,))
    assert not check_compatible(example_lam, only_phi1)


def test_rewrite_tail(ctx):
    g = ctx.graph
    sq1 = lift_path(g, ctx.collection, validate_path(g, ["g", "f"]))
    out = rewrite_tail(g, sq1, validate_path(g, ["g", "f"]))
    assert out.edges == ("f", "k", "k")
    assert check_traverses(g, sq1, out)
    sq2 = lift_path(g, ctx.collection, validate_path(g, ["k", "h"]))
    assert rewrite_tail(g, sq2, validate_path(g, ["k", "h"])).edges == ("h", "g", "g")
    from bsgraph.graphs import path_degree

    assert path_degree(BS, out) == (1, 2)


def test_rewrite_tail_preconditions(ctx, example_lam):
    g = ctx.graph
    with pytest.raises(PreconditionViolated):
        rewrite_tail(g, example_lam, validate_path(g, ["f", "h"] + ["g"] * 8))
    other = lift_path(g, ctx.collection, validate_path(g, ["k", "h"]))
    with pytest.raises(PreconditionViolated):
        rewrite_tail(g, other, validate_path(g, ["g", "f"]))


def test_enumerate_ba(ctx, phi1, phi2):
    found = enumerate_morphisms(ctx.graph, ctx.collection, (1, 2))
    assert len(found) == 2
    assert {frozenset(m.emap.items()) for m in found} == {
        frozenset(phi1.emap.items()),
        frozenset(phi2.emap.items()),
    }


def test_enumerate_identity_degree(ctx):
    found = enumerate_morphisms(ctx.graph, ctx.collection, BS.identity)
    assert found == [identity_morphism(BS, "u"), identity_morphism(BS, "v")]


def test_enumerate_contains_worked_example(ctx, example_lam):
    found = enumerate_morphisms(ctx.graph, ctx.collection, (2, 8))
    assert example_lam in found


def _enumerate_by_dicts(g, collection, w) -> list[Morphism]:
    """Reference search: extend vertex/edge dicts one domain edge at a time,
    trying every ambient edge, and keep the total assignments that
    check_compatible accepts."""
    ops = collection.ops
    edge_keys = model(ops, w).edges
    results = []

    def backtrack(i, vmap, emap):
        if i == len(edge_keys):
            lam = Morphism(ops, w, dict(vmap), dict(emap))
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
    branching = parse_fixture(BRANCHING)
    cases = [
        (ctx.graph, ctx.collection, (2, 4)),
        (grid_ctx.graph, grid_ctx.collection, (3, 3)),
        (incomplete_fixture.graph, CompleteCollection(BS, tuple(incomplete_fixture.squares)), (2, 4)),
        (branching.graph, CompleteCollection(BS, tuple(branching.squares)), (2, 2)),
    ]
    for g, coll, top in cases:
        for w in model(coll.ops, top).vertices:
            assert enumerate_morphisms(g, coll, w) == _enumerate_by_dicts(g, coll, w), w


def test_unique_lifting_against_oracle(ctx):
    """Uniqueness at small scale: each path picks out exactly one
    compatible morphism, the lift."""
    from bsgraph.category import all_paths
    from bsgraph.graphs import path_degree

    for path in all_paths(ctx.graph, 3):
        lam = lift_path(ctx.graph, ctx.collection, path)
        matches = [
            m
            for m in enumerate_morphisms(ctx.graph, ctx.collection, path_degree(BS, path))
            if check_traverses(ctx.graph, m, path)
        ]
        assert matches == [lam]


def test_conflict_reported_for_incompatible_seed(ctx, incomplete_fixture):
    """With phi2 missing, some path hits a boundary the collection lacks."""
    fx = incomplete_fixture
    coll = CompleteCollection(fx.ops, tuple(fx.squares))
    with pytest.raises((NotCovered, Conflict)):
        lift_path(fx.graph, coll, validate_path(fx.graph, ["k", "k", "h", "f"]))


def test_morphism_json_shape(example_lam):
    data = example_lam.to_json()
    assert data["mode"] == "bs"
    assert data["degree"]["pair"] == [2, 8]
    assert len(data["vertices"]) == 17
    assert len(data["edges"]) == 22
    assert data["vertices"][0] == {"prefix": "e", "pair": [0, 0], "vertex": "u"}
