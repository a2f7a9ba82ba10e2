"""Boundary rewriting against the lift and the enumeration oracle.

Three engines must name the same morphism for every path: ``normal_form``
(rewriting the path one square at a time), ``shortest_traversal(lift_path(x))``
(rewriting to the longest traversal, then filling the model graph row by
row), and the one enumerated morphism that x traverses (brute force).
Rewriting in place must also read squares in the order a stack of letters
does (``normal_form_by_stack``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgraph.category import all_paths, pool_morphisms
from bsgraph.errors import Conflict, NotCovered
from bsgraph.fixtures import load_fixture, parse_fixture
from bsgraph.graphs import Path, concat, path_degree, validate_path
from bsgraph.morphisms import (
    check_traverses,
    enumerate_morphisms,
    lift_path,
    normal_form,
    shortest_traversal,
)
from bsgraph.squares import CompleteCollection

from .conftest import FIXTURE_DIR
from .oracles import compose, normal_form_by_stack


def _agree(ctx: CompleteCollection, paths, enum_memo: dict) -> None:
    for x in paths:
        nf = normal_form(ctx, x)
        assert nf == shortest_traversal(lift_path(ctx, x)), str(x)
        w = path_degree(ctx.ops, x)
        if w not in enum_memo:
            enum_memo[w] = enumerate_morphisms(ctx, w)
        matches = [m for m in enum_memo[w] if check_traverses(m, x)]
        assert len(matches) == 1, str(x)
        assert shortest_traversal(matches[0]) == nf, str(x)


@pytest.mark.parametrize("name", ["ctx", "grid_ctx"])
def test_three_engines_agree_on_fixtures(name, request):
    ctx = request.getfixturevalue(name)
    _agree(ctx, all_paths(ctx.graph, 6), {})


def _one_vertex(mode: str, perm: list[int]) -> CompleteCollection:
    """One vertex, a blue loop b and red loops r0..r(p-1); the square of
    r_i pairs its red-first boundary with the blue-first path b r_perm(i)."""
    colours = {"a": "a", "b": "b"} if mode == "bs" else {"a": "1", "b": "2"}
    lines = [f"mode {mode}", "vertex x", f"edge b {colours['b']} x x"]
    lines += [f"edge r{i} {colours['a']} x x" for i in range(len(perm))]
    for i, j in enumerate(perm):
        if mode == "bs":
            lines.append(f"square s{i} eA=r{i} aB=b abB=b eB=b bA=r{j}")
        else:
            lines.append(f"square s{i} v1=r{i} e1v2=b v2=b e2v1=r{j}")
    return parse_fixture("\n".join(lines) + "\n")


@st.composite
def generated_paths(draw, max_len: int):
    """A one-vertex complete collection in either mode, and paths in it."""
    mode = draw(st.sampled_from(["bs", "grid"]))
    p = draw(st.integers(1, 3))
    ctx = _one_vertex(mode, draw(st.permutations(range(p))))
    names = [e.name for e in ctx.graph.edges]
    paths = draw(st.lists(
        st.lists(st.sampled_from(names), min_size=1, max_size=max_len), min_size=1, max_size=5
    ))
    return ctx, [validate_path(ctx.graph, x) for x in paths]


@settings(max_examples=60, deadline=None)
@given(generated_paths(4))
def test_three_engines_agree_on_generated_collections(drawn):
    ctx, paths = drawn
    _agree(ctx, paths, {})


@settings(max_examples=60, deadline=None)
@given(generated_paths(9))
def test_normal_form_matches_lift_on_longer_paths(drawn):
    ctx, paths = drawn
    for x in paths:
        assert normal_form(ctx, x) == shortest_traversal(lift_path(ctx, x))


@pytest.mark.parametrize("name", ["ctx", "grid_ctx"])
def test_dense_compose_agrees_with_rewriting(name, request):
    ctx = request.getfixturevalue(name)
    pool = pool_morphisms(ctx, 2)
    pairs = 0
    for mu in pool:
        for nu in pool:
            if mu.source != nu.range_:
                continue
            x, y = shortest_traversal(mu), shortest_traversal(nu)
            dense = shortest_traversal(compose(ctx, mu, nu))
            assert dense == normal_form(ctx, concat(x, y))
            pairs += 1
    assert pairs == {"ctx": 98, "grid_ctx": 36}[name]


def test_normal_form_reports_missing_square(incomplete_fixture):
    coll = incomplete_fixture
    with pytest.raises(NotCovered) as exc:
        normal_form(coll, validate_path(coll.graph, ["h", "g", "g"]))
    assert exc.value.boundary == ("h", "g", "g")
    assert str(exc.value) == "no square with red-first boundary h g g"


def test_normal_form_reports_missing_grid_square(fixture_dir):
    """Grid mode rewrites blue-first boundaries, and names them so."""
    text = (fixture_dir / "grid_single_vertex.cg").read_text()
    coll = parse_fixture("".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("square")
    ))
    with pytest.raises(NotCovered) as exc:
        normal_form(coll, validate_path(coll.graph, ["beta", "rho"]))
    assert exc.value.boundary == ("beta", "rho")
    assert str(exc.value) == "no square with blue-first boundary beta rho"


@pytest.mark.parametrize(
    "name, path, normal", [("ctx", "f k k", "g f"), ("grid_ctx", "beta rho", "rho beta")]
)
def test_each_mode_rewrites_toward_the_shortest_square_word(name, path, normal, request):
    """BS rewrites the red-first a b b to the blue-first b a, the shortest
    word of ab^2 = ba; grid rewrites the blue-first b a to the red-first
    a b.  The result is normal already."""
    ctx = request.getfixturevalue(name)
    ops = ctx.ops
    y = normal_form(ctx, validate_path(ctx.graph, path.split()))
    assert str(y) == normal
    assert y.colours == ops.shortest_letters(ops.square_degree)
    assert normal_form(ctx, y) == y


def _normal_or_missing(rewrite, ctx, x):
    """rewrite(ctx, x), or the boundary and message of its ``NotCovered``,
    or the message of its ``Conflict``."""
    try:
        return rewrite(ctx, x)
    except NotCovered as exc:
        return exc.boundary, str(exc)
    except Conflict as exc:
        return str(exc)


def _same_rewrites(ctx, paths) -> int:
    """Checks in-place rewriting against the stack on each path; returns
    how many paths meet a missing square."""
    missing = 0
    for x in paths:
        got = _normal_or_missing(normal_form, ctx, x)
        assert got == _normal_or_missing(normal_form_by_stack, ctx, x), str(x)
        missing += not isinstance(got, Path)
    return missing


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.cg")), ids=lambda p: p.stem)
def test_rewrite_order_matches_the_stack_on_fixture_paths(path):
    ctx = load_fixture(path)
    missing = _same_rewrites(ctx, all_paths(ctx.graph, 6))
    assert (missing > 0) == (path.stem in ("example_E_missing_phi2", "duplicated_boundary"))


DUPLICATED_MESSAGE = (
    "the red-first boundary r1 b b belongs to more than one square; "
    "the collection cannot be complete for this graph"
)


@pytest.mark.parametrize("rewrite", [normal_form, normal_form_by_stack])
def test_normal_form_refuses_a_duplicated_boundary(fixture_dir, rewrite):
    """r1 b b bounds two squares, so its normal form is not unique: the
    rewriting refuses the collection before it reads a square, on every
    path, as ``lift_path`` does."""
    coll = load_fixture(fixture_dir / "duplicated_boundary.cg")
    for names in (["r1", "b", "b"], ["b"], ["b", "r2"]):
        x = validate_path(coll.graph, names)
        with pytest.raises(Conflict) as exc:
            rewrite(coll, x)
        assert str(exc.value) == DUPLICATED_MESSAGE
        with pytest.raises(Conflict):
            lift_path(coll, x)


@settings(max_examples=60, deadline=None)
@given(generated_paths(9))
def test_rewrite_order_matches_the_stack_on_generated_collections(drawn):
    ctx, paths = drawn
    assert _same_rewrites(ctx, paths) == 0


def test_rewrite_order_matches_the_stack_on_long_paths(ctx, grid_ctx):
    """Grid b^300 a^300 takes 90,000 rewrites; a random 2,000-edge walk on
    the BS example takes them at every distance from its start."""
    grid = validate_path(grid_ctx.graph, ["beta"] * 300 + ["rho"] * 300)
    rng, at, walk = random.Random(0), "u", []
    for _ in range(2000):
        edge = rng.choice([e for e in ctx.graph.edges if e.range_ == at])
        walk.append(edge.name)
        at = edge.source
    for coll, x in [(grid_ctx, grid), (ctx, validate_path(ctx.graph, walk))]:
        y = normal_form(coll, x)
        assert y == normal_form_by_stack(coll, x)
        assert path_degree(coll.ops, y) == path_degree(coll.ops, x)
        assert y.colours == coll.ops.shortest_letters(path_degree(coll.ops, y))
    assert str(normal_form(grid_ctx, grid)) == " ".join(["rho"] * 300 + ["beta"] * 300)
