"""The N^2 specialization on the single-vertex one-loop-per-colour fixture."""

from __future__ import annotations

from bsgraph.category import verify
from bsgraph.graphs import validate_path, vertex_path
from bsgraph.morphisms import enumerate_morphisms, identity_morphism, lift_path
from bsgraph.words import GRID

from .oracles import compose, maps


def test_fixture_shape(grid_ctx):
    assert grid_ctx.ops.name == "grid"
    assert grid_ctx.graph.vertices == ("w",)
    assert len(grid_ctx.squares) == 1


def test_lift_rho_beta_rho(grid_ctx):
    path = validate_path(grid_ctx.graph, ["rho", "beta", "rho"])
    lam = lift_path(grid_ctx, path)
    assert lam.degree == (2, 1)
    vmap, emap = maps(lam)
    assert len(vmap) == 6 and len(emap) == 7
    found = enumerate_morphisms(grid_ctx, (2, 1))
    assert found == [lam]


def test_vertex_path_lift(grid_ctx):
    lam = lift_path(grid_ctx, vertex_path(grid_ctx.graph, "w"))
    assert lam == identity_morphism(GRID, "w")


def test_lift_order_independent(grid_ctx):
    br = lift_path(grid_ctx, validate_path(grid_ctx.graph, ["beta", "rho"]))
    rb = lift_path(grid_ctx, validate_path(grid_ctx.graph, ["rho", "beta"]))
    assert br == rb and br.degree == (1, 1)


def test_lambda_is_singleton_up_to_degree_six(grid_ctx):
    for m in range(7):
        for n in range(7 - m):
            found = enumerate_morphisms(grid_ctx, (m, n))
            assert len(found) == 1, (m, n)


def test_composition_is_degree_addition(grid_ctx):
    mu = lift_path(grid_ctx, validate_path(grid_ctx.graph, ["rho", "beta"]))
    nu = lift_path(grid_ctx, validate_path(grid_ctx.graph, ["beta"]))
    lam = compose(grid_ctx, mu, nu)
    assert lam.degree == (1, 2)
    only = enumerate_morphisms(grid_ctx, (1, 2))
    assert [lam] == only


def test_verify_grid(grid_ctx):
    report = verify(grid_ctx, 3)
    assert report.passed
    assert len(report.laws) == 7
