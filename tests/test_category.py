"""Composition, factorization, and the law-verification sweeps."""

from __future__ import annotations

import pytest

import bsgraph.category as category
from bsgraph.category import (
    all_paths,
    compose,
    factorize,
    identity,
    pool_morphisms,
    verify_category,
    verify_factorization,
    verify_functor,
)
from bsgraph.errors import DegreeMismatch, NotComposable, UnknownVertex
from bsgraph.graphs import Path, validate_path
from bsgraph.morphisms import lift_path, shortest_traversal
from bsgraph.words import BS


def _lift(ctx, names):
    return lift_path(ctx.graph, ctx.collection, validate_path(ctx.graph, names))


def test_identity(ctx):
    lam_u = identity(ctx, "u")
    assert lam_u.degree == BS.identity
    assert lam_u.range_ == lam_u.source == "u"
    with pytest.raises(UnknownVertex):
        identity(ctx, "zz")


def test_compose_square_from_blue_then_red(ctx, phi1):
    lam = compose(ctx, _lift(ctx, ["g"]), _lift(ctx, ["f"]))
    assert lam.degree == (1, 2)
    assert lam.emap == phi1.emap


def test_compose_reproduces_worked_example(ctx, example_lam):
    lam = compose(ctx, _lift(ctx, ["g", "g"]), _lift(ctx, ["f", "h"]))
    assert lam == example_lam


def test_compose_identity_laws(ctx):
    lam = _lift(ctx, ["g", "g", "f", "h"])
    assert compose(ctx, identity(ctx, lam.range_), lam) == lam
    assert compose(ctx, lam, identity(ctx, lam.source)) == lam


def test_compose_requires_meeting(ctx):
    with pytest.raises(NotComposable):
        compose(ctx, _lift(ctx, ["f"]), _lift(ctx, ["g"]))  # s(f)=v, r(g)=u


def test_compose_restricts_to_factors(ctx):
    from bsgraph.morphisms import restrict, restrict_shifted

    mu = _lift(ctx, ["g", "g"])
    nu = _lift(ctx, ["f", "h"])
    lam = compose(ctx, mu, nu)
    assert restrict(lam, mu.degree) == mu
    assert restrict_shifted(lam, mu.degree, lam.degree) == nu


def test_factorize_examples(ctx, example_lam):
    mu, nu = factorize(example_lam, (0, 2), (2, 0))
    assert shortest_traversal(ctx.graph, mu).edges == ("g", "g")
    assert shortest_traversal(ctx.graph, nu).edges == ("f", "h")
    left, right = factorize(example_lam, BS.identity, example_lam.degree)
    assert left == identity(ctx, example_lam.range_)
    assert right == example_lam


def test_factorize_square_at_b(ctx, phi1):
    sq = _lift(ctx, ["g", "f"])
    mu, nu = factorize(sq, (0, 1), (1, 0))
    assert shortest_traversal(ctx.graph, mu).edges == ("g",)
    assert shortest_traversal(ctx.graph, nu).edges == ("f",)


def test_factorize_degree_mismatch(example_lam):
    with pytest.raises(DegreeMismatch):
        factorize(example_lam, (1, 0), (1, 0))


def test_example_morphism_has_17_splits(ctx, example_lam):
    splits = [
        factorize(example_lam, w1, BS.quotient(w1, example_lam.degree))
        for w1 in BS.prefixes(example_lam.degree)
    ]
    assert len(splits) == 17
    for mu, nu in splits:
        assert compose(ctx, mu, nu) == example_lam


def test_all_paths_counts(ctx):
    # each vertex of E has exactly two incoming-extension choices
    paths = all_paths(ctx.graph, 2)
    lengths = sorted(len(p) for p in paths)
    assert lengths.count(0) == 2 and lengths.count(1) == 4 and lengths.count(2) == 8


def test_pool_is_deduplicated(ctx):
    pool = pool_morphisms(ctx, 3)
    assert len({m.key() for m in pool}) == len(pool)


def test_verify_suites_pass_small(ctx):
    assert verify_category(ctx, 2).passed
    assert verify_functor(ctx, 2).passed
    assert verify_factorization(ctx, 2).passed


def test_verify_functor_multiplicativity_example(ctx):
    lam = compose(ctx, _lift(ctx, ["g", "g"]), _lift(ctx, ["f", "h"]))
    assert lam.degree == BS.mul((0, 2), (2, 0)) == (2, 8)


def test_verify_category_reports_counterexample(ctx, monkeypatch):
    """Fault injection: corrupting the sweep's composite must surface a
    counterexample."""
    real = category.normal_form
    # The other edge of the same colour: g <-> k (blue), f <-> h (red).
    other = {"g": "k", "k": "g", "f": "h", "h": "f"}

    def corrupted(g, collection, x):
        y = real(g, collection, x)
        if len(y) < 3:
            return y
        # swap one interior edge only, keeping the endpoints intact
        edges = y.edges[:1] + (other[y.edges[1]],) + y.edges[2:]
        return Path(edges, y.range_, y.source, y.colours)

    monkeypatch.setattr(category, "normal_form", corrupted)
    report = category.verify_category(ctx, 2)
    assert not report.passed
    failing = [law for law in report.laws if not law.passed]
    assert failing and all(law.counterexample for law in failing)


def test_empty_graph_passes_vacuously():
    from bsgraph.category import LambdaContext
    from bsgraph.graphs import build_graph
    from bsgraph.squares import CompleteCollection

    empty = LambdaContext(build_graph([], []), CompleteCollection(BS, ()))
    assert verify_category(empty, 3).passed
    assert verify_functor(empty, 3).passed
    assert verify_factorization(empty, 3).passed


def test_report_serialization(ctx):
    report = verify_functor(ctx, 2)
    data = report.to_json()
    assert data["passed"] is True
    assert all(set(l) == {"law", "instances", "passed", "counterexample"} for l in data["laws"])
    assert "pass" in report.to_text()
