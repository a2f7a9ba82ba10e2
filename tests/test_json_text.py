"""The joined-once JSON writers against ``json.dumps``: morphisms against
the ``morphism_json`` reference, model graphs against the object
``model --json`` describes, and the factor pair ``factorize --json``
writes against restriction and against lifting its traversals."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgraph.errors import NotAPrefix
from bsgraph.fixtures import load_fixture, parse_fixture
from bsgraph.graphs import validate_path, vertex_path
from bsgraph.models import model_json_parts
from bsgraph.morphisms import (
    enumerate_morphisms,
    factors,
    lift_path,
    shortest_traversal,
    split_traversals,
)
from bsgraph.words import BS, GRID

from .conftest import FIXTURE_DIR
from .oracles import model, morphism_json, restrict, restrict_shifted

# Names with non-ASCII characters, astral-plane characters, quotes and
# backslashes, which the JSON encoder must escape, and with "%", "{" and
# "}", which a writer built on templates or % formatting would misread.
# One edge name per mode is 200 characters long.
LONG_BS, LONG_GRID = "γ%{}" * 50, "ρ{0}%" * 40
ODD_NAMES_BS = """\
mode bs
vertex ν"\\
vertex v%d{v}
edge LONG b ν"\\ ν"\\
edge "k"{}% b v%d{v} v%d{v}
edge f\\ a ν"\\ v%d{v}
edge h→𝔥 a v%d{v} ν"\\
square φ1 eA=f\\ aB="k"{}% abB="k"{}% eB=LONG bA=f\\
square φ2 eA=h→𝔥 aB=LONG abB=LONG eB="k"{}% bA=h→𝔥
""".replace("LONG", LONG_BS)

ODD_NAMES_GRID = """\
mode grid
vertex ω\\"%s{}
edge LONG 1 ω\\"%s{} ω\\"%s{}
edge "β"{0} 2 ω\\"%s{} ω\\"%s{}
square σ v1=LONG e1v2="β"{0} v2="β"{0} e2v1=LONG
""".replace("LONG", LONG_GRID)


E = load_fixture(FIXTURE_DIR / "example_E.cg")
GRID_FX = load_fixture(FIXTURE_DIR / "grid_single_vertex.cg")
# (context, longest path drawn): BS model graphs grow like 2^length.  On
# blue_cycle.cg the blue edges alternate along a row, so a factor cut from
# the wrong column has other images.
CONTEXTS = [
    (E, 8),
    (load_fixture(FIXTURE_DIR / "blue_cycle.cg"), 8),
    (parse_fixture(ODD_NAMES_BS), 8),
    (GRID_FX, 14),
    (parse_fixture(ODD_NAMES_GRID), 14),
]


def reference(lam, level: int) -> str:
    """``json.dumps(morphism_json(lam), indent=2)`` nested ``level`` deep."""
    return json.dumps(morphism_json(lam), indent=2).replace("\n", "\n" + "  " * level)


@st.composite
def walks(draw):
    """A context and a random walk in its graph, possibly of length 0."""
    ctx, max_len = draw(st.sampled_from(CONTEXTS))
    g = ctx.graph
    at = draw(st.sampled_from(g.vertices))
    names = []
    for _ in range(draw(st.integers(0, max_len))):
        edge = draw(st.sampled_from([e for e in g.edges if e.range_ == at]))
        names.append(edge.name)
        at = edge.source
    return ctx, validate_path(g, names) if names else vertex_path(g, at)


def lifts():
    """The lift of a random walk, possibly of length 0 (an identity)."""
    return walks().map(lambda walk: lift_path(*walk))


@settings(max_examples=150, deadline=None)
@given(lifts(), st.integers(0, 3))
def test_json_text_equals_json_dumps(lam, level):
    assert lam.json_text(level) == reference(lam, level)


def test_odd_names_are_escaped():
    ctx = parse_fixture(ODD_NAMES_BS)
    lam = lift_path(ctx, validate_path(ctx.graph, ["h→𝔥", LONG_BS, LONG_BS]))
    text = lam.json_text()
    assert text == reference(lam, 0)
    assert text.isascii() and '"vertex": "\\u03bd\\"\\\\"' in text
    assert '"edge": "h\\u2192\\ud835\\udd25"' in text
    assert '"vertex": "v%d{v}"' in text and '"edge": "\\"k\\"{}%"' in text
    assert '"edge": "' + LONG_BS.replace("γ", "\\u03b3") + '"' in text
    assert json.loads(text) == morphism_json(lam)


def test_odd_grid_names_are_escaped():
    ctx = parse_fixture(ODD_NAMES_GRID)
    lam = lift_path(ctx, validate_path(ctx.graph, [LONG_GRID, '"β"{0}', LONG_GRID]))
    text = lam.json_text(1)
    assert text == reference(lam, 1)
    assert '"vertex": "\\u03c9\\\\\\"%s{}"' in text and '"edge": "\\"\\u03b2\\"{0}"' in text
    assert json.loads(text) == morphism_json(lam)


def test_identity_and_enumerated_morphisms():
    for ctx, _ in CONTEXTS:
        for lam in enumerate_morphisms(ctx, ctx.ops.identity):
            assert lam.json_text(2) == reference(lam, 2)
            assert '"edges": []' in lam.json_text()
        for lam in enumerate_morphisms(ctx, ctx.ops.square_degree):
            assert lam.json_text(2) == reference(lam, 2)


# Each edge shape the writers lay out, per mode: an identity (no edges),
# a red edge alone, rows of width 1 (red edges only), a blue edge alone
# (row N only), blue edges alone, and a red edge over a blue one.
SHAPES = [
    (E, []), (E, ["f"]), (E, ["f", "h"]), (E, ["g"]), (E, ["g", "g"]), (E, ["h", "g"]),
    (GRID_FX, []), (GRID_FX, ["rho"]), (GRID_FX, ["rho", "rho"]), (GRID_FX, ["beta"]),
    (GRID_FX, ["beta", "beta"]), (GRID_FX, ["rho", "beta"]),
]


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("ctx, names", SHAPES)
def test_edge_shapes(ctx, names, level):
    g = ctx.graph
    lam = lift_path(ctx, validate_path(g, names) if names else vertex_path(g, g.vertices[0]))
    assert lam.json_text(level) == reference(lam, level)


@settings(max_examples=150, deadline=None)
@given(walks())
def test_factors_are_the_restrictions_and_the_lifts_of_the_split(walk):
    """At every prefix w1 of the degree, e and the degree itself included,
    the factor pair cut out of the rows is lam restricted to w1 and,
    shifted by w1, to the rest, and it is what the two traversals
    ``split_traversals`` reads off lam lift to, and those traversals are
    its factors' shortest ones."""
    ctx, path = walk
    lam = lift_path(ctx, path)
    ops = ctx.ops
    for w1 in ops.prefixes(lam.degree):
        w2 = ops.quotient(w1, lam.degree)
        left, right = factors(lam, w1)
        assert (left, right) == (restrict(lam, w1), restrict_shifted(lam, w1, lam.degree))
        x, y = split_traversals(lam, w1, w2)
        assert (left, right) == (lift_path(ctx, x), lift_path(ctx, y))
        assert (shortest_traversal(left), shortest_traversal(right)) == (x, y)


def test_factors_of_a_non_prefix_raise_not_a_prefix():
    cases = [(E, ["g", "f"], (0, 3)), (E, ["f"], (0, 1)), (GRID_FX, ["rho"], (0, 1))]
    for ctx, names, w1 in cases:
        lam = lift_path(ctx, validate_path(ctx.graph, names))
        with pytest.raises(NotAPrefix):
            factors(lam, w1)


def model_reference(ops, w) -> str:
    """The ``model --json`` object, built as a dict from the model graph."""
    label = ops.label_rows(w)
    payload = {
        "degree": label[-1][-1],
        "vertices": [s for row in label for s in row],
        "edges": [{"prefix": label[i][j], "letter": l} for (i, j), l in model(ops, w).edges],
    }
    return json.dumps(payload, indent=2)


@pytest.mark.parametrize("ops", [BS, GRID], ids=["bs", "grid"])
def test_model_json_text_equals_json_dumps(ops):
    for w in [(n, m) for n in range(5) for m in range(20)] + [(6, 300)]:
        assert "".join(model_json_parts(ops, w)) == model_reference(ops, w), w
