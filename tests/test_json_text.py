"""The one-pass morphism JSON writer against ``json.dumps`` of ``to_json``."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from bsgraph.category import LambdaContext
from bsgraph.fixtures import parse_fixture
from bsgraph.graphs import validate_path, vertex_path
from bsgraph.morphisms import enumerate_morphisms, lift_path
from bsgraph.squares import CompleteCollection

from .conftest import _context

# Names with non-ASCII characters, astral-plane characters, quotes and
# backslashes, which the JSON encoder must escape.
ODD_NAMES_BS = """\
mode bs
vertex ν"\\
vertex v
edge γ b ν"\\ ν"\\
edge "k" b v v
edge f\\ a ν"\\ v
edge h→𝔥 a v ν"\\
square φ1 eA=f\\ aB="k" abB="k" eB=γ bA=f\\
square φ2 eA=h→𝔥 aB=γ abB=γ eB="k" bA=h→𝔥
"""

ODD_NAMES_GRID = """\
mode grid
vertex ω\\"
edge ρ 1 ω\\" ω\\"
edge "β" 2 ω\\" ω\\"
square σ v1=ρ e1v2="β" v2="β" e2v1=ρ
"""


def _parsed(text: str) -> LambdaContext:
    fx = parse_fixture(text)
    return LambdaContext(fx.graph, CompleteCollection(fx.ops, tuple(fx.squares)))


# (context, longest path drawn): BS model graphs grow like 2^length.
CONTEXTS = [
    (_context("example_E.cg"), 8),
    (_parsed(ODD_NAMES_BS), 8),
    (_context("grid_single_vertex.cg"), 14),
    (_parsed(ODD_NAMES_GRID), 14),
]


def reference(lam, level: int) -> str:
    """``json.dumps(lam.to_json(), indent=2)`` nested ``level`` deep."""
    return json.dumps(lam.to_json(), indent=2).replace("\n", "\n" + "  " * level)


@st.composite
def lifts(draw):
    """The lift of a random walk, possibly of length 0 (an identity)."""
    ctx, max_len = draw(st.sampled_from(CONTEXTS))
    g = ctx.graph
    at = draw(st.sampled_from(g.vertices))
    names = []
    for _ in range(draw(st.integers(0, max_len))):
        edge = draw(st.sampled_from([e for e in g.edges if e.range_ == at]))
        names.append(edge.name)
        at = edge.source
    path = validate_path(g, names) if names else vertex_path(g, at)
    return lift_path(g, ctx.collection, path)


@settings(max_examples=150, deadline=None)
@given(lifts(), st.integers(0, 3))
def test_json_text_equals_json_dumps(lam, level):
    assert lam.json_text(level) == reference(lam, level)


def test_odd_names_are_escaped():
    ctx = _parsed(ODD_NAMES_BS)
    lam = lift_path(ctx.graph, ctx.collection, validate_path(ctx.graph, ["h→𝔥", "γ"]))
    text = lam.json_text()
    assert text == reference(lam, 0)
    assert text.isascii() and '"vertex": "\\u03bd\\"\\\\"' in text
    assert '"edge": "h\\u2192\\ud835\\udd25"' in text
    assert json.loads(text) == lam.to_json()


def test_identity_and_enumerated_morphisms():
    for ctx, _ in CONTEXTS:
        g = ctx.graph
        for lam in enumerate_morphisms(g, ctx.collection, ctx.ops.identity):
            assert lam.json_text(2) == reference(lam, 2)
            assert '"edges": []' in lam.json_text()
        for lam in enumerate_morphisms(g, ctx.collection, ctx.ops.square_degree):
            assert lam.json_text(2) == reference(lam, 2)
