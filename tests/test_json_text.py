"""The one-pass morphism JSON writer against ``json.dumps`` of the
``morphism_json`` reference."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from bsgraph.fixtures import load_fixture, parse_fixture
from bsgraph.graphs import validate_path, vertex_path
from bsgraph.morphisms import enumerate_morphisms, lift_path

from .conftest import FIXTURE_DIR
from .oracles import morphism_json

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


# (context, longest path drawn): BS model graphs grow like 2^length.
CONTEXTS = [
    (load_fixture(FIXTURE_DIR / "example_E.cg"), 8),
    (parse_fixture(ODD_NAMES_BS), 8),
    (load_fixture(FIXTURE_DIR / "grid_single_vertex.cg"), 14),
    (parse_fixture(ODD_NAMES_GRID), 14),
]


def reference(lam, level: int) -> str:
    """``json.dumps(morphism_json(lam), indent=2)`` nested ``level`` deep."""
    return json.dumps(morphism_json(lam), indent=2).replace("\n", "\n" + "  " * level)


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
    return lift_path(ctx, path)


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
