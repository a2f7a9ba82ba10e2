"""The DOT writers, which walk the label rows, against DOT text written
from the model graph's pairs and from the morphism's two dicts."""

from __future__ import annotations

import pytest

from bsgraph.category import pool_morphisms
from bsgraph.dot import model_dot_parts, morphism_dot_parts
from bsgraph.fixtures import load_fixture
from bsgraph.words import BS, GRID

from .conftest import FIXTURE_DIR
from .oracles import maps, model

COLOUR = {"a": "red", "b": "blue"}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def model_reference(ops, w) -> str:
    """Each vertex, then each edge, of ``model(ops, w)`` in its pair order,
    each edge drawn from the vertex it reaches to its base."""
    label = [list(map(_quote, row)) for row in ops.label_rows(w)]
    m = model(ops, w)
    lines = ["digraph model {"]
    lines += [f"  {label[i][j]};" for i, j in m.vertices]
    for (i, j), l in m.edges:
        s, t = ops.step((i, j), l)
        lines.append(f"  {label[s][t]} -> {label[i][j]} [color={COLOUR[l]}];")
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("ops", [BS, GRID], ids=["bs", "grid"])
def test_model_dot_equals_the_pair_walk(ops):
    for w in [(n, m) for n in range(5) for m in range(20)] + [(6, 300), (30, 40)]:
        assert "".join(model_dot_parts(ops, w)) == model_reference(ops, w), w


def reference(lam) -> str:
    """Each vertex, then each edge, of lam's domain in model order, labelled
    with its image; vertices are named by ``ops.format``."""
    ops = lam.ops
    vmap, emap = maps(lam)
    lines = ["digraph morphism {"]
    lines += [
        f"  {_quote(ops.format(z))} [label={_quote(ops.format(z) + ' -> ' + v)}];"
        for z, v in vmap.items()
    ]
    lines += [
        f"  {_quote(ops.format(ops.step(z, l)))} -> {_quote(ops.format(z))} "
        f"[label={_quote(e)}, color={COLOUR[l]}];"
        for (z, l), e in emap.items()
    ]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize(
    "name, size", [("example_E.cg", 28), ("grid_single_vertex.cg", 10), ("blue_cycle.cg", 76)]
)
def test_morphism_dot_equals_reference_on_the_pool(name, size):
    ctx = load_fixture(FIXTURE_DIR / name)
    pool = pool_morphisms(ctx, 3)
    assert len(pool) == size
    # The identities, lifted from vertex paths, have no edges at all.
    identities = [lam for lam in pool if not lam.arows[0] and not lam.brows[0]]
    assert len(identities) == len(ctx.graph.vertices)
    for lam in pool:
        assert "".join(morphism_dot_parts(lam)) == reference(lam), lam.key()
