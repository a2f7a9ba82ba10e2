"""The DOT writer, which walks a morphism's rows, against DOT text written
from the morphism's two dicts."""

from __future__ import annotations

import pytest

from bsgraph.category import pool_morphisms
from bsgraph.dot import morphism_to_dot
from bsgraph.fixtures import load_fixture

from .conftest import FIXTURE_DIR
from .oracles import maps

COLOUR = {"a": "red", "b": "blue"}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


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
        assert morphism_to_dot(lam) == reference(lam), lam.key()
