from __future__ import annotations

import pathlib

import pytest

from bsgraph.fixtures import load_fixture
from bsgraph.graphs import validate_path
from bsgraph.morphisms import lift_path
from bsgraph.squares import CompleteCollection

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir() -> pathlib.Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def example_fixture():
    return load_fixture(FIXTURE_DIR / "example_E.cg")


@pytest.fixture(scope="session")
def ctx(example_fixture) -> CompleteCollection:
    return example_fixture


@pytest.fixture(scope="session")
def graph_E(ctx):
    return ctx.graph


@pytest.fixture(scope="session")
def phi1(ctx):
    return next(sq for sq in ctx.squares if sq.name == "phi1")


@pytest.fixture(scope="session")
def phi2(ctx):
    return next(sq for sq in ctx.squares if sq.name == "phi2")


@pytest.fixture(scope="session")
def example_lam(ctx):
    """The worked-example morphism on the model graph of b^2 a^2."""
    return lift_path(ctx, validate_path(ctx.graph, ["g", "g", "f", "h"]))


@pytest.fixture(scope="session")
def incomplete_fixture():
    return load_fixture(FIXTURE_DIR / "example_E_missing_phi2.cg")


@pytest.fixture(scope="session")
def grid_ctx() -> CompleteCollection:
    return load_fixture(FIXTURE_DIR / "grid_single_vertex.cg")


@pytest.fixture(scope="session")
def blue_cycle_ctx() -> CompleteCollection:
    return load_fixture(FIXTURE_DIR / "blue_cycle.cg")
