"""Composition, factorization, and the law-verification sweeps."""

from __future__ import annotations

import json
import pathlib
import sys
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsgraph.category as category
from bsgraph.category import (
    SUITES,
    CompositionTable,
    LawResult,
    VerificationReport,
    all_paths,
    pool_morphisms,
    verify_category,
    verify_factorization,
    verify_functor,
)
from bsgraph.cli import run
from bsgraph.errors import BsGraphError, Conflict, NotComposable, NotCovered, UnknownVertex
from bsgraph.fixtures import load_fixture, parse_fixture
from bsgraph.graphs import Path, concat, validate_path, vertex_path
from bsgraph.morphisms import (
    _rule,
    identity_morphism,
    lift_path,
    normal_form,
    shortest_traversal,
    split_traversals,
)
from bsgraph.squares import CompleteCollection, check_complete
from bsgraph.words import BS, GRID

from .conftest import FIXTURE_DIR
from .oracles import compose, maps, restrict, restrict_shifted, square_map
from .test_lift import DUPLICATED_RED, multi_vertex_paths
from .test_normal_form import _one_vertex, generated_paths


def _lift(ctx, names):
    return lift_path(ctx, validate_path(ctx.graph, names))


def test_identity(ctx):
    lam_u = lift_path(ctx, vertex_path(ctx.graph, "u"))
    assert lam_u == identity_morphism(BS, "u")
    assert lam_u.degree == BS.identity
    assert lam_u.range_ == lam_u.source == "u"
    with pytest.raises(UnknownVertex):
        vertex_path(ctx.graph, "zz")


def test_compose_square_from_blue_then_red(ctx, phi1):
    lam = compose(ctx, _lift(ctx, ["g"]), _lift(ctx, ["f"]))
    assert lam.degree == (1, 2)
    assert maps(lam)[1] == square_map(BS, phi1)


def test_compose_reproduces_worked_example(ctx, example_lam):
    lam = compose(ctx, _lift(ctx, ["g", "g"]), _lift(ctx, ["f", "h"]))
    assert lam == example_lam


def test_compose_identity_laws(ctx):
    lam = _lift(ctx, ["g", "g", "f", "h"])
    assert compose(ctx, identity_morphism(BS, lam.range_), lam) == lam
    assert compose(ctx, lam, identity_morphism(BS, lam.source)) == lam


def test_compose_requires_meeting(ctx):
    with pytest.raises(NotComposable):
        compose(ctx, _lift(ctx, ["f"]), _lift(ctx, ["g"]))  # s(f)=v, r(g)=u


def test_compose_restricts_to_factors(ctx):
    mu = _lift(ctx, ["g", "g"])
    nu = _lift(ctx, ["f", "h"])
    lam = compose(ctx, mu, nu)
    assert restrict(lam, mu.degree) == mu
    assert restrict_shifted(lam, mu.degree, lam.degree) == nu


def test_factorize_examples(ctx, example_lam):
    x, y = split_traversals(example_lam, (0, 2), (2, 0))
    assert x.edges == ("g", "g")
    assert y.edges == ("f", "h")
    left, right = split_traversals(example_lam, BS.identity, example_lam.degree)
    assert left == vertex_path(ctx.graph, example_lam.range_)
    assert right == shortest_traversal(example_lam)


def test_factorize_square_at_b(ctx, phi1):
    sq = _lift(ctx, ["g", "f"])
    x, y = split_traversals(sq, (0, 1), (1, 0))
    assert x.edges == ("g",)
    assert y.edges == ("f",)


def test_example_morphism_has_17_splits(ctx, example_lam):
    splits = [
        split_traversals(example_lam, w1, BS.quotient(w1, example_lam.degree))
        for w1 in BS.prefixes(example_lam.degree)
    ]
    assert len(splits) == 17
    for x, y in splits:
        assert lift_path(ctx, concat(x, y)) == example_lam


def test_all_paths_counts(ctx):
    # each vertex of E has exactly two incoming-extension choices
    paths = all_paths(ctx.graph, 2)
    lengths = sorted(len(p) for p in paths)
    assert lengths.count(0) == 2 and lengths.count(1) == 4 and lengths.count(2) == 8


def test_pool_is_deduplicated(ctx):
    pool = pool_morphisms(ctx, 3)
    assert len({m.key() for m in pool}) == len(pool)


def test_verify_suites_pass_small(ctx):
    table = CompositionTable(ctx, 2)
    assert verify_category(table).passed
    assert verify_functor(table).passed
    assert verify_factorization(table).passed


def test_verify_functor_multiplicativity_example(ctx):
    lam = compose(ctx, _lift(ctx, ["g", "g"]), _lift(ctx, ["f", "h"]))
    assert lam.degree == BS.mul((0, 2), (2, 0)) == (2, 8)


# The other edge of the same colour in example_E.cg: g <-> k (blue), f <-> h (red).
OTHER = {"g": "k", "k": "g", "f": "h", "h": "f"}


def _swap_interior_edge(real):
    """A composite that swaps one interior edge of every result of length
    >= 3 for the other edge of its colour, keeping the endpoints."""

    def corrupted(table, i, j):
        edges, range_, source, colours = real(table, i, j)
        if len(edges) < 3:
            return edges, range_, source, colours
        return edges[:1] + (OTHER[edges[1]],) + edges[2:], range_, source, colours

    return corrupted


def _drop_last_edge(real):
    """A composite that loses the last edge of every result of length >= 3,
    which also changes its degree."""

    def corrupted(table, i, j):
        edges, range_, source, colours = real(table, i, j)
        if len(edges) < 3:
            return edges, range_, source, colours
        return edges[:-1], range_, source, colours[:-1]

    return corrupted


def test_verify_category_reports_counterexample(ctx, monkeypatch):
    """Fault injection: corrupting the sweep's composite must surface a
    counterexample."""
    monkeypatch.setattr(category, "composite", _swap_interior_edge(category.composite))
    report = category.verify(ctx, 2, ("category",))
    assert not report.passed
    failing = [law for law in report.laws if not law.passed]
    assert failing and all(law.counterexample for law in failing)


def test_fault_is_found_after_a_clean_run_on_the_same_context(ctx, monkeypatch):
    """No composite outlives its run: a composite corrupted after a clean
    run on the same context is called again, and caught."""
    assert category.verify(ctx, 2, ("category",)).passed
    assert category.verify(ctx, 2).passed
    monkeypatch.setattr(category, "composite", _swap_interior_edge(category.composite))
    assert not category.verify(ctx, 2, ("category",)).passed
    assert not category.verify(ctx, 2).passed


def test_verify_text_prints_each_counterexample(monkeypatch, capsys):
    """A failing law's text line is followed by its counterexample."""
    monkeypatch.setattr(category, "composite", _drop_last_edge(category.composite))
    argv = ["verify", str(FIXTURE_DIR / "example_E.cg"), "--max-len", "2", "--laws", "category"]
    assert run(argv) == 1
    assert capsys.readouterr().out == (
        "FAIL  range/source of composites  (20 instances)\n"
        "      counterexample: degree b from u to u ; degree ba from u to v\n"
        "FAIL  associativity  (17 instances)\n"
        "      counterexample: degree e from u to u ; degree bb from u to u ; "
        "degree bb from u to u\n"
        "pass  identity laws  (14 instances)\n"
    )


def test_fault_fails_every_law_that_composes(ctx, monkeypatch):
    """Through ``verify`` the suites share one table, so a corrupted
    composite fails the functor and factorization laws as well."""
    monkeypatch.setattr(category, "composite", _drop_last_edge(category.composite))
    report = category.verify(ctx, 3)
    failing = [law for law in report.laws if not law.passed]
    assert [law.name for law in failing] == [
        "range/source of composites",
        "associativity",
        "identity laws",
        "degree multiplicative on composites",
        "factorize/compose round-trip",
        "factor pair uniqueness",
    ]
    assert all(law.counterexample for law in failing)


def _by_range(paths: list) -> dict:
    """Vertex -> (path, id) of the paths with that range, in id order."""
    out: dict = {}
    for j, y in enumerate(paths):
        out.setdefault(y.range_, []).append((y, j))
    return out


def _table_matches_rewriting(ctx, max_len: int) -> int:
    """Every composable pair of pool traversals: the table's composite is
    the normal form of the concatenation.  Returns the pair count."""
    table = CompositionTable(ctx, max_len)
    paths = table.paths[:len(table.pool)]
    assert paths == [shortest_traversal(lam) for lam in table.pool]
    assert [table.intern(x) for x in paths] == list(range(len(paths)))
    by_range = _by_range(paths)
    pairs = 0
    for i, x in enumerate(paths):
        for y, j in by_range.get(x.source, ()):
            z = normal_form(ctx, concat(x, y))
            k = table.compose(i, j)
            assert table.paths[k] == z, f"{x} ; {y}"
            assert table.intern(Path(z.edges, z.range_, z.source, z.colours)) == k
            pairs += 1
    return pairs


def _junctions_match_rewriting(ctx, max_len: int) -> int:
    """Once every pair of pool ids is composed, every interned id on the
    left (pool traversal or pair product, like the left factors of
    associativity's triple products) and every composable pool id on the
    right: ``composite`` is the normal form of the whole concatenation.
    Returns the number of such products."""
    table = CompositionTable(ctx, max_len)
    by_range = _by_range(table.paths[:len(table.pool)])
    for i, x in enumerate(table.paths[:len(table.pool)]):
        for _, j in by_range.get(x.source, ()):
            table.compose(i, j)
    assert len(table.paths) > len(table.pool)
    products = 0
    for i, x in enumerate(list(table.paths)):
        for y, j in by_range.get(x.source, ()):
            z = normal_form(ctx, concat(x, y))
            assert category.composite(table, i, j) == (z.edges, z.range_, z.source, z.colours)
            products += 1
    return products


@pytest.mark.parametrize("name, pairs", [("ctx", 392), ("grid_ctx", 100), ("blue_cycle_ctx", 2888)])
def test_table_composites_are_normal_forms_on_fixtures(name, pairs, request):
    assert _table_matches_rewriting(request.getfixturevalue(name), 3) == pairs


@pytest.mark.parametrize(
    "name, products", [("ctx", 2212), ("grid_ctx", 280), ("blue_cycle_ctx", 61788)]
)
def test_composites_at_the_junction_are_normal_forms_on_fixtures(name, products, request):
    assert _junctions_match_rewriting(request.getfixturevalue(name), 3) == products


@settings(max_examples=20, deadline=None)
@given(generated_paths(1))
def test_table_composites_are_normal_forms_on_one_vertex_collections(drawn):
    ctx, _ = drawn
    assert _table_matches_rewriting(ctx, 3) > 0
    assert _junctions_match_rewriting(ctx, 2) > 0


@settings(max_examples=6, deadline=None)
@given(multi_vertex_paths())
def test_table_composites_are_normal_forms_on_multi_vertex_collections(drawn):
    ctx, _ = drawn
    assert _table_matches_rewriting(ctx, 3) > 0
    assert _junctions_match_rewriting(ctx, 2) > 0


@pytest.mark.parametrize("ops, last", [(BS, "b"), (GRID, "a")])
def test_rewrite_pattern_is_a_letter_then_a_run_of_the_last(ops, last):
    """The junction lemma behind ``composite``: a pattern that is one
    letter and then a run of its last letter can only match across the
    junction of two normal forms within the right one's leading run of
    that letter."""
    pattern = _rule(ops)[0]
    assert pattern[-1] == last != pattern[0]
    assert pattern == pattern[0] + last * (len(pattern) - 1)


@pytest.mark.parametrize("name", ["ctx", "grid_ctx", "blue_cycle_ctx"])
def test_composite_calls_normal_form_only_where_it_rewrites(name, request, monkeypatch):
    """Without a run on the right, or with one too short to complete the
    pattern at the left factor's end, the composite is the concatenation:
    every head ``normal_form`` sees has something to rewrite."""
    rewrote = []

    def counted(collection, x):
        y = normal_form(collection, x)
        rewrote.append(y is not x)
        return y

    monkeypatch.setattr(category, "normal_form", counted)
    assert category.verify(request.getfixturevalue(name), 3).passed
    assert rewrote and all(rewrote)


def test_table_interns_only_pool_traversals_and_pair_products(ctx):
    """Associativity compares its triple products without interning them:
    after the category suite every interned id is a pool traversal or the
    composite of two pool ids."""
    table = CompositionTable(ctx, 3)
    assert verify_category(table).passed
    pool_paths = table.paths[:len(table.pool)]
    products = {
        normal_form(ctx, concat(x, y)) for x in pool_paths for y in pool_paths if x.source == y.range_
    }
    assert len(table.paths) > len(pool_paths)
    assert all(x in products for x in table.paths[len(pool_paths):])


def test_table_pairs_are_the_composable_pool_pairs_in_pool_order(ctx):
    table = CompositionTable(ctx, 3)
    paths = table.paths[:len(table.pool)]
    assert table.after == {
        v: [j for j, y in enumerate(paths) if y.range_ == v] for v in ctx.graph.vertices
    }
    assert list(table.pairs()) == [
        (i, j) for i, x in enumerate(paths) for j, y in enumerate(paths) if x.source == y.range_
    ]


@pytest.mark.parametrize("name, max_len", [("ctx", 3), ("grid_ctx", 3), ("blue_cycle_ctx", 2)])
def test_products_rows_are_made_for_left_factors_only(name, max_len, request):
    """After all three suites the table holds a products row for exactly
    the ids composed on the left; every other id reads an empty row."""
    table = CompositionTable(request.getfixturevalue(name), max_len)
    left = set()
    compose = table.compose

    def recorded(i, j):
        left.add(i)
        return compose(i, j)

    table.compose = recorded
    for suite in (verify_category, verify_functor, verify_factorization):
        assert suite(table).passed
    assert set(table._products) == left
    assert {i for i in range(len(table.paths)) if table.row(i)} == left
    assert len(left) < len(table.paths)


def test_verify_refuses_an_unknown_suite_before_lifting(ctx, monkeypatch):
    """The library checks suite names itself, with the CLI's message, and
    lifts no path of the pool first."""

    def no_lift(collection, x):
        raise AssertionError(f"lifted {x} before checking the suite names")

    monkeypatch.setattr(category, "lift_path", no_lift)
    with pytest.raises(BsGraphError) as exc:
        category.verify(ctx, 2, ["bogus"])
    assert type(exc.value) is BsGraphError
    assert str(exc.value) == (
        "unknown law suite(s): bogus; the suites are category, functor, factorization"
    )


def test_verify_reads_a_generator_of_suites_once(ctx):
    report = category.verify(ctx, 2, (name for name in ["functor"]))
    assert [law.name for law in report.laws] == [
        "degree multiplicative on composites",
        "identities map to e",
    ]


def test_category_suite_memory_on_blue_cycle():
    """The category suite keeps the pair products and the heads it
    rewrote, not the triple products of associativity: on blue_cycle.cg at
    max-len 3 it peaks below 6 MiB of traced memory (17.7 MiB when every
    triple product was interned)."""
    ctx = load_fixture(FIXTURE_DIR / "blue_cycle.cg")
    tracemalloc.start()
    try:
        assert category.verify(ctx, 3, ("category",)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_pool_morphisms_sharing_a_shortest_traversal_conflict(ctx, monkeypatch):
    """Pool morphism n is id n, so two pool morphisms given one shortest
    traversal are refused rather than merged into one id."""
    g = ctx.graph
    with monkeypatch.context() as patched:
        patched.setattr(category, "shortest_traversal", lambda lam: vertex_path(g, lam.range_))
        with pytest.raises(Conflict) as exc:
            category.verify(ctx, 2)
    assert str(exc.value) == "two morphisms of the pool have the shortest traversal u"
    assert category.verify(ctx, 2).passed


@pytest.mark.parametrize(
    "fixture, max_len", [("example_E", 3), ("grid_single_vertex", 3), ("blue_cycle", 2)]
)
@pytest.mark.parametrize("fault", [None, _drop_last_edge])
def test_suite_subsets_report_their_suites_in_order(fixture, max_len, fault, monkeypatch):
    """Every ordered non-empty subset of the suites reports the laws of
    each suite run alone, in the subset's order, clean and under a
    corrupted composite."""
    ctx = load_fixture(FIXTURE_DIR / f"{fixture}.cg")
    if fault:
        monkeypatch.setattr(category, "composite", fault(category.composite))
    alone = {name: category.verify(ctx, max_len, (name,)).laws for name in SUITES}
    subsets = [s for r in range(1, len(SUITES) + 1) for s in permutations(SUITES, r)]
    assert len(subsets) == 15
    for subset in subsets:
        expected = [law for name in subset for law in alone[name]]
        assert category.verify(ctx, max_len, subset).laws == expected, subset


def _splits_match_restriction(ctx, max_len: int) -> int:
    """Every split of every pool morphism: the traversals read off the
    morphism are the shortest traversals of the restricted factors, and
    each lifts back to its dense factor, as ``factorize --json`` writes it.
    Returns the split count."""
    ops = ctx.ops
    splits = 0
    for lam in pool_morphisms(ctx, max_len):
        for w1 in ops.prefixes(lam.degree):
            w2 = ops.quotient(w1, lam.degree)
            mu, nu = restrict(lam, w1), restrict_shifted(lam, w1, lam.degree)
            x, y = split_traversals(lam, w1, w2)
            where = f"{lam.key()} at {w1}"
            assert (x, y) == (shortest_traversal(mu), shortest_traversal(nu)), where
            assert (lift_path(ctx, x), lift_path(ctx, y)) == (mu, nu), where
            splits += 1
    return splits


@pytest.mark.parametrize("name, splits", [("ctx", 122), ("grid_ctx", 35)])
def test_splits_are_restrictions_on_fixtures(name, splits, request):
    assert _splits_match_restriction(request.getfixturevalue(name), 3) == splits


@settings(max_examples=20, deadline=None)
@given(generated_paths(1))
def test_splits_are_restrictions_on_one_vertex_collections(drawn):
    ctx, _ = drawn
    assert _splits_match_restriction(ctx, 3) > 0


@settings(max_examples=6, deadline=None)
@given(multi_vertex_paths())
def test_splits_are_restrictions_on_multi_vertex_collections(drawn):
    ctx, _ = drawn
    assert _splits_match_restriction(ctx, 3) > 0


def _swap_first_red_edge_of_right_factor(real):
    """A splitter whose right factor has its first red edge r0 <-> r1
    swapped, on a one-vertex collection, where that is still a path."""

    def corrupted(lam, w1, w2):
        mu, nu = real(lam, w1, w2)
        if "a" not in nu.colours:
            return mu, nu
        i = nu.colours.index("a")
        swapped = {"r0": "r1", "r1": "r0"}[nu.edges[i]]
        return mu, Path(nu.edges[:i] + (swapped,) + nu.edges[i + 1:], nu.range_, nu.source, nu.colours)

    return corrupted


def test_corrupted_split_fails_round_trip_and_uniqueness(monkeypatch):
    """Fault injection: a split that is not the pool morphism's own must
    fail the round-trip law (it composes to another morphism) and the
    uniqueness law (enumeration's one factor pair is not the split)."""
    ctx = _one_vertex("bs", [1, 0])
    assert category.verify(ctx, 2).passed
    monkeypatch.setattr(
        category, "split_traversals", _swap_first_red_edge_of_right_factor(split_traversals)
    )
    report = category.verify(ctx, 2)
    failing = {law.name: law.counterexample for law in report.laws if not law.passed}
    assert list(failing) == ["factorize/compose round-trip", "factor pair uniqueness"]
    assert all(failing.values())
    assert failing["factor pair uniqueness"].endswith(
        "enumeration's factor pair is not the split"
    )


FAULT_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "faults.json"


def _fault_cases() -> dict:
    """Case name -> (context, patched name, corruption, suites, max_len):
    each composite fault under all suites ("verify") and the category suite
    alone ("verify_category") at max-len 2 and 3 on example_E.cg, and the
    corrupted split of
    ``test_corrupted_split_fails_round_trip_and_uniqueness``."""
    cases = {}
    for fault in (_drop_last_edge, _swap_interior_edge):
        for case, suites in (("verify", SUITES), ("verify_category", ("category",))):
            for max_len in (2, 3):
                name = f"{case}-{fault.__name__.strip('_')}-len{max_len}"
                cases[name] = (
                    lambda: load_fixture(FIXTURE_DIR / "example_E.cg"),
                    "composite",
                    fault,
                    suites,
                    max_len,
                )
    cases["verify-corrupted-split-len2"] = (
        lambda: _one_vertex("bs", [1, 0]),
        "split_traversals",
        _swap_first_red_edge_of_right_factor,
        SUITES,
        2,
    )
    return cases


FAULT_CASES = _fault_cases()


def fault_verification(case: str) -> VerificationReport:
    """The report of one fault case, with the fault in place only while
    its suites run."""
    make_ctx, name, fault, suites, max_len = FAULT_CASES[case]
    ctx = make_ctx()
    real = getattr(category, name)
    setattr(category, name, fault(real))
    try:
        return category.verify(ctx, max_len, suites)
    finally:
        setattr(category, name, real)


def fault_report(case: str) -> dict:
    """The full JSON report of one fault case."""
    return fault_verification(case).to_json()


@pytest.fixture(scope="module")
def fault_golden() -> dict:
    return json.loads(FAULT_GOLDEN.read_text(encoding="utf-8"))


def test_fault_golden_covers_every_case(fault_golden):
    assert sorted(fault_golden) == sorted(FAULT_CASES)


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_fault_report_is_pinned(case, fault_golden):
    """Instance counts and counterexamples of each failing law, exactly."""
    assert fault_report(case) == fault_golden[case]


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_report_json_text_is_json_dumps_on_faults(case):
    report = fault_verification(case)
    assert not report.passed
    assert report.json_text() == json.dumps(report.to_json(), indent=2)


def test_report_json_text_is_json_dumps_on_an_empty_report():
    report = VerificationReport([])
    assert report.json_text() == json.dumps(report.to_json(), indent=2) == (
        '{\n  "passed": true,\n  "laws": []\n}'
    )


# Text with quotes, backslashes, control characters, non-ASCII and astral
# characters and lone surrogates, all of which the encoder escapes.
ODD_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é→𝔥%{}'),
        st.characters(exclude_categories=()),
    )
)


@given(st.lists(st.tuples(
    ODD_TEXT, st.integers(0, 10**12), st.booleans(), st.none() | ODD_TEXT
)))
def test_report_json_text_is_json_dumps_on_drawn_laws(laws):
    report = VerificationReport([LawResult(*law) for law in laws])
    assert report.json_text() == json.dumps(report.to_json(), indent=2)


def test_verify_builds_no_model_graph(ctx, monkeypatch):
    """``verify`` builds no model graph: splits are read off the pool
    morphisms, and the enumeration oracle numbers its domain from the row
    widths alone.  No module of the library has a pair-list model graph
    to build (``tests/oracles.model`` is the tests' own)."""
    real_enumerate = category.enumerate_morphisms
    calls = {"enumeration": 0}

    def counted(*args, **kwargs):
        calls["enumeration"] += 1
        return real_enumerate(*args, **kwargs)

    monkeypatch.setattr(category, "enumerate_morphisms", counted)
    assert category.verify(ctx, 3).passed
    library = [module for name, module in sys.modules.items() if name.split(".")[0] == "bsgraph"]
    assert len(library) > 1
    assert not [m for m in library for name in ("model", "ModelGraph") if hasattr(m, name)]
    assert calls["enumeration"] > 0


# Every boundary path has a square, but r1 b b, r2 b b, b r2 and b r1 each
# bound two.
FOUR_SQUARES = (
    "mode bs\nvertex x\nedge b b x x\nedge r1 a x x\nedge r2 a x x\n"
    "square A eA=r2 aB=b abB=b eB=b bA=r2\n"
    "square B eA=r1 aB=b abB=b eB=b bA=r1\n"
    "square C eA=r1 aB=b abB=b eB=b bA=r2\n"
    "square D eA=r2 aB=b abB=b eB=b bA=r1\n"
)


def test_require_covered_names_the_first_duplicated_boundary():
    """The first duplicated red-first boundary in map order is named."""
    with pytest.raises(Conflict) as exc:
        parse_fixture(FOUR_SQUARES).require_covered()
    assert str(exc.value).startswith("the red-first boundary r2 b b belongs to more than one square")


def _agreement_cases() -> list:
    """Every shipped fixture, the inline S'/S and A-D collections, and
    blue_cycle.cg with each of its squares dropped in turn."""
    fixtures = {p.stem: load_fixture(p) for p in sorted(FIXTURE_DIR.glob("*.cg"))}
    fixtures.update({"S'/S": parse_fixture(DUPLICATED_RED), "A-D": parse_fixture(FOUR_SQUARES)})
    cases = [
        pytest.param((fx.graph, fx.ops, tuple(fx.squares)), id=name)
        for name, fx in fixtures.items()
    ]
    cycle = fixtures["blue_cycle"]
    for k, sq in enumerate(cycle.squares):
        squares = tuple(cycle.squares[:k] + cycle.squares[k + 1:])
        cases.append(pytest.param((cycle.graph, cycle.ops, squares), id=f"blue_cycle-{sq.name}"))
    return cases


@pytest.mark.parametrize("case", _agreement_cases())
def test_require_covered_agrees_with_check_complete(case):
    """require_covered raises exactly when check_complete finds an
    uncovered or duplicated boundary, and names its first blue-first
    uncovered one, else its first red-first uncovered one, else its first
    duplicated one."""
    report = check_complete(*case)
    coll = CompleteCollection(*case)
    expected = [
        (kind, found[0])
        for kind, found in (
            (NotCovered, report.uncovered_blue),
            (NotCovered, report.uncovered_red),
            (Conflict, report.duplicated),
        )
        if found
    ]
    if not expected:
        assert report.complete
        coll.require_covered()
        return
    kind, boundary = expected[0]
    with pytest.raises(BsGraphError) as exc:
        coll.require_covered()
    assert type(exc.value) is kind
    if kind is NotCovered:
        assert exc.value.boundary == boundary
    else:
        assert f" boundary {' '.join(boundary)} belongs to more than one square" in str(exc.value)


def test_empty_graph_passes_vacuously():
    from bsgraph.graphs import build_graph

    table = CompositionTable(CompleteCollection(build_graph([], []), BS, ()), 3)
    assert verify_category(table).passed
    assert verify_functor(table).passed
    assert verify_factorization(table).passed


def test_report_serialization(ctx):
    report = verify_functor(CompositionTable(ctx, 2))
    data = report.to_json()
    assert data["passed"] is True
    assert all(set(l) == {"law", "instances", "passed", "counterexample"} for l in data["laws"])
    assert "pass" in report.to_text()


if __name__ == "__main__":
    # Regenerate the pinned fault reports, only when a report change is
    # intended:  PYTHONPATH=src python -m tests.test_category
    recorded = {case: fault_report(case) for case in sorted(FAULT_CASES)}
    FAULT_GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} fault reports to {FAULT_GOLDEN}")
