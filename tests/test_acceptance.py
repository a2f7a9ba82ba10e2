"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so the
acceptance status is visible in any pytest run.  Timed criteria measure
wall-clock time for the stated operation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from bsgraph.category import all_paths, verify
from bsgraph.cli import run
from bsgraph.errors import NotCovered
from bsgraph.graphs import path_degree, validate_path
from bsgraph.morphisms import (
    check_traverses,
    enumerate_morphisms,
    lift_path,
    longest_traversal,
    shortest_traversal,
)
from bsgraph.squares import CompleteCollection, check_complete
from bsgraph.words import BS, parse_word

from .conftest import FIXTURE_DIR
from .oracles import all_strings, fold_pair, maps, minimal_lengths, rewrite_closure

E = str(FIXTURE_DIR / "example_E.cg")
E_MISSING = str(FIXTURE_DIR / "example_E_missing_phi2.cg")
GRID_FX = str(FIXTURE_DIR / "grid_single_vertex.cg")


@contextmanager
def criterion(capsys, number: int, title: str):
    status = {"ok": False, "detail": ""}
    try:
        yield status
        status["ok"] = True
    finally:
        verdict = "PASS" if status["ok"] else "FAIL"
        detail = f"  ({status['detail']})" if status["detail"] else ""
        with capsys.disabled():
            print(f"{verdict}  criterion {number}: {title}{detail}")


def test_criterion_1_fixture_reproduction(capsys, example_fixture):
    with criterion(capsys, 1, "complete collection {phi1, phi2} on fixture E") as st:
        start = time.perf_counter()
        report = check_complete(
            example_fixture.graph, example_fixture.ops, example_fixture.squares
        )
        elapsed = time.perf_counter() - start
        assert report.complete
        assert report.square_count == 2
        assert report.red_path_count == 2
        assert report.blue_path_count == 2
        assert sorted(sq.red for sq in example_fixture.squares) == [
            ("f", "k", "k"),
            ("h", "g", "g"),
        ]
        assert sorted(sq.blue for sq in example_fixture.squares) == [
            ("g", "f"),
            ("k", "h"),
        ]
        assert elapsed < 1.0
        st["detail"] = f"{elapsed:.3f}s"


def test_criterion_2_lift_reproduction(capsys, ctx):
    with criterion(capsys, 2, "lift of g g f h equals the worked-example morphism") as st:
        start = time.perf_counter()
        lam = lift_path(ctx, validate_path(ctx.graph, ["g", "g", "f", "h"]))
        elapsed = time.perf_counter() - start
        assert lam.degree == (2, 8)
        vmap, emap = maps(lam)
        assert len(vmap) == 17 and len(emap) == 22
        # row-wise images: vertices u/v/u, blues g/k/g, reds f/h
        for z, v in vmap.items():
            assert v == ("u", "v", "u")[z[0]]
        for (z, l), e in emap.items():
            expected = ("g", "k", "g")[z[0]] if l == "b" else ("f", "h")[z[0]]
            assert e == expected
        assert elapsed < 1.0
        st["detail"] = f"{elapsed:.3f}s"


def test_criterion_3_traversal_extremes(capsys, ctx, example_lam):
    with criterion(capsys, 3, "shortest/longest traversals witness b2a2 = a2b8") as st:
        short = shortest_traversal(example_lam)
        long = longest_traversal(example_lam)
        assert short.edges == ("g", "g", "f", "h") and len(short) == 4
        assert long.edges == ("f", "h") + ("g",) * 8 and len(long) == 10
        assert path_degree(BS, short) == path_degree(BS, long) == (2, 8)
        st["detail"] = "lengths 4 and 10, common degree (2,8)"


def test_criterion_4_oracle_uniqueness(capsys, ctx):
    with criterion(capsys, 4, "unique lifting vs enumeration for all paths <= 6") as st:
        start = time.perf_counter()
        enum_memo: dict = {}
        checked = 0
        for path in all_paths(ctx.graph, 6):
            w = path_degree(BS, path)
            if w not in enum_memo:
                enum_memo[w] = enumerate_morphisms(ctx, w)
            matches = [
                m for m in enum_memo[w] if check_traverses(m, path)
            ]
            lam = lift_path(ctx, path)
            assert matches == [lam], str(path)
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 2 + sum(2 ** (n + 2) for n in range(6))  # 2 + 252
        assert elapsed < 120.0
        st["detail"] = f"{checked} paths, {elapsed:.1f}s"


def test_criterion_5_verification_suites(capsys, example_fixture):
    with criterion(capsys, 5, "verify --max-len 4 on fixture E and the grid fixture") as st:
        start = time.perf_counter()
        instances = 0
        for path in (E, GRID_FX):
            code = run(["verify", path, "--max-len", "4"])
            out = capsys.readouterr().out
            assert code == 0, out
            assert "FAIL" not in out
            instances += sum(
                int(line.split("(")[1].split()[0])
                for line in out.splitlines()
                if "(" in line
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        st["detail"] = f"{instances} law instances, {elapsed:.1f}s"


def test_criterion_6_word_arithmetic_soundness(capsys):
    with criterion(capsys, 6, "pair arithmetic vs string-rewriting oracle") as st:
        start = time.perf_counter()
        strings = list(all_strings(8))
        # 510 = 2 + 4 + ... + 2^8 nonempty strings over the 2-letter alphabet
        assert len(strings) == 510
        classes: dict = {}
        for s in strings:
            assert parse_word(s) == fold_pair(s)
            classes.setdefault(fold_pair(s), set()).add(s)
        for pair, members in classes.items():
            closure = rewrite_closure(next(iter(members)))
            assert {t for t in closure if t and len(t) <= 8} == members
            assert all(fold_pair(t) == pair for t in closure)
        minlen = minimal_lengths(11)
        for n in range(4):
            for m in range(9):
                w = (n, m)
                s = BS.format(w)
                assert (0 if s == "e" else len(s)) == minlen[w]
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        st["detail"] = f"510 strings, {len(classes)} classes, {elapsed:.1f}s"


def test_criterion_7_grid_cross_check(capsys, grid_ctx):
    with criterion(capsys, 7, "grid fixture: |Lambda^(m,n)| = 1 for m+n <= 6") as st:
        start = time.perf_counter()
        degrees = 0
        for m in range(7):
            for n in range(7 - m):
                w = (m, n)
                found = enumerate_morphisms(grid_ctx, w)
                assert len(found) == 1, (m, n)
                letters = ["rho"] * m + ["beta"] * n
                if letters:
                    path = validate_path(grid_ctx.graph, letters)
                    assert lift_path(grid_ctx, path) == found[0]
                degrees += 1
        assert verify(grid_ctx, 3).passed
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        st["detail"] = f"{degrees} degrees, {elapsed:.1f}s"


def test_criterion_8_negative_paths(capsys, incomplete_fixture):
    with criterion(capsys, 8, "incomplete collection is detected and witnessed") as st:
        code = run(["check", E_MISSING])
        out = capsys.readouterr().out
        assert code == 1
        assert "h g g" in out and "k h" in out
        coll = incomplete_fixture
        with pytest.raises(NotCovered) as exc:
            lift_path(coll, validate_path(coll.graph, ["g", "g", "f", "h"]))
        assert exc.value.boundary in (("k", "h"), ("h", "g", "g"))
        code = run(["lift", E_MISSING, "--path", "g g f h"])
        out = capsys.readouterr().out
        assert code == 1 and "NotCovered" in out
        st["detail"] = f"uncovered boundary {' '.join(exc.value.boundary)}"
