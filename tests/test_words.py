"""Degree-monoid arithmetic, checked against string-rewriting oracles."""

from __future__ import annotations

import itertools
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgraph.errors import NotAPrefix, ResourceLimit, WordSyntaxError
from bsgraph.words import (
    BS,
    GRID,
    MAX_LABEL_LETTERS,
    MAX_LETTERS,
    MAX_PAIR_BITS,
    BsMonoid,
    GridMonoid,
    longest_form,
    parse_grid_degree,
    parse_word,
    printable_pair,
    row_letters,
)

from .oracles import all_strings, brute_prefixes, fold_pair, minimal_lengths, rewrite_closure
from .test_lift import left_factor

# M is capped because longest_form materialises M letters.
words = st.tuples(st.integers(0, 10), st.integers(0, 2**12))
big_words = st.tuples(st.integers(0, 10), st.integers(0, 2**60))
small_words = st.tuples(st.integers(0, 4), st.integers(0, 32))
letter_strings = st.text(alphabet="ab", max_size=10)
modes = st.sampled_from([BS, GRID])
# The k of each mode's relation ab^k = ba, for the string oracles.
K = {"bs": 2, "grid": 1}


def test_multiplication_law_examples():
    assert BS.mul((0, 1), (1, 0)) == (1, 2)  # b * a = ab^2
    assert BS.mul((0, 0), (2, 8)) == (2, 8)
    assert BS.mul((0, 2), (2, 0)) == (2, 8)  # b^2 a^2 = a^2 b^8


def test_parse_word_examples():
    assert parse_word("ba") == (1, 2)
    assert parse_word("") == (0, 0)
    assert parse_word("e") == (0, 0)
    assert parse_word("abab") == (2, 3)
    assert parse_word("a^2 b^8") == (2, 8)
    assert parse_word("a2.b8") == (2, 8)


@pytest.mark.parametrize("bad", ["xyz", "a^-1", "a^", "b-2"])
def test_parse_word_rejects(bad):
    with pytest.raises(WordSyntaxError):
        parse_word(bad)


def test_negative_exponents_rejected():
    # Degrees enter only through the parsers, which reject negatives.
    with pytest.raises(WordSyntaxError):
        parse_grid_degree("-1,0")
    with pytest.raises(WordSyntaxError):
        parse_grid_degree("0,-1")


@given(modes, letter_strings)
def test_fold_matches_string_oracle(ops, s):
    pair = fold_pair(s, K[ops.name])
    assert parse_word(s, ops) == pair
    assert reduce(ops.step, s, ops.identity) == pair


@pytest.mark.parametrize("ops", [BS, GRID])
def test_square_degree_is_the_fold_of_both_boundary_words(ops):
    k = K[ops.name]
    red, blue = ("".join(word) for word in (ops.red_first_word, ops.blue_first_word))
    assert fold_pair(red, k) == fold_pair(blue, k) == ops.square_degree == (1, k)


def test_the_arithmetic_is_written_once():
    """GRID is the shift-0 case of BsMonoid: it inherits every operation on
    pairs and declares only its written forms."""
    shared = {"mul", "step", "is_prefix", "quotient", "row_widths", "prefixes", "prefix_count"}
    assert shared <= vars(BsMonoid).keys()
    assert not shared & vars(GridMonoid).keys()
    assert (BS.shift, GRID.shift) == (1, 0)


@given(modes, big_words, big_words, big_words)
def test_associativity(ops, x, y, z):
    assert ops.mul(ops.mul(x, y), z) == ops.mul(x, ops.mul(y, z))


@given(modes, words)
def test_identity(ops, w):
    e = ops.identity
    assert e == (0, 0)
    assert ops.mul(e, w) == w
    assert ops.mul(w, e) == w


@given(words)
def test_normal_form_round_trips(w):
    assert parse_word(BS.format(w)) == w
    assert parse_word(longest_form(w)) == w


@given(modes, words, words)
def test_prefix_quotient_cancels(ops, w1, w2):
    w = ops.mul(w1, w2)
    assert ops.is_prefix(w1, w)
    assert ops.quotient(w1, w) == w2
    assert ops.mul(w1, ops.quotient(w1, w)) == w


def test_prefix_examples():
    assert BS.is_prefix((0, 1), (2, 4))  # b <= ba^2
    assert not BS.is_prefix((0, 1), (2, 3))  # b is not <= abab
    assert BS.is_prefix((2, 8), (2, 8))


def test_quotient_examples():
    assert BS.quotient((0, 2), (2, 8)) == (2, 0)
    assert BS.quotient((1, 2), (1, 2)) == (0, 0)
    assert BS.quotient((0, 1), (2, 4)) == (2, 0)
    with pytest.raises(NotAPrefix):
        BS.quotient((1, 0), (0, 5))


def test_shortest_form_examples():
    assert BS.format((1, 2)) == "ba"
    assert BS.format((0, 0)) == "e"
    assert BS.format((2, 3)) == "abab"


def test_longest_form_examples():
    assert longest_form((2, 8)) == "aabbbbbbbb"
    assert longest_form((0, 0)) == "e"
    assert longest_form((1, 2)) == "abb"


@given(small_words)
def test_shortest_form_has_no_abb_factor(w):
    s = BS.format(w)
    assert "abb" not in s.replace("e", "")


def test_representation_soundness_against_rewriting_oracle():
    """fold(s1) = fold(s2) iff s1 and s2 are connected by abb <-> ba,
    over every nonempty letter string of length <= 8."""
    strings = list(all_strings(8))
    assert len(strings) == 510  # 2 + 4 + ... + 2^8
    classes: dict[tuple[int, int], set[str]] = {}
    for s in strings:
        classes.setdefault(fold_pair(s), set()).add(s)
    for pair, members in classes.items():
        closure = rewrite_closure(next(iter(members)))
        # connectivity: every equal-pair string is reachable ...
        assert members <= closure
        # ... and rewriting never changes the pair.
        assert all(fold_pair(t) == pair for t in closure)
        # the closure contains no *other* string of length <= 8
        assert {t for t in closure if len(t) <= 8 and t} == members


def test_geodesic_minimality_against_bfs_oracle():
    minlen = minimal_lengths(11)  # n + m <= 11 covers the whole box
    for n in range(4):
        for m in range(9):
            w = (n, m)
            s = BS.format(w)
            length = 0 if s == "e" else len(s)
            assert length == minlen[w]
            assert parse_word(s) == w


def test_prefixes_examples():
    assert set(BS.prefixes((1, 2))) == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}
    assert set(BS.prefixes((0, 0))) == {(0, 0)}
    assert len(BS.prefixes((2, 8))) == 17


def test_prefix_count_matches_brute_enumeration():
    for ops, n, m in itertools.product((BS, GRID), range(5), range(17)):
        expected = brute_prefixes((n, m), K[ops.name])
        assert ops.prefixes((n, m)) == sorted(expected)
        assert ops.prefix_count((n, m)) == len(expected)


@given(modes, small_words, small_words)
def test_is_prefix_agrees_with_membership(ops, w1, w):
    assert ops.is_prefix(w1, w) == (w1 in ops.prefixes(w))


@given(modes, st.tuples(st.integers(0, 8), st.integers(0, 300)))
def test_labels_match_format_on_every_prefix(ops, w):
    rows = ops.label_rows(w)
    assert [len(row) for row in rows] == ops.row_widths(w)
    for i, j in ops.prefixes(w):
        assert rows[i][j] == ops.format((i, j))


@given(st.tuples(st.integers(0, 8), st.integers(0, 300)))
def test_labels_are_sized_exactly_before_they_are_built(w):
    """The letter count the BS label check computes is the total length of
    the labels: a limit of exactly that many letters passes, one
    fewer is refused."""
    total = sum(len(BS.format(z)) for z in BS.prefixes(w))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("bsgraph.words.MAX_LABEL_LETTERS", total)
        assert sum(map(len, BS.label_rows(w))) == BS.prefix_count(w)
        mp.setattr("bsgraph.words.MAX_LABEL_LETTERS", total - 1)
        with pytest.raises(ResourceLimit):
            BS.label_rows(w)


def _letters(i, width) -> int:
    """Letters in the labels of row i, summed label by label."""
    return sum((j >> i) + i + (j & ((1 << i) - 1)).bit_count() for j in range(width))


@given(st.integers(0, 70), st.integers(0, 5000))
def test_row_letters_is_the_per_label_sum(i, width):
    assert row_letters(i, width) == _letters(i, width)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 9))
def test_labels_are_counted_on_both_sides_of_the_limit(n):
    """At the real limit: where M is the last at which the labels of
    (N, M) fit, the closed-form count and the label-by-label one agree on
    M and on M + 1, the labels of (N, M) are built and those of (N, M + 1)
    are refused."""

    def total(m):
        return 1 + sum(row_letters(i, width) for i, width in enumerate(BS.row_widths((n, m))))

    lo, hi = 0, 1 << 26  # total(lo) <= MAX_LABEL_LETTERS < total(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if total(mid) <= MAX_LABEL_LETTERS else (lo, mid)
    for m in (lo, hi):
        widths = BS.row_widths((n, m))
        assert total(m) == 1 + sum(_letters(i, width) for i, width in enumerate(widths))
    assert sum(map(len, itertools.chain.from_iterable(BS.label_rows((n, lo))))) == total(lo)
    with pytest.raises(ResourceLimit, match="vertex labels"):
        BS.label_rows((n, hi))


def test_labels_are_counted_where_the_cheap_bound_is_close():
    """(20, 217384) has 434,782 vertices and 11,824,644 label letters, so it
    is refused under the real limit.  Its labels are at most 41 letters, and
    a pre-bound of 23 letters a vertex would read 9,999,986 and let it pass."""
    assert MAX_LABEL_LETTERS == 10**7
    with pytest.raises(ResourceLimit, match="vertex labels"):
        BS.label_rows((20, 217384))


@given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 12)), max_size=6))
def test_exponent_tokens_fold_like_their_letters(tokens):
    """x^k folds as ops.mul by (k, 0) or (0, k): the same degree as its k
    letters one by one, in both modes."""
    text = " ".join(f"{x}^{k}" for x, k in tokens)
    letters = "".join(x * k for x, k in tokens)
    assert parse_word(text) == parse_word(letters) == fold_pair(letters)
    assert parse_grid_degree(text) == (letters.count("a"), letters.count("b"))


def test_letter_forms_and_pairs_are_refused_past_their_limits():
    assert parse_word(f"b a^{MAX_LETTERS - 1}") == (MAX_LETTERS - 1, 1 << MAX_LETTERS - 1)
    for text in (f"a^{MAX_LETTERS + 1}", f"b a^{MAX_LETTERS}", "b^" + "9" * 5000):
        with pytest.raises(ResourceLimit):
            parse_word(text)
    with pytest.raises(ResourceLimit):
        parse_grid_degree(f"b^{MAX_LETTERS} a")
    # Shortest and longest forms are sized before they are built.
    w = (MAX_LETTERS - 1, 1 << MAX_LETTERS - 1)
    start = time.perf_counter()
    assert len(BS.format(w)) == MAX_LETTERS
    assert time.perf_counter() - start < 1.0  # one pass over M's bits, not one per letter
    with pytest.raises(ResourceLimit):
        BS.format((MAX_LETTERS - 1, 3 << MAX_LETTERS - 1))
    assert len(longest_form((2, MAX_LETTERS - 2))) == MAX_LETTERS
    with pytest.raises(ResourceLimit):
        longest_form((20, 1 << 20))
    assert printable_pair((3, (1 << MAX_PAIR_BITS) - 1)) == [3, (1 << MAX_PAIR_BITS) - 1]
    with pytest.raises(ResourceLimit):
        printable_pair((3, 1 << MAX_PAIR_BITS))


def test_grid_arithmetic():
    assert GRID.mul((1, 0), (0, 1)) == (1, 1)
    assert GRID.is_prefix((1, 2), (2, 2))
    assert not GRID.is_prefix((2, 1), (1, 5))
    assert GRID.quotient((1, 1), (2, 3)) == (1, 2)
    with pytest.raises(NotAPrefix, match=r"^\(0,1\) is not <= \(1,0\)$"):
        GRID.quotient((0, 1), (1, 0))
    assert GRID.prefix_count((2, 1)) == 6


def test_parse_grid_degree():
    assert parse_grid_degree("2,1") == (2, 1)
    assert parse_grid_degree("(2, 1)") == (2, 1)
    assert parse_grid_degree("aab") == (2, 1)
    with pytest.raises(WordSyntaxError):
        parse_grid_degree("1,2,3")


def test_left_factor_agrees_with_mul():
    """The worklist lift's left division, which only the tests keep."""
    for ops in (BS, GRID):
        for w1, w2 in itertools.product(itertools.product(range(3), range(5)), repeat=2):
            lf = left_factor(ops, w2, w1)
            if lf is None:
                assert all(ops.mul(m, w1) != w2 for m in ops.prefixes(w2))
            else:
                assert ops.mul(lf, w1) == w2
