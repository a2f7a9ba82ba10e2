"""Degree-monoid arithmetic, checked against string-rewriting oracles."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsgraph.errors import NotAPrefix, WordSyntaxError
from bsgraph.words import (
    BS,
    GRID,
    fold_letters,
    longest_form,
    parse_grid_degree,
    parse_letters,
    parse_word,
)

from .oracles import all_strings, brute_prefixes, fold_pair, minimal_lengths, rewrite_closure

# M is capped because longest_form materialises M letters.
words = st.tuples(st.integers(0, 10), st.integers(0, 2**12))
big_words = st.tuples(st.integers(0, 10), st.integers(0, 2**60))
small_words = st.tuples(st.integers(0, 4), st.integers(0, 32))
letter_strings = st.text(alphabet="ab", max_size=10)


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


@given(letter_strings)
def test_fold_matches_string_oracle(s):
    assert parse_word(s) == fold_pair(s)


@given(big_words, big_words, big_words)
def test_associativity(x, y, z):
    assert BS.mul(BS.mul(x, y), z) == BS.mul(x, BS.mul(y, z))


@given(words)
def test_identity(w):
    e = (0, 0)
    assert BS.mul(e, w) == w
    assert BS.mul(w, e) == w


@given(words)
def test_normal_form_round_trips(w):
    assert parse_word(BS.format(w)) == w
    assert parse_word(longest_form(w)) == w


@given(words, words)
def test_prefix_quotient_cancels(w1, w2):
    w = BS.mul(w1, w2)
    assert BS.is_prefix(w1, w)
    assert BS.quotient(w1, w) == w2
    assert BS.mul(w1, BS.quotient(w1, w)) == w


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
    for n in range(5):
        for m in range(17):
            w = (n, m)
            expected = brute_prefixes(w)
            assert set(BS.prefixes(w)) == expected
            assert BS.prefix_count(w) == len(expected)


@given(small_words, small_words)
def test_is_prefix_agrees_with_membership(w1, w):
    assert BS.is_prefix(w1, w) == (w1 in BS.prefixes(w))


@given(st.sampled_from([BS, GRID]), st.tuples(st.integers(0, 8), st.integers(0, 300)))
def test_labels_match_format_on_every_prefix(ops, w):
    zs = ops.prefixes(w)
    assert ops.labels(zs) == {z: ops.format(z) for z in zs}


def test_letter_fold_and_parse_letters():
    assert parse_letters("ba") == ("b", "a")
    assert fold_letters(("b", "a")) == (1, 2)
    assert fold_letters(()) == (0, 0)


def test_edge_count_matches_model_edge_predicate():
    # Cross-check the closed form against direct enumeration.
    for n in range(4):
        for m in range(13):
            w = (n, m)
            count = sum(
                1
                for z in BS.prefixes(w)
                for l in ("a", "b")
                if BS.is_prefix(BS.step(z, l), w)
            )
            assert BS.edge_count(w) == count


def test_grid_arithmetic():
    assert GRID.mul((1, 0), (0, 1)) == (1, 1)
    assert GRID.is_prefix((1, 2), (2, 2))
    assert not GRID.is_prefix((2, 1), (1, 5))
    assert GRID.quotient((1, 1), (2, 3)) == (1, 2)
    assert GRID.prefix_count((2, 1)) == 6
    assert GRID.edge_count((2, 1)) == 7


def test_parse_grid_degree():
    assert parse_grid_degree("2,1") == (2, 1)
    assert parse_grid_degree("(2, 1)") == (2, 1)
    assert parse_grid_degree("aab") == (2, 1)
    with pytest.raises(WordSyntaxError):
        parse_grid_degree("1,2,3")


def test_left_factor_agrees_with_mul():
    for n1 in range(3):
        for m1 in range(5):
            for n2 in range(3):
                for m2 in range(5):
                    w1, w2 = (n1, m1), (n2, m2)
                    lf = BS.left_factor(w2, w1)
                    if lf is None:
                        assert all(
                            BS.mul(m, w1) != w2 for m in BS.prefixes(w2)
                        )
                    else:
                        assert BS.mul(lf, w1) == w2
