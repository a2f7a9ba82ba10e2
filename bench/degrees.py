"""Degree arithmetic the benchmark needs to size inputs and check outputs.

Kept apart from ``bsgraph.words`` on purpose: the checker must not trust
the code it checks, and the benchmark must keep running when the library's
internal degree types change.  Degrees are plain ``(N, M)`` pairs.

BS mode: ``a^N b^M`` with ``(N1, M1)(N2, M2) = (N1 + N2, M1 * 2^N2 + M2)``.
Grid mode: ``(m1, m2)`` in N^2 with componentwise addition.
"""

from __future__ import annotations


def step(mode: str, pair, letter: str):
    n, m = pair
    if mode == "bs":
        return (n + 1, m << 1) if letter == "a" else (n, m + 1)
    return (n + 1, m) if letter == "a" else (n, m + 1)


def fold(mode: str, letters) -> tuple[int, int]:
    pair = (0, 0)
    for letter in letters:
        pair = step(mode, pair, letter)
    return pair


def prefix_count(mode: str, pair) -> int:
    """Vertices of the model graph of the degree."""
    n, m = pair
    if mode == "bs":
        return sum((m >> (n - i)) + 1 for i in range(n + 1))
    return (n + 1) * (m + 1)


def red_edge_count(mode: str, pair) -> int:
    """Red (``a``) edges of the model graph of the degree."""
    n, m = pair
    if mode == "bs":
        return sum((m >> (n - i)) + 1 for i in range(n))
    return n * (m + 1)


def edge_count(mode: str, pair) -> int:
    """Edges of the model graph of the degree (the domain of a morphism)."""
    n, m = pair
    blue = sum(m >> (n - i) for i in range(n + 1)) if mode == "bs" else m * (n + 1)
    return blue + red_edge_count(mode, pair)


def is_normal(mode: str, letters: str) -> bool:
    """True iff the colour word is the shortest word of its degree.

    In BS mode that is the word with no ``abb`` factor; in grid mode it is
    ``a^m b^n``.
    """
    if mode == "bs":
        return "abb" not in letters
    return "ba" not in letters


def prefix_text(mode: str, pair) -> str:
    """Command-line text for a degree, as ``--at`` and ``--degree`` read it."""
    n, m = pair
    if mode == "bs":
        return f"a^{n} b^{m}" if n or m else "e"
    return f"{n},{m}"


def quotient(mode: str, w1, w):
    """The w2 with w1 * w2 = w, for w1 a prefix of w."""
    (n1, m1), (n, m) = w1, w
    if mode == "bs":
        return (n - n1, m - (m1 << (n - n1)))
    return (n - n1, m - m1)


def longest_word(mode: str, pair) -> str:
    """The longest colour word of a degree: ``a^N b^M`` in both modes."""
    return "a" * pair[0] + "b" * pair[1]


def prefixes(mode: str, pair) -> list:
    """Every prefix of a degree (the vertices of its model graph)."""
    n, m = pair
    if mode == "bs":
        return [(i, j) for i in range(n + 1) for j in range((m >> (n - i)) + 1)]
    return [(i, j) for i in range(n + 1) for j in range(m + 1)]
