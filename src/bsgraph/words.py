"""Exact arithmetic in the two degree monoids.

A degree is a plain ``(N, M)`` int pair and a letter is the string ``'a'``
(red) or ``'b'`` (blue).  The mode objects ``BS`` and ``GRID`` carry the
operations on those pairs.

The positive Baumslag-Solitar monoid on generators a, b with the relation
ab^2 = ba has a canonical normal form a^N b^M, and multiplication

    (N1, M1) * (N2, M2) = (N1 + N2, M1 * 2^N2 + M2)

since every b pushed past an a doubles.  The exponent M is kept as a
Python int because it grows exponentially in word length.

The grid monoid is plain (N^2, +) with componentwise order; it drives the
2-coloured grid specialization through the same interface.
"""

from __future__ import annotations

import re

from .errors import NotAPrefix, WordSyntaxError


def format_letters(letters) -> str:
    return "".join(letters) or "e"


_WORD_TOKEN = re.compile(r"([ab])(?:\s*\^?\s*(-?\d+))?")


class BsMonoid:
    """Operations of the BS(2,1)+ degree monoid on (N, M) pairs."""

    name = "bs"
    identity = (0, 0)
    # Degree of one square: the common value of ab^2 and ba.
    square_degree = (1, 2)
    red_first_word = ("a", "b", "b")
    blue_first_word = ("b", "a")

    @staticmethod
    def mul(w1, w2):
        return (w1[0] + w2[0], (w1[1] << w2[0]) + w2[1])

    @staticmethod
    def step(w, letter: str):
        if letter == "a":
            return (w[0] + 1, w[1] << 1)
        return (w[0], w[1] + 1)

    @staticmethod
    def is_prefix(w1, w) -> bool:
        return w1[0] <= w[0] and (w1[1] << (w[0] - w1[0])) <= w[1]

    @staticmethod
    def quotient(w1, w):
        """The unique w'' with w1 * w'' = w."""
        if not BsMonoid.is_prefix(w1, w):
            raise NotAPrefix(f"{BsMonoid.format(w1)} is not a prefix of {BsMonoid.format(w)}")
        shift = w[0] - w1[0]
        return (shift, w[1] - (w1[1] << shift))

    @staticmethod
    def left_factor(w, suffix):
        """The m with m * suffix = w, or None if no such element exists."""
        n = w[0] - suffix[0]
        if n < 0:
            return None
        rest = w[1] - suffix[1]
        if rest < 0 or rest & ((1 << suffix[0]) - 1):
            return None
        return (n, rest >> suffix[0])

    @staticmethod
    def prefix_count(w) -> int:
        n, m = w
        return sum((m >> (n - i)) + 1 for i in range(n + 1))

    @staticmethod
    def edge_count(w) -> int:
        """Number of edges of the model graph of w.

        Row i (prefixes with i a's) holds cap_i + 1 vertices where
        cap_i = M >> (N - i); it carries cap_i blue edges, and every one
        of its vertices starts a red edge when i < N.
        """
        n, m = w
        blue = sum(m >> (n - i) for i in range(n + 1))
        red = sum((m >> (n - i)) + 1 for i in range(n))
        return blue + red

    @staticmethod
    def prefixes(w) -> list:
        """Every left divisor of w, in ascending pair order."""
        n, m = w
        out = []
        for i in range(n + 1):
            out.extend((i, j) for j in range((m >> (n - i)) + 1))
        return out

    @staticmethod
    def shortest_letters(w) -> tuple[str, ...]:
        """The geodesic word for w, peeled letter by letter from the right."""
        n, m = w
        rev = []
        while n or m:
            if m & 1:
                rev.append("b")
                m -= 1
            elif n:
                rev.append("a")
                n -= 1
                m >>= 1
            else:
                rev.append("b")
                m -= 1
        return tuple(reversed(rev))

    @staticmethod
    def longest_letters(w) -> tuple[str, ...]:
        return ("a",) * w[0] + ("b",) * w[1]

    @staticmethod
    def format(w) -> str:
        """The shortest form of w, "e" for the identity."""
        return format_letters(BsMonoid.shortest_letters(w))

    @staticmethod
    def labels(zs) -> dict:
        """``format`` of every degree in zs, in one pass.

        zs must be sorted ascending and closed under prefixes (the vertices
        of a model graph are).  Each label extends the label of the
        predecessor that ``shortest_letters`` peels off, which sorts
        earlier: (n, m-1) by a "b" when m is odd or n is 0, else
        (n-1, m/2) by an "a".
        """
        out = {}
        for n, m in zs:
            if m & 1 or not n:
                out[n, m] = out[n, m - 1] + "b" if m else ""
            else:
                out[n, m] = out[n - 1, m >> 1] + "a"
        if (0, 0) in out:
            out[0, 0] = "e"
        return out

    @staticmethod
    def parse(text: str):
        return parse_word(text)


class GridMonoid:
    """Operations of the (N^2, +) degree monoid, mirroring BsMonoid."""

    name = "grid"
    identity = (0, 0)
    square_degree = (1, 1)
    red_first_word = ("a", "b")
    blue_first_word = ("b", "a")

    @staticmethod
    def mul(p, q):
        return (p[0] + q[0], p[1] + q[1])

    @staticmethod
    def step(p, letter: str):
        if letter == "a":
            return (p[0] + 1, p[1])
        return (p[0], p[1] + 1)

    @staticmethod
    def is_prefix(p, q) -> bool:
        return p[0] <= q[0] and p[1] <= q[1]

    @staticmethod
    def quotient(p, q):
        if not GridMonoid.is_prefix(p, q):
            raise NotAPrefix(f"{GridMonoid.format(p)} is not <= {GridMonoid.format(q)}")
        return (q[0] - p[0], q[1] - p[1])

    @staticmethod
    def left_factor(q, suffix):
        m1, m2 = q[0] - suffix[0], q[1] - suffix[1]
        if m1 < 0 or m2 < 0:
            return None
        return (m1, m2)

    @staticmethod
    def prefix_count(p) -> int:
        return (p[0] + 1) * (p[1] + 1)

    @staticmethod
    def edge_count(p) -> int:
        return p[0] * (p[1] + 1) + p[1] * (p[0] + 1)

    @staticmethod
    def prefixes(p) -> list:
        """Every point below p, in ascending pair order."""
        return [(i, j) for i in range(p[0] + 1) for j in range(p[1] + 1)]

    @staticmethod
    def shortest_letters(p) -> tuple[str, ...]:
        return ("a",) * p[0] + ("b",) * p[1]

    longest_letters = shortest_letters

    @staticmethod
    def format(p) -> str:
        return f"({p[0]},{p[1]})"

    @staticmethod
    def labels(ps) -> dict:
        """``format`` of every point in ps."""
        return {p: f"({p[0]},{p[1]})" for p in ps}

    @staticmethod
    def parse(text: str):
        return parse_grid_degree(text)


BS = BsMonoid()
GRID = GridMonoid()


def fold_letters(letters):
    w = BS.identity
    for l in letters:
        w = BS.step(w, l)
    return w


def parse_letters(text: str) -> tuple[str, ...]:
    """Expand word text into its letter sequence.

    Accepts raw letter strings ("bbaa"), caret exponents ("a^2 b^8") and
    the compact dotted form ("a2.b8").  "e" denotes the identity.
    """
    cleaned = text.replace(".", " ").strip()
    if cleaned in ("", "e"):
        return ()
    letters: list[str] = []
    pos = 0
    while pos < len(cleaned):
        if cleaned[pos].isspace():
            pos += 1
            continue
        m = _WORD_TOKEN.match(cleaned, pos)
        if not m:
            raise WordSyntaxError(f"bad character {cleaned[pos]!r} in word {text!r}")
        count = 1
        if m.group(2) is not None:
            count = int(m.group(2))
            if count < 0:
                raise WordSyntaxError(f"negative exponent in word {text!r}")
        letters.extend([m.group(1)] * count)
        pos = m.end()
    return tuple(letters)


def parse_word(text: str):
    return fold_letters(parse_letters(text))


def longest_form(w) -> str:
    return format_letters(BS.longest_letters(w))


def parse_grid_degree(text: str):
    """Parse "(m1,m2)" / "m1,m2", or letter syntax counting a's and b's."""
    cleaned = text.strip().strip("()")
    if "," in cleaned:
        parts = cleaned.split(",")
        if len(parts) != 2:
            raise WordSyntaxError(f"bad grid degree {text!r}")
        try:
            m1, m2 = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise WordSyntaxError(f"bad grid degree {text!r}") from exc
        if m1 < 0 or m2 < 0:
            raise WordSyntaxError("coordinates must be non-negative")
        return (m1, m2)
    letters = parse_letters(cleaned)
    return (letters.count("a"), letters.count("b"))
