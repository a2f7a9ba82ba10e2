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

from .errors import NotAPrefix, ResourceLimit, WordSyntaxError

# Letter forms are refused past this many letters, before they are built:
# words parsed from text, and shortest and longest forms written out.
MAX_LETTERS = 10**6
# Letters in all the vertex labels of one model graph (JSON and DOT).  The
# largest label set of the tests, golden transcripts and benchmark has
# 61,777 (b^351, the right factor of a long-paths ``factorize --json``).
MAX_LABEL_LETTERS = 10**7
# A pair is written in decimal, so one whose M has more bits than this
# (about 3,000 digits, inside Python's 4,300-digit int-to-str limit) is
# refused before it is written.
MAX_PAIR_BITS = 10_000


def _check_letters(count: int, what: str) -> None:
    if count > MAX_LETTERS:
        raise ResourceLimit(f"{what} of more than {MAX_LETTERS} letters")


def format_letters(letters) -> str:
    return "".join(letters) or "e"


def printable_pair(w) -> list:
    """w as a two-element list, refused if M is too long to print."""
    if w[1].bit_length() > MAX_PAIR_BITS:
        raise ResourceLimit(f"pair whose M has more than {MAX_PAIR_BITS} bits")
    return list(w)


_WORD_TOKEN = re.compile(r"([ab])(?:\s*\^?\s*(-?\d+))?")


class _Monoid:
    """What both degree monoids compute the same way.  A mode declares its
    square by the two boundary words, whose common degree is
    ``square_degree``; the rest of a mode is its arithmetic and, for the
    fixture format, ``slot_names`` and ``colour_tokens``."""

    identity = (0, 0)

    def __reduce__(self):
        return self.name.upper()  # copied and pickled by name: a copy of BS is BS

    def prefix_count(self, w) -> int:
        return sum(self.row_widths(w))


class BsMonoid(_Monoid):
    """Operations of the BS(2,1)+ degree monoid on (N, M) pairs."""

    name = "bs"
    # Degree of one square: the common value of ab^2 and ba.
    square_degree = (1, 2)
    red_first_word = ("a", "b", "b")
    blue_first_word = ("b", "a")
    # A fixture slot spells the base word of its edge, then the edge's letter.
    slot_names = ("eA", "aB", "abB", "eB", "bA")
    colour_tokens = {"a": "a", "b": "b"}

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
    def row_widths(w) -> list:
        """How many prefixes (i, j) of w each row i = 0..N holds."""
        n, m = w
        return [(m >> (n - i)) + 1 for i in range(n + 1)]

    @staticmethod
    def prefixes(w) -> list:
        """Every left divisor of w, in ascending pair order."""
        return [(i, j) for i, width in enumerate(BsMonoid.row_widths(w)) for j in range(width)]

    @staticmethod
    def shortest_letters(w) -> tuple[str, ...]:
        """The geodesic word for w: (M >> N) b's, then for each of the low
        N bits of M, most significant first, an a followed by a b if the
        bit is set.  One pass over the bits, so it is linear in N."""
        n, m = w
        low = bin(m & ((1 << n) - 1) | 1 << n)[3:]
        return tuple("b" * (m >> n) + low.replace("0", "a").replace("1", "ab"))

    @staticmethod
    def longest_letters(w) -> tuple[str, ...]:
        return ("a",) * w[0] + ("b",) * w[1]

    @staticmethod
    def format(w) -> str:
        """The shortest form of w, "e" for the identity."""
        n, m = w
        _check_letters(n + bin(m & ((1 << n) - 1)).count("1") + (m >> n), "shortest form")
        return format_letters(BsMonoid.shortest_letters(w))

    @staticmethod
    def label_rows(w) -> list:
        """``format`` of every vertex of the model graph of w, as rows:
        ``label_rows(w)[i][j]`` is ``format((i, j))``.

        Row i is built from row i - 1 by the predecessor ``shortest_letters``
        peels off: (i, j) extends (i, j - 1) by a "b" when j is odd or i is 0,
        else (i - 1, j/2) by an "a".

        Past MAX_LABEL_LETTERS letters in all, nothing is built.  A label
        has at most (M >> N) + 2N letters, so few degrees need the exact
        count: the label of (i, j) has j >> i letters "b", i letters "a" and
        one more "b" per set bit of j's low i bits, and "e" has one.
        """
        n, m = w
        widths = BsMonoid.row_widths(w)
        if sum(widths) * ((m >> n) + 2 * n + 1) > MAX_LABEL_LETTERS:
            zs = BsMonoid.prefixes(w)
            total = 1 + sum((j >> i) + i + (j & ((1 << i) - 1)).bit_count() for i, j in zs)
            if total > MAX_LABEL_LETTERS:
                raise ResourceLimit(f"vertex labels of more than {MAX_LABEL_LETTERS} letters")
        row = ["b" * j for j in range(widths[0])]
        rows = [row]
        for width in widths[1:]:
            evens = [s + "a" for s in row]
            row = [None] * width
            row[::2] = evens
            row[1::2] = [s + "b" for s in evens[: width // 2]]
            rows.append(row)
        rows[0][0] = "e"
        return rows

    @staticmethod
    def parse(text: str):
        return parse_word(text)


class GridMonoid(_Monoid):
    """Operations of the (N^2, +) degree monoid, mirroring BsMonoid."""

    name = "grid"
    square_degree = (1, 1)
    red_first_word = ("a", "b")
    blue_first_word = ("b", "a")
    slot_names = ("v1", "e1v2", "v2", "e2v1")
    colour_tokens = {"a": "1", "b": "2"}

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
    def row_widths(p) -> list:
        return [p[1] + 1] * (p[0] + 1)

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
    def label_rows(p) -> list:
        return [[f"({i},{j})" for j in range(p[1] + 1)] for i in range(p[0] + 1)]

    @staticmethod
    def parse(text: str):
        return parse_grid_degree(text)


BS = BsMonoid()
GRID = GridMonoid()
# Mode name -> mode object, for fixture files and the CLI.
MODES = {ops.name: ops for ops in (BS, GRID)}


def parse_word(text: str, ops=BS):
    """The degree of word text, folded one ``x^k`` token at a time through
    ``ops.mul`` by (k, 0) or (0, k), so no k-letter list is built.

    Accepts raw letter strings ("bbaa"), caret exponents ("a^2 b^8") and
    the compact dotted form ("a2.b8").  "e" denotes the identity.  A word
    of more than MAX_LETTERS letters is refused.
    """
    cleaned = text.replace(".", " ").strip()
    w = ops.identity
    if cleaned == "e":
        return w
    letters = pos = 0
    while pos < len(cleaned):
        if cleaned[pos].isspace():
            pos += 1
            continue
        m = _WORD_TOKEN.match(cleaned, pos)
        if not m:
            raise WordSyntaxError(f"bad character {cleaned[pos]!r} in word {text!r}")
        letter, exponent = m.groups()
        count = 1
        if exponent is not None:
            # An exponent past int()'s digit limit is far past MAX_LETTERS.
            count = int(exponent) if len(exponent) < 4000 else MAX_LETTERS + 1
            if count < 0:
                raise WordSyntaxError(f"negative exponent in word {text!r}")
        letters += count
        _check_letters(letters, "word")
        w = ops.mul(w, (count, 0) if letter == "a" else (0, count))
        pos = m.end()
    return w


def longest_form(w) -> str:
    _check_letters(w[0] + w[1], "longest form")
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
    return parse_word(cleaned, GRID)
