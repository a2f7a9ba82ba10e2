"""Exact arithmetic in the degree monoid BS(k,1)+, for k = 1 and k = 2.

A degree is a plain ``(N, M)`` int pair, a letter is the string ``'a'``
(red) or ``'b'`` (blue), and a colour word is a ``str`` of letters.  The
mode objects ``BS`` and ``GRID`` carry the operations on those pairs.

The positive Baumslag-Solitar monoid on generators a, b with the relation
ab^k = ba has a canonical normal form a^N b^M, and multiplication

    (N1, M1) * (N2, M2) = (N1 + N2, M1 * k^N2 + M2)

since every b pushed past an a becomes k of them.  k is a power of two,
k = 2^shift, so M is only ever shifted, never multiplied or divided.  BS
is shift 1 (ab^2 = ba); GRID is shift 0, where a and b commute and the
monoid is N^2 under addition.  M is kept as a Python int because in BS
mode it grows exponentially in word length.
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


def printable_pair(w) -> list:
    """w as a two-element list, refused if M is too long to print."""
    if w[1].bit_length() > MAX_PAIR_BITS:
        raise ResourceLimit(f"pair whose M has more than {MAX_PAIR_BITS} bits")
    return list(w)


_WORD_TOKEN = re.compile(r"([ab])(?:\s*\^?\s*(-?\d+))?")


class BsMonoid:
    """The degree monoid BS(k,1)+ on (N, M) pairs, k = 2^shift.

    A mode declares its square by the two boundary words, a b^k and b a,
    whose common degree is ``square_degree`` = (1, k); the rest of a mode
    is this arithmetic, its written forms and, for the fixture format,
    ``slot_names`` and ``colour_tokens``.  This class is BS itself, the
    shift-1 case, and its written forms are BS's geodesics.
    """

    name = "bs"
    shift = 1
    identity = (0, 0)
    blue_first_word = "ba"
    # A fixture slot spells the base word of its edge, then the edge's letter.
    slot_names = ("eA", "aB", "abB", "eB", "bA")
    colour_tokens = {"a": "a", "b": "b"}
    not_a_prefix = "{} is not a prefix of {}"

    def __init__(self):
        k = 1 << self.shift
        # Degree of one square: the common value of ab^k and ba.
        self.square_degree = (1, k)
        self.red_first_word = "a" + "b" * k

    def __reduce__(self):
        return self.name.upper()  # copied and pickled by name: a copy of BS is BS

    def mul(self, w1, w2):
        return (w1[0] + w2[0], (w1[1] << self.shift * w2[0]) + w2[1])

    def step(self, w, letter: str):
        if letter == "a":
            return (w[0] + 1, w[1] << self.shift)
        return (w[0], w[1] + 1)

    def is_prefix(self, w1, w) -> bool:
        return w1[0] <= w[0] and (w1[1] << self.shift * (w[0] - w1[0])) <= w[1]

    def quotient(self, w1, w):
        """The unique w'' with w1 * w'' = w."""
        if not self.is_prefix(w1, w):
            raise NotAPrefix(self.not_a_prefix.format(self.format(w1), self.format(w)))
        n = w[0] - w1[0]
        return (n, w[1] - (w1[1] << self.shift * n))

    def row_widths(self, w) -> list:
        """How many prefixes (i, j) of w each row i = 0..N holds."""
        n, m = w
        shift = self.shift
        return [(m >> shift * (n - i)) + 1 for i in range(n + 1)]

    def prefixes(self, w) -> list:
        """Every left divisor of w, in ascending pair order."""
        return [(i, j) for i, width in enumerate(self.row_widths(w)) for j in range(width)]

    def prefix_count(self, w) -> int:
        return sum(self.row_widths(w))

    @staticmethod
    def longest_letters(w) -> str:
        return "a" * w[0] + "b" * w[1]

    @staticmethod
    def shortest_letters(w) -> str:
        """The geodesic word for w: (M >> N) b's, then for each of the low
        N bits of M, most significant first, an a followed by a b if the
        bit is set.  One pass over the bits, so it is linear in N."""
        n, m = w
        low = bin(m & ((1 << n) - 1) | 1 << n)[3:]
        return "b" * (m >> n) + low.replace("0", "a").replace("1", "ab")

    def format(self, w) -> str:
        """The shortest form of w, "e" for the identity."""
        n, m = w
        _check_letters(n + bin(m & ((1 << n) - 1)).count("1") + (m >> n), "shortest form")
        return self.shortest_letters(w) or "e"

    def label_rows(self, w) -> list:
        """``format`` of every vertex of the model graph of w, as rows:
        ``label_rows(w)[i][j]`` is ``format((i, j))``.

        Row i is built from row i - 1 by the predecessor ``shortest_letters``
        peels off: (i, j) extends (i, j - 1) by a "b" when j is odd or i is 0,
        else (i - 1, j/2) by an "a".

        Past MAX_LABEL_LETTERS letters in all, nothing is built.  A label
        has at most (M >> N) + 2N letters, so few degrees need the exact
        count, which is summed row by row in closed form (``row_letters``),
        "e" counting one, and stops once it passes the limit.
        """
        n, m = w
        widths = self.row_widths(w)
        if sum(widths) * ((m >> n) + 2 * n + 1) > MAX_LABEL_LETTERS:
            total = 1
            for i, width in enumerate(widths):
                total += row_letters(i, width)
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


def row_letters(i: int, width: int) -> int:
    """Letters in the BS labels of (i, 0) .. (i, width - 1), the empty one
    of (0, 0) counting none.  The label of (i, j) has j >> i letters "b",
    i letters "a" and one more "b" per set bit of j mod 2^i, so the row
    holds the sums of those three over j < width: q full runs of 2^i
    columns, q = width >> i, then r = width mod 2^i more."""
    if i < width.bit_length():
        q, r = width >> i, width & ((1 << i) - 1)
        # sum of j >> i, then i set bits in each half of a run's columns
        runs = (q * (q - 1) << i >> 1) + q * r + (q * i << i >> 1)
    else:
        runs, r = 0, width
    # Set bits of 0 .. r - 1: bit b is set in 2^b of every 2^(b+1) numbers.
    ones = 0
    for b in range(r.bit_length()):
        ones += (r >> b + 1 << b) + max(0, (r & (2 << b) - 1) - (1 << b))
    return runs + i * width + ones


class GridMonoid(BsMonoid):
    """N^2 = BS(1,1)+, the shift-0 case: the arithmetic is BsMonoid's, and
    only the written forms differ.  Degrees are written as coordinates,
    and the one geodesic of a degree is a^N b^M."""

    name = "grid"
    shift = 0
    slot_names = ("v1", "e1v2", "v2", "e2v1")
    colour_tokens = {"a": "1", "b": "2"}
    not_a_prefix = "{} is not <= {}"
    shortest_letters = staticmethod(BsMonoid.longest_letters)

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
    return BS.longest_letters(w) or "e"


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
