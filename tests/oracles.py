"""Independent brute-force oracles the tests check the library against.

Everything here works on raw letter strings or by exhaustive search, on
purpose: none of it shares code with the canonical-pair arithmetic or the
lifter it is used to validate.
"""

from __future__ import annotations

import itertools
from collections import deque

ALPHABET = "ab"


def fold_pair(s: str) -> tuple[int, int]:
    """Fold a letter string to its (N, M) pair one letter at a time.

    Uses only the defining facts a = (1,0), b = (0,1) appended on the
    right, i.e. appending a doubles M, appending b adds one.
    """
    n = m = 0
    for ch in s:
        if ch == "a":
            n, m = n + 1, 2 * m
        elif ch == "b":
            m += 1
        else:
            raise ValueError(f"bad letter {ch!r}")
    return (n, m)


def rewrite_neighbours(s: str) -> set[str]:
    """One application of abb -> ba or ba -> abb anywhere in s."""
    out = set()
    for i in range(len(s)):
        if s[i : i + 3] == "abb":
            out.add(s[:i] + "ba" + s[i + 3 :])
        if s[i : i + 2] == "ba":
            out.add(s[:i] + "abb" + s[i + 2 :])
    return out


def rewrite_closure(s: str) -> set[str]:
    """All strings connected to s by abb <-> ba rewrites.

    Finite: every representative of a word with pair (N, M) has length
    between the geodesic length and N + M, so the search closes.
    """
    seen = {s}
    queue = deque([s])
    while queue:
        cur = queue.popleft()
        for nxt in rewrite_neighbours(cur):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def all_strings(max_len: int, include_empty: bool = False):
    if include_empty:
        yield ""
    for length in range(1, max_len + 1):
        for tup in itertools.product(ALPHABET, repeat=length):
            yield "".join(tup)


def minimal_lengths(max_len: int) -> dict[tuple[int, int], int]:
    """Pair -> length of the shortest string folding to it, by brute force."""
    out: dict[tuple[int, int], int] = {(0, 0): 0}
    for length in range(1, max_len + 1):
        for tup in itertools.product(ALPHABET, repeat=length):
            out.setdefault(fold_pair("".join(tup)), length)
    return out


def brute_prefixes(pair: tuple[int, int]) -> set[tuple[int, int]]:
    """Left divisors of a pair, by peeling single letters off the right.

    z is a prefix of w iff w = z, or w ends (as a monoid element) in a
    letter whose removal leaves something z is a prefix of.  Removing a
    trailing b from (n, m) gives (n, m-1); removing a trailing a is only
    possible when m is even and gives (n-1, m/2).
    """
    seen = {pair}
    queue = deque([pair])
    while queue:
        n, m = queue.popleft()
        parents = []
        if m > 0:
            parents.append((n, m - 1))
        if n > 0 and m % 2 == 0:
            parents.append((n - 1, m // 2))
        for p in parents:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen
