"""The category of compatible morphisms and its law-verification sweeps.

The verification sweeps exhaustively check the category, degree-functor,
and factorization laws over every morphism lifted from paths up to a
length bound, reporting the first counterexample when a law fails.  Inside
the sweeps a morphism is its shortest traversal, and composing two of them
is rewriting their concatenation back to normal form (``normal_form``),
which only has work where the two normal forms meet (``composite``).
One ``CompositionTable`` per run owns the pool and its composable pairs,
names each traversal by an int (pool morphism n is id n) and composes
each distinct pair once, and each suite is a function of that table.
The dense form is built only for the pool and for the enumeration
oracle: the factorization suite reads each split's two traversals
straight off the pool morphism.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import inf

from .errors import BsGraphError, Conflict
from .graphs import ColouredGraph, Path, path_degree, vertex_path
from .morphisms import (
    Morphism,
    _rule,
    enumerate_morphisms,
    lift_path,
    normal_form,
    shortest_traversal,
    split_traversals,
)
from .squares import CompleteCollection

# Law suites in the order `verify` runs them by default.
SUITES = ("category", "functor", "factorization")


class LawResult(namedtuple("LawResult", "name instances passed counterexample", defaults=(None,))):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "law": self.name,
            "instances": self.instances,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


# The indent=2 texts of a report and of one law in its list.
_REPORT = '{\n  "passed": %s,\n  "laws": %s\n}'
_LAW = (
    '    {\n      "law": %s,\n      "instances": %d,\n      "passed": %s,\n'
    '      "counterexample": %s\n    }'
)
_JSON_BOOL = {True: "true", False: "false"}


class VerificationReport(namedtuple("VerificationReport", "laws")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def to_json(self) -> dict:
        return {"passed": self.passed, "laws": [l.to_json() for l in self.laws]}

    def json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2)``, written directly: law
        names and counterexamples go through the C string encoder that
        ``json.dumps`` uses, so the text is the same to the byte."""
        if not self.laws:
            return _REPORT % (_JSON_BOOL[self.passed], "[]")
        laws = ",\n".join(
            _LAW % (
                encode_basestring_ascii(law.name),
                law.instances,
                _JSON_BOOL[law.passed],
                "null" if law.counterexample is None
                else encode_basestring_ascii(law.counterexample),
            )
            for law in self.laws
        )
        return _REPORT % (_JSON_BOOL[self.passed], f"[\n{laws}\n  ]")

    def to_text(self) -> str:
        lines = []
        for law in self.laws:
            status = "pass" if law.passed else "FAIL"
            line = f"{status}  {law.name}  ({law.instances} instances)"
            if law.counterexample:
                line += f"\n      counterexample: {law.counterexample}"
            lines.append(line)
        return "\n".join(lines)


def all_paths(g: ColouredGraph, max_len: int) -> list[Path]:
    """Every composable path of length <= max_len, vertex paths included."""
    frontier = [vertex_path(g, v) for v in g.vertices]
    out = list(frontier)
    for _ in range(max_len):
        frontier = [
            Path(p.edges + (e.name,), p.range_, e.source, p.colours + e.colour)
            for p in frontier
            for e in g.edges
            if e.range_ == p.source
        ]
        out += frontier
    return out


def pool_morphisms(collection: CompleteCollection, max_len: int) -> list[Morphism]:
    """Distinct morphisms lifted from all paths of length <= max_len,
    in key order."""
    seen = {}
    for p in all_paths(collection.graph, max_len):
        lam = lift_path(collection, p)
        seen.setdefault(lam.key(), lam)
    return [seen[k] for k in sorted(seen)]


class CompositionTable:
    """The pool of one run, interned shortest traversals and their
    composites.

    Rewriting terminates and is confluent, so a shortest traversal names
    its morphism: ``intern`` gives each one, keyed by (range, edges), an
    int id, and equal morphisms get equal ids.  ``compose`` reads the
    composite of two ids from a table and, on a miss, builds it with the
    module's ``composite`` and interns it only if its (range, edges) is
    new.  ``runs[i]`` is the length of the leading run of the rewriting
    rule's last letter in ``paths[i]``, where ``composite`` splits a right
    factor, and ``reach[i]`` the shortest such run that ``paths[i]`` on the
    left rewrites with (``inf`` if none does).  The constructor checks
    coverage, then builds the pool of ``max_len`` and interns the shortest
    traversal of pool morphism n as id n, so ``paths[:len(pool)]`` are the
    pool's traversals, and ``after`` maps each vertex to the pool ids with
    that range, in pool order.  Nothing here outlives the run: a later run
    on the same collection gets a new table.
    """

    def __init__(self, collection: CompleteCollection, max_len: int):
        collection.require_covered()
        self.collection = collection
        self.paths: list[Path] = []  # id -> shortest traversal
        self.keys: list = []  # id -> (range, edges)
        self.runs: list[int] = []  # id -> length of its leading run
        self.reach: list = []  # id -> shortest run it rewrites with
        self._ids: dict = {}  # (range, edges) -> id
        # id i -> {id j: id of the composite of i and j}, made when i is
        # first composed on the left; one small dict per left factor holds
        # no key tuples, which keeps the table lean.
        self._products: dict = defaultdict(dict)
        # (id i, run edges) -> the normal form of paths[i] followed by them.
        self._heads: dict = {}
        self._pattern = _rule(collection.ops)[0]
        self.pool = pool_morphisms(collection, max_len)
        self.after: dict = {}  # vertex -> pool ids with that range
        for n, lam in enumerate(self.pool):
            x = shortest_traversal(lam)
            if self.intern(x) != n:
                raise Conflict(f"two morphisms of the pool have the shortest traversal {x}")
            self.after.setdefault(x.range_, []).append(n)

    def intern(self, x: Path) -> int:
        key = (x.range_, x.edges)
        i = self._ids.get(key)
        return self._add(key, x) if i is None else i

    def _add(self, key: tuple, x: Path) -> int:
        i = self._ids[key] = len(self.paths)
        self.paths.append(x)
        self.keys.append(key)
        # The pattern is one letter and then a run of its last letter, so a
        # run on the right completes it only after x's first letter and
        # trailing run.
        pattern, word = self._pattern, x.colours
        body = word.rstrip(pattern[-1])
        self.runs.append(len(word) - len(word.lstrip(pattern[-1])))
        trail = len(word) - len(body)
        self.reach.append(len(pattern) - 1 - trail if body.endswith(pattern[0]) else inf)
        return i

    def pairs(self):
        """Pool ids (i, j) of every composable pair, in pool order."""
        paths, after = self.paths, self.after
        for i in range(len(self.pool)):
            for j in after.get(paths[i].source, ()):
                yield i, j

    def row(self, i: int):
        """Id j -> id of the composite of i and j, for every j composed
        with i on the right so far; read it, do not change it."""
        return self._products.get(i, {})

    def compose(self, i: int, j: int) -> int:
        row = self._products[i]
        k = row.get(j)
        if k is None:
            edges, range_, source, colours = composite(self, i, j)
            key = (range_, edges)
            k = self._ids.get(key)
            if k is None:
                k = self._add(key, Path(edges, range_, source, colours))
            row[j] = k
        return k


def composite(table: CompositionTable, i: int, j: int) -> tuple:
    """The composite of ids i and j as the fields (edges, range_, source,
    colours) of the normal form of their concatenation x·y.

    x and y are normal, so a rewrite can only start at the junction, and
    it reaches into y no further than y's leading run of the rule's last
    letter (``b`` in BS mode, ``a`` in grid mode): the rule's pattern is
    one letter and then a run of that last letter, and the rest of y starts
    with another letter.  So nf(x·y) = nf(x·run)·rest.  Without a run, or
    with one too short to complete the pattern at x's end (``reach``), the
    composite is the concatenation; otherwise the head nf(x·run) is
    rewritten once per (i, run edges) and kept in the table.
    """
    x, y = table.paths[i], table.paths[j]
    q = table.runs[j]
    if q < table.reach[i]:
        return x.edges + y.edges, x.range_, y.source, x.colours + y.colours
    run = y.edges[:q]
    head = table._heads.get((i, run))
    if head is None:
        collection = table.collection
        to = collection.graph.edge(run[-1]).source
        head = table._heads[(i, run)] = normal_form(
            collection, Path(x.edges + run, x.range_, to, x.colours + y.colours[:q])
        )
    return head.edges + y.edges[q:], x.range_, y.source, head.colours + y.colours[q:]


def _describe(ops, *xs: Path) -> str:
    return " ; ".join(
        f"degree {ops.format(path_degree(ops, x))} from {x.range_} to {x.source}" for x in xs
    )


def _law(name: str, instances, counterexample) -> LawResult:
    """Check one law over its instances in order, up to and including the
    first one for which ``counterexample(*instance)`` describes a failure."""
    count = 0
    for instance in instances:
        count += 1
        found = counterexample(*instance)
        if found:
            return LawResult(name, count, False, found)
    return LawResult(name, count, True)


def verify_category(table: CompositionTable) -> VerificationReport:
    """Range/source, associativity, and identity laws over the table's pool."""
    collection = table.collection
    paths, keys, compose, row = table.paths, table.keys, table.compose, table.row
    ops = collection.ops

    def range_source(i, j):
        prod = paths[compose(i, j)]
        if prod.range_ != paths[i].range_ or prod.source != paths[j].source:
            return _describe(ops, paths[i], paths[j])

    rs = _law("range/source of composites", table.pairs(), range_source)

    # Associativity is most of verify's instances (95% at max-len 5 on
    # example_E.cg) and its triple products are most of its composites, so
    # it compares them as (range, edges): read from the table's rows where
    # the pair was composed, else built by ``composite`` and not interned.
    # It runs over the pairs the range/source law composed, the failing
    # one included, and each j·k is such a pair.
    assoc_instances = 0
    assoc_fail = None
    for i, j in islice(table.pairs(), rs.instances):
        left = compose(i, j)
        i_row, j_row, left_row = row(i), row(j), row(left)
        for k in table.after.get(paths[j].source, ()):
            assoc_instances += 1
            right = j_row.get(k)
            if right is None:
                right = compose(j, k)
            outer = left_row.get(k)
            if outer is None:
                edges, range_, _, _ = composite(table, left, k)
                outer = (range_, edges)
            else:
                outer = keys[outer]
            inner = i_row.get(right)
            if inner is None:
                edges, range_, _, _ = composite(table, i, right)
                inner = (range_, edges)
            else:
                inner = keys[inner]
            if outer != inner:
                assoc_fail = _describe(ops, paths[i], paths[j], paths[k])
                break
        if assoc_fail:
            break
    assoc = LawResult("associativity", assoc_instances, assoc_fail is None, assoc_fail)

    g = collection.graph
    unit = {v: table.intern(vertex_path(g, v)) for v in g.vertices}

    def identity_law(i, x):
        on_left, on_right = compose(unit[x.range_], i), compose(i, unit[x.source])
        if on_left != i or on_right != i:
            return _describe(ops, x)

    identity = _law("identity laws", enumerate(paths[:len(table.pool)]), identity_law)
    return VerificationReport([rs, assoc, identity])


def verify_functor(table: CompositionTable) -> VerificationReport:
    """Degree is multiplicative on composites and trivial on identities."""
    collection = table.collection
    paths, compose = table.paths, table.compose
    ops = collection.ops
    degrees = [lam.degree for lam in table.pool]

    def multiplicative(i, j):
        product = path_degree(ops, paths[compose(i, j)])
        if product != ops.mul(degrees[i], degrees[j]):
            return _describe(ops, paths[i], paths[j])

    def identity_degree(v):
        if path_degree(ops, vertex_path(collection.graph, v)) != ops.identity:
            return f"vertex {v}"

    return VerificationReport([
        _law("degree multiplicative on composites", table.pairs(), multiplicative),
        _law("identities map to e", zip(collection.graph.vertices), identity_degree),
    ])


def verify_factorization(table: CompositionTable) -> VerificationReport:
    """Factor-then-compose returns the morphism, and each split is the
    unique factor pair of its degrees that enumeration finds."""
    collection = table.collection
    paths, compose, intern = table.paths, table.compose, table.intern
    ops = collection.ops
    enumerated: dict = {}

    def candidates(w) -> dict:
        """Range -> ids of the traversals of the morphisms of degree w
        that enumeration finds, undeduplicated."""
        if w not in enumerated:
            by_range = enumerated[w] = {}
            for m in enumerate_morphisms(collection, w):
                x = shortest_traversal(m)
                by_range.setdefault(x.range_, []).append(intern(x))
        return enumerated[w]

    # (pool id, w1, w2, left id, right id) of every split, read off the
    # dense pool morphism, so the split comes from the lift, not rewriting.
    splits = []
    for n, lam in enumerate(table.pool):
        for w1 in ops.prefixes(lam.degree):
            w2 = ops.quotient(w1, lam.degree)
            mu, nu = split_traversals(lam, w1, w2)
            splits.append((n, w1, w2, intern(mu), intern(nu)))

    def round_trip(n, w1, w2, left, right):
        if compose(left, right) != n:
            return f"{_describe(ops, paths[n])} split at {ops.format(w1)}"

    def uniqueness(n, w1, w2, left, right):
        firsts, seconds = candidates(w1), candidates(w2)
        matches = [
            (mu, nu)
            for group in firsts.values()
            for mu in group
            for nu in seconds.get(paths[mu].source, ())
            if compose(mu, nu) == n
        ]
        if len(matches) != 1:
            problem = f"{len(matches)} factor pairs"
        elif matches[0] != (left, right):
            problem = "enumeration's factor pair is not the split"
        else:
            return None
        return f"{_describe(ops, paths[n])} split at {ops.format(w1)}: {problem}"

    return VerificationReport([
        _law("factorize/compose round-trip", splits, round_trip),
        _law("factor pair uniqueness", splits, uniqueness),
    ])


def verify(collection: CompleteCollection, max_len: int, suites=SUITES) -> VerificationReport:
    """The named law suites, run in order over one composition table and
    merged into one report.

    The pool is built once, and a composite one suite has computed is a
    table read for the next.  An unknown suite name raises
    ``BsGraphError`` before any path is lifted."""
    suites = list(suites)
    unknown = [name for name in suites if name not in SUITES]
    if unknown:
        raise BsGraphError(
            f"unknown law suite(s): {', '.join(unknown)}; the suites are {', '.join(SUITES)}"
        )
    table = CompositionTable(collection, max_len)
    laws = []
    for name in suites:
        # Looked up per call, so a rebound suite function is the one that runs.
        laws.extend(globals()[f"verify_{name}"](table).laws)
    return VerificationReport(laws)
