"""The category of compatible morphisms and its law-verification sweeps.

The verification sweeps exhaustively check the category, degree-functor,
and factorization laws over every morphism lifted from paths up to a
length bound, reporting the first counterexample when a law fails.  Inside
the sweeps a morphism is its shortest traversal, and composing two of them
is rewriting their concatenation back to normal form (``normal_form``).
One ``CompositionTable`` per run owns the pool, names each traversal by an
int and rewrites each distinct pair once, for all three suites.  The dense
form is built only for the pool and for the enumeration oracle: the
factorization suite reads each split's two traversals straight off the
pool morphism.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from types import MappingProxyType

from .graphs import ColouredGraph, Path, concat, path_degree, vertex_path
from .morphisms import (
    Morphism,
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


class VerificationReport(namedtuple("VerificationReport", "laws")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def to_json(self) -> dict:
        return {"passed": self.passed, "laws": [l.to_json() for l in self.laws]}

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
    out = [vertex_path(g, v) for v in g.vertices]
    frontier = out
    for _ in range(max_len):
        extended = []
        for p in frontier:
            for e in g.edges:
                if e.range_ == p.source:
                    extended.append(
                        Path(
                            p.edges + (e.name,),
                            p.range_ if p.edges else e.range_,
                            e.source,
                            p.colours + (e.colour,),
                        )
                    )
        out.extend(extended)
        frontier = extended
    return out


def pool_morphisms(collection: CompleteCollection, max_len: int) -> list[Morphism]:
    """Distinct morphisms lifted from all paths of length <= max_len,
    in key order."""
    seen = {}
    for p in all_paths(collection.graph, max_len):
        lam = lift_path(collection, p)
        seen.setdefault(lam.key(), lam)
    return [seen[k] for k in sorted(seen)]


# The products row of each id not yet composed on the left: one shared
# read-only empty map, so an id that is only a right factor costs no dict.
_NO_PRODUCTS = MappingProxyType({})


class CompositionTable:
    """The pool of one run, interned shortest traversals and their
    composites.

    Rewriting terminates and is confluent, so a shortest traversal names
    its morphism: ``intern`` gives each one, keyed by (range, edges), an
    int id, and equal morphisms get equal ids.  ``compose`` reads the
    composite of two ids from a table and rewrites only on a miss, once
    per distinct pair, with the module's ``normal_form``.  The constructor
    checks coverage, then builds the pool of ``max_len``, its shortest
    ``traversals`` and their ``ids``, by pool index.  Nothing here outlives
    the run: a later run on the same collection gets a new table.
    """

    def __init__(self, collection: CompleteCollection, max_len: int):
        collection.require_covered()
        self.collection = collection
        self.paths: list[Path] = []  # id -> shortest traversal
        self._ids: dict = {}  # (range, edges) -> id
        # id i -> {id j: id of the composite of i and j}; one small dict
        # per left factor holds no key tuples, which keeps the table lean.
        self._products: list = []
        self.pool = pool_morphisms(collection, max_len)
        self.traversals = [shortest_traversal(lam) for lam in self.pool]
        self.ids = [self.intern(x) for x in self.traversals]

    def intern(self, x: Path) -> int:
        key = (x.range_, x.edges)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.paths)
            self.paths.append(x)
            self._products.append(_NO_PRODUCTS)
        return i

    def compose(self, i: int, j: int) -> int:
        row = self._products[i]
        k = row.get(j)
        if k is None:
            if row is _NO_PRODUCTS:
                row = self._products[i] = {}
            paths = self.paths
            k = row[j] = self.intern(normal_form(self.collection, concat(paths[i], paths[j])))
        return k


def _describe(ops, *xs: Path) -> str:
    return " ; ".join(
        f"degree {ops.format(path_degree(ops, x))} from {x.range_} to {x.source}" for x in xs
    )


def _by_range(paths: list) -> dict:
    """Vertex -> indices of the paths with that range, in pool order."""
    out: dict = {}
    for i, x in enumerate(paths):
        out.setdefault(x.range_, []).append(i)
    return out


def _pairs(paths: list, after: dict):
    """Pool indices (i, j) of every composable pair, in pool order."""
    for i, x in enumerate(paths):
        for j in after.get(x.source, ()):
            yield i, j


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


def verify_category(
    collection: CompleteCollection, max_len: int, table: CompositionTable | None = None
) -> VerificationReport:
    """Range/source, associativity, and identity laws over the bounded pool."""
    table = table or CompositionTable(collection, max_len)
    paths, ids = table.traversals, table.ids
    compose, products, interned = table.compose, table._products, table.paths
    ops = collection.ops
    after = _by_range(paths)

    def range_source(i, j):
        prod = interned[compose(ids[i], ids[j])]
        if prod.range_ != paths[i].range_ or prod.source != paths[j].source:
            return _describe(ops, paths[i], paths[j])

    rs = _law("range/source of composites", _pairs(paths, after), range_source)

    # Associativity is most of verify's instances (95% at max-len 5 on
    # example_E.cg), so it reads the table's rows inline and calls
    # ``compose`` only on a miss.  It runs over the pairs the range/source
    # law composed, the failing one included.
    assoc_instances = 0
    assoc_fail = None
    for i, j in islice(_pairs(paths, after), rs.instances):
        lam, mu = ids[i], ids[j]
        lam_row, mu_row = products[lam], products[mu]
        left = lam_row.get(mu)
        if left is None:
            left = compose(lam, mu)
        left_row = products[left]
        for k in after.get(paths[j].source, ()):
            nu = ids[k]
            assoc_instances += 1
            right = mu_row.get(nu)
            if right is None:
                right = compose(mu, nu)
            outer = left_row.get(nu)
            if outer is None:
                outer = compose(left, nu)
            inner = lam_row.get(right)
            if inner is None:
                inner = compose(lam, right)
            if outer != inner:
                assoc_fail = _describe(ops, paths[i], paths[j], paths[k])
                break
        if assoc_fail:
            break
    assoc = LawResult("associativity", assoc_instances, assoc_fail is None, assoc_fail)

    g = collection.graph
    unit = {v: table.intern(vertex_path(g, v)) for v in g.vertices}

    def identity_law(lam, x):
        on_left, on_right = compose(unit[x.range_], lam), compose(lam, unit[x.source])
        if on_left != lam or on_right != lam:
            return _describe(ops, x)

    return VerificationReport([rs, assoc, _law("identity laws", zip(ids, paths), identity_law)])


def verify_functor(
    collection: CompleteCollection, max_len: int, table: CompositionTable | None = None
) -> VerificationReport:
    """Degree is multiplicative on composites and trivial on identities."""
    table = table or CompositionTable(collection, max_len)
    paths, ids = table.traversals, table.ids
    compose, interned = table.compose, table.paths
    ops = collection.ops
    degrees = [path_degree(ops, x) for x in paths]
    pairs = _pairs(paths, _by_range(paths))

    def multiplicative(i, j):
        product = path_degree(ops, interned[compose(ids[i], ids[j])])
        if product != ops.mul(degrees[i], degrees[j]):
            return _describe(ops, paths[i], paths[j])

    def identity_degree(v):
        if path_degree(ops, vertex_path(collection.graph, v)) != ops.identity:
            return f"vertex {v}"

    return VerificationReport([
        _law("degree multiplicative on composites", pairs, multiplicative),
        _law("identities map to e", zip(collection.graph.vertices), identity_degree),
    ])


def verify_factorization(
    collection: CompleteCollection, max_len: int, table: CompositionTable | None = None
) -> VerificationReport:
    """Factor-then-compose returns the morphism, and each split is the
    unique factor pair of its degrees that enumeration finds."""
    table = table or CompositionTable(collection, max_len)
    paths, ids = table.traversals, table.ids
    compose, intern, interned = table.compose, table.intern, table.paths
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

    # (pool index, w1, w2, left id, right id) of every split, read off the
    # dense pool morphism, so the split comes from the lift, not rewriting.
    splits = []
    for n, lam in enumerate(table.pool):
        for w1 in ops.prefixes(lam.degree):
            w2 = ops.quotient(w1, lam.degree)
            mu, nu = split_traversals(lam, w1, w2)
            splits.append((n, w1, w2, intern(mu), intern(nu)))

    def round_trip(n, w1, w2, left, right):
        if compose(left, right) != ids[n]:
            return f"{_describe(ops, paths[n])} split at {ops.format(w1)}"

    def uniqueness(n, w1, w2, left, right):
        firsts, seconds = candidates(w1), candidates(w2)
        matches = [
            (mu, nu)
            for group in firsts.values()
            for mu in group
            for nu in seconds.get(interned[mu].source, ())
            if compose(mu, nu) == ids[n]
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
    """The named law suites, run in order and merged into one report.

    The suites share one composition table, so the pool is built once and
    a composite one suite has computed is a table read for the next."""
    # Looked up per call, so a rebound suite function is the one that runs.
    run = {
        "category": verify_category,
        "functor": verify_functor,
        "factorization": verify_factorization,
    }
    table = CompositionTable(collection, max_len)
    laws = []
    for name in suites:
        laws.extend(run[name](collection, max_len, table).laws)
    return VerificationReport(laws)
