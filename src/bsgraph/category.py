"""The category of compatible morphisms and its law-verification sweeps.

Composition follows the uniqueness argument: concatenate traversals of the
two factors.  ``compose`` lifts the result to the dense morphism.  The
verification sweeps exhaustively check the category, degree-functor, and
factorization laws over every morphism lifted from paths up to a length
bound, reporting the first counterexample when a law fails.  Inside the
sweeps a morphism is its shortest traversal, and composing two of them is
rewriting their concatenation back to normal form (``normal_form``); the
dense form is built only for the pool, for restriction, and for the
enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DegreeMismatch, NotComposable, UnknownVertex
from .graphs import ColouredGraph, Path, concat, path_degree, vertex_path
from .morphisms import (
    Morphism,
    enumerate_morphisms,
    identity_morphism,
    lift_path,
    normal_form,
    restrict,
    restrict_shifted,
    shortest_traversal,
)
from .squares import CompleteCollection, paths_with_colour_word

# Law suites in the order `verify` runs them by default.
SUITES = ("category", "functor", "factorization")


@dataclass
class LambdaContext:
    """A graph together with a complete collection; mode comes from ops."""

    graph: ColouredGraph
    collection: CompleteCollection
    # max_len -> (pool, shortest traversals), shared by the suites of one run.
    _pool_memo: dict = field(default_factory=dict, repr=False)

    @property
    def ops(self):
        return self.collection.ops

    @property
    def mode(self) -> str:
        return self.ops.name


def identity(ctx: LambdaContext, v: str) -> Morphism:
    if v not in ctx.graph.vertex_set:
        raise UnknownVertex(f"unknown vertex {v!r}")
    return identity_morphism(ctx.ops, v)


def compose(ctx: LambdaContext, mu: Morphism, nu: Morphism) -> Morphism:
    """The unique morphism restricting to mu and (shifted) to nu."""
    if mu.source != nu.range_:
        raise NotComposable(None, f"s(mu) = {mu.source} != r(nu) = {nu.range_}")
    x = shortest_traversal(ctx.graph, mu)
    y = shortest_traversal(ctx.graph, nu)
    return lift_path(ctx.graph, ctx.collection, concat(x, y))


def factorize(lam: Morphism, w1, w2) -> tuple[Morphism, Morphism]:
    """Split lam at degree w1 into its unique degree-(w1, w2) factor pair."""
    ops = lam.ops
    if ops.mul(w1, w2) != lam.degree:
        raise DegreeMismatch(
            f"{ops.format(w1)} * {ops.format(w2)} != {ops.format(lam.degree)}"
        )
    return restrict(lam, w1), restrict_shifted(lam, w1, lam.degree)


@dataclass
class LawResult:
    name: str
    instances: int
    passed: bool
    counterexample: str | None = None

    def to_json(self) -> dict:
        return {
            "law": self.name,
            "instances": self.instances,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


@dataclass
class VerificationReport:
    laws: list[LawResult]

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


def pool_morphisms(ctx: LambdaContext, max_len: int) -> list[Morphism]:
    """Distinct morphisms lifted from all paths of length <= max_len,
    in key order."""
    seen = {}
    for p in all_paths(ctx.graph, max_len):
        lam = lift_path(ctx.graph, ctx.collection, p)
        seen.setdefault(lam.key(), lam)
    return [seen[k] for k in sorted(seen)]


def require_covered(ctx: LambdaContext) -> None:
    """Look up every boundary path of the graph, blue-first ones first.

    A rewriting sweep only meets the squares its paths touch, so a missing
    square elsewhere would go unseen; this raises its ``NotCovered``.
    """
    ops = ctx.ops
    for word, lookup in (
        (ops.blue_first_word, ctx.collection.lookup_blue),
        (ops.red_first_word, ctx.collection.lookup_red),
    ):
        for boundary in paths_with_colour_word(ctx.graph, word):
            lookup(boundary)


def _sweep_pool(ctx: LambdaContext, max_len: int) -> tuple[list, list]:
    """The pool and its shortest traversals, built once per context and
    bound after the coverage check."""
    cached = ctx._pool_memo.get(max_len)
    if cached is None:
        require_covered(ctx)
        pool = pool_morphisms(ctx, max_len)
        paths = [shortest_traversal(ctx.graph, lam) for lam in pool]
        cached = ctx._pool_memo[max_len] = (pool, paths)
    return cached


def _composite(ctx: LambdaContext, x: Path, y: Path) -> Path:
    """The shortest traversal of the composite of two traversed morphisms."""
    return normal_form(ctx.graph, ctx.collection, concat(x, y))


def _describe(ops, x: Path) -> str:
    return f"degree {ops.format(path_degree(ops, x))} from {x.range_} to {x.source}"


def _by_range(paths: list) -> dict:
    """Vertex -> indices of the paths with that range, in pool order."""
    out: dict = {}
    for i, x in enumerate(paths):
        out.setdefault(x.range_, []).append(i)
    return out


def verify_category(ctx: LambdaContext, max_len: int) -> VerificationReport:
    """Range/source, associativity, and identity laws over the bounded pool."""
    _, pool = _sweep_pool(ctx, max_len)
    ops = ctx.ops
    after = _by_range(pool)
    laws = []

    rs_instances = 0
    rs_fail = None
    products = {}  # (i, j) -> composite of pool[i] and pool[j]
    for i, mu in enumerate(pool):
        for j in after.get(mu.source, ()):
            nu = pool[j]
            prod = products[i, j] = _composite(ctx, mu, nu)
            rs_instances += 1
            if prod.range_ != mu.range_ or prod.source != nu.source:
                rs_fail = f"{_describe(ops, mu)} ; {_describe(ops, nu)}"
                break
        if rs_fail:
            break
    laws.append(LawResult("range/source of composites", rs_instances, rs_fail is None, rs_fail))

    assoc_instances = 0
    assoc_fail = None
    for (i, j), left in products.items():
        lam, mu = pool[i], pool[j]
        for k in after.get(mu.source, ()):
            nu = pool[k]
            right = products.get((j, k))
            if right is None:
                right = _composite(ctx, mu, nu)
            assoc_instances += 1
            if _composite(ctx, left, nu) != _composite(ctx, lam, right):
                assoc_fail = (
                    f"{_describe(ops, lam)} ; {_describe(ops, mu)} ; {_describe(ops, nu)}"
                )
                break
        if assoc_fail:
            break
    laws.append(LawResult("associativity", assoc_instances, assoc_fail is None, assoc_fail))

    id_instances = 0
    id_fail = None
    for lam in pool:
        id_instances += 1
        if (
            _composite(ctx, vertex_path(ctx.graph, lam.range_), lam) != lam
            or _composite(ctx, lam, vertex_path(ctx.graph, lam.source)) != lam
        ):
            id_fail = _describe(ops, lam)
            break
    laws.append(LawResult("identity laws", id_instances, id_fail is None, id_fail))
    return VerificationReport(laws)


def verify_functor(ctx: LambdaContext, max_len: int) -> VerificationReport:
    """Degree is multiplicative on composites and trivial on identities."""
    _, pool = _sweep_pool(ctx, max_len)
    ops = ctx.ops
    degrees = [path_degree(ops, x) for x in pool]
    after = _by_range(pool)
    laws = []

    mult_instances = 0
    mult_fail = None
    for i, mu in enumerate(pool):
        for j in after.get(mu.source, ()):
            nu = pool[j]
            mult_instances += 1
            if path_degree(ops, _composite(ctx, mu, nu)) != ops.mul(degrees[i], degrees[j]):
                mult_fail = f"{_describe(ops, mu)} ; {_describe(ops, nu)}"
                break
        if mult_fail:
            break
    laws.append(LawResult(
        "degree multiplicative on composites", mult_instances, mult_fail is None, mult_fail
    ))

    id_instances = 0
    id_fail = None
    for v in ctx.graph.vertices:
        id_instances += 1
        if path_degree(ops, vertex_path(ctx.graph, v)) != ops.identity:
            id_fail = f"vertex {v}"
            break
    laws.append(LawResult("identities map to e", id_instances, id_fail is None, id_fail))
    return VerificationReport(laws)


def verify_factorization(ctx: LambdaContext, max_len: int) -> VerificationReport:
    """Factor-then-compose returns the morphism, and each split is the
    unique factor pair of its degrees (checked against enumeration)."""
    pool, paths = _sweep_pool(ctx, max_len)
    ops = ctx.ops
    g = ctx.graph
    laws = []

    rt_instances = 0
    rt_fail = None
    for lam, x in zip(pool, paths):
        for w1 in ops.prefixes(lam.degree):
            w2 = ops.quotient(w1, lam.degree)
            rt_instances += 1
            mu, nu = factorize(lam, w1, w2)
            if _composite(ctx, shortest_traversal(g, mu), shortest_traversal(g, nu)) != x:
                rt_fail = f"{_describe(ops, x)} split at {ops.format(w1)}"
                break
        if rt_fail:
            break
    laws.append(LawResult(
        "factorize/compose round-trip", rt_instances, rt_fail is None, rt_fail
    ))

    uniq_instances = 0
    uniq_fail = None
    enum_memo: dict = {}

    def candidates(w):
        """Traversals of every enumerated morphism of degree w, undeduplicated."""
        if w not in enum_memo:
            enum_memo[w] = [
                shortest_traversal(g, m) for m in enumerate_morphisms(g, ctx.collection, w)
            ]
        return enum_memo[w]

    for lam, x in zip(pool, paths):
        for w1 in ops.prefixes(lam.degree):
            w2 = ops.quotient(w1, lam.degree)
            uniq_instances += 1
            matches = [
                (mu, nu)
                for mu in candidates(w1)
                for nu in candidates(w2)
                if mu.source == nu.range_ and _composite(ctx, mu, nu) == x
            ]
            if len(matches) != 1:
                uniq_fail = (
                    f"{_describe(ops, x)} split at {ops.format(w1)}: "
                    f"{len(matches)} factor pairs"
                )
                break
        if uniq_fail:
            break
    laws.append(LawResult(
        "factor pair uniqueness", uniq_instances, uniq_fail is None, uniq_fail
    ))
    return VerificationReport(laws)


def verify(ctx: LambdaContext, max_len: int, suites=SUITES) -> VerificationReport:
    """The named law suites, run in order and merged into one report."""
    # Looked up per call, so a rebound suite function is the one that runs.
    run = {
        "category": verify_category,
        "functor": verify_functor,
        "factorization": verify_factorization,
    }
    laws = []
    for name in suites:
        laws.extend(run[name](ctx, max_len).laws)
    return VerificationReport(laws)
