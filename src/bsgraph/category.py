"""The category of compatible morphisms and its law-verification sweeps.

Composition follows the uniqueness argument: concatenate traversals of the
two factors and lift the result.  Verification sweeps exhaustively check
the category, degree-functor, and factorization laws over every morphism
lifted from paths up to a length bound, reporting the first counterexample
when a law fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DegreeMismatch, NotComposable, UnknownVertex
from .graphs import ColouredGraph, Path, concat, vertex_path
from .morphisms import (
    Morphism,
    enumerate_morphisms,
    identity_morphism,
    lift_path,
    restrict,
    restrict_shifted,
    shortest_traversal,
)
from .squares import CompleteCollection

# Law suites in the order `verify` runs them by default.
SUITES = ("category", "functor", "factorization")


@dataclass
class LambdaContext:
    """A graph together with a complete collection; mode comes from ops."""

    graph: ColouredGraph
    collection: CompleteCollection
    _compose_memo: dict = field(default_factory=dict, repr=False)
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
    memo_key = (mu.key(), nu.key())
    cached = ctx._compose_memo.get(memo_key)
    if cached is not None:
        return cached
    x = shortest_traversal(ctx.graph, mu)
    y = shortest_traversal(ctx.graph, nu)
    result = lift_path(ctx.graph, ctx.collection, concat(x, y))
    ctx._compose_memo[memo_key] = result
    return result


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
    """Distinct morphisms lifted from all paths of length <= max_len."""
    cached = ctx._pool_memo.get(max_len)
    if cached is not None:
        return cached
    seen = {}
    for p in all_paths(ctx.graph, max_len):
        lam = lift_path(ctx.graph, ctx.collection, p)
        seen.setdefault(lam.key(), lam)
    pool = [seen[k] for k in sorted(seen)]
    ctx._pool_memo[max_len] = pool
    return pool


def _describe(lam: Morphism) -> str:
    ops = lam.ops
    return (
        f"degree {ops.format(lam.degree)} from {lam.range_} to {lam.source}"
    )


def verify_category(ctx: LambdaContext, max_len: int) -> VerificationReport:
    """Range/source, associativity, and identity laws over the bounded pool."""
    pool = pool_morphisms(ctx, max_len)
    laws = []

    rs_instances = 0
    rs_fail = None
    pairs = []
    for mu, nu in itertools.product(pool, pool):
        if mu.source != nu.range_:
            continue
        pairs.append((mu, nu))
        prod = compose(ctx, mu, nu)
        rs_instances += 1
        if prod.range_ != mu.range_ or prod.source != nu.source:
            rs_fail = f"{_describe(mu)} ; {_describe(nu)}"
            break
    laws.append(LawResult("range/source of composites", rs_instances, rs_fail is None, rs_fail))

    assoc_instances = 0
    assoc_fail = None
    for lam, mu in pairs:
        left = compose(ctx, lam, mu)
        for nu in pool:
            if mu.source != nu.range_:
                continue
            assoc_instances += 1
            if compose(ctx, left, nu) != compose(ctx, lam, compose(ctx, mu, nu)):
                assoc_fail = f"{_describe(lam)} ; {_describe(mu)} ; {_describe(nu)}"
                break
        if assoc_fail:
            break
    laws.append(LawResult("associativity", assoc_instances, assoc_fail is None, assoc_fail))

    id_instances = 0
    id_fail = None
    for lam in pool:
        id_instances += 1
        if (
            compose(ctx, identity(ctx, lam.range_), lam) != lam
            or compose(ctx, lam, identity(ctx, lam.source)) != lam
        ):
            id_fail = _describe(lam)
            break
    laws.append(LawResult("identity laws", id_instances, id_fail is None, id_fail))
    return VerificationReport(laws)


def verify_functor(ctx: LambdaContext, max_len: int) -> VerificationReport:
    """Degree is multiplicative on composites and trivial on identities."""
    pool = pool_morphisms(ctx, max_len)
    ops = ctx.ops
    laws = []

    mult_instances = 0
    mult_fail = None
    for mu, nu in itertools.product(pool, pool):
        if mu.source != nu.range_:
            continue
        mult_instances += 1
        if compose(ctx, mu, nu).degree != ops.mul(mu.degree, nu.degree):
            mult_fail = f"{_describe(mu)} ; {_describe(nu)}"
            break
    laws.append(LawResult(
        "degree multiplicative on composites", mult_instances, mult_fail is None, mult_fail
    ))

    id_instances = 0
    id_fail = None
    for v in ctx.graph.vertices:
        id_instances += 1
        if identity(ctx, v).degree != ops.identity:
            id_fail = f"vertex {v}"
            break
    laws.append(LawResult("identities map to e", id_instances, id_fail is None, id_fail))
    return VerificationReport(laws)


def verify_factorization(ctx: LambdaContext, max_len: int) -> VerificationReport:
    """Factor-then-compose returns the morphism, and each split is the
    unique factor pair of its degrees (checked against enumeration)."""
    pool = pool_morphisms(ctx, max_len)
    ops = ctx.ops
    laws = []

    rt_instances = 0
    rt_fail = None
    for lam in pool:
        for w1 in ops.prefixes(lam.degree):
            w2 = ops.quotient(w1, lam.degree)
            rt_instances += 1
            mu, nu = factorize(lam, w1, w2)
            if compose(ctx, mu, nu) != lam:
                rt_fail = f"{_describe(lam)} split at {ops.format(w1)}"
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
        if w not in enum_memo:
            enum_memo[w] = enumerate_morphisms(ctx.graph, ctx.collection, w)
        return enum_memo[w]

    for lam in pool:
        for w1 in ops.prefixes(lam.degree):
            w2 = ops.quotient(w1, lam.degree)
            uniq_instances += 1
            matches = [
                (mu, nu)
                for mu in candidates(w1)
                for nu in candidates(w2)
                if mu.source == nu.range_ and compose(ctx, mu, nu) == lam
            ]
            if len(matches) != 1:
                uniq_fail = (
                    f"{_describe(lam)} split at {ops.format(w1)}: "
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
