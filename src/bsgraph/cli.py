"""Command-line front end.

Exit codes: 0 success / laws hold; 1 mathematical finding (incomplete
collection, uncovered boundary, law violation); 2 usage or input error.
Output is deterministic; every subcommand has a --json form.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dot
from .category import SUITES, LambdaContext, compose, factorize, verify
from .errors import (
    BsGraphError,
    Conflict,
    DegreeMismatch,
    FixtureSyntaxError,
    NotAPrefix,
    NotComposable,
    NotCovered,
    ResourceLimit,
    WordSyntaxError,
)
from .fixtures import load_fixture
from .graphs import parse_path
from .models import model
from .morphisms import (
    check_traverses,
    enumerate_morphisms,
    lift_path,
    longest_traversal,
    shortest_traversal,
)
from .squares import CompleteCollection, check_complete
from .words import BS, GRID, longest_form, parse_word

_FINDING = (NotCovered, Conflict, NotAPrefix, NotComposable, DegreeMismatch)
_INPUT_ERROR = (FixtureSyntaxError, WordSyntaxError)


def _emit(payload, as_json: bool, text: str):
    print(json.dumps(payload, indent=2) if as_json else text)


def _context(path) -> tuple:
    fx = load_fixture(path)
    return fx, LambdaContext(fx.graph, CompleteCollection(fx.ops, tuple(fx.squares)))


def cmd_check(args) -> int:
    fx = load_fixture(args.fixture)
    report = check_complete(fx.graph, fx.ops, fx.squares)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    elif report.complete:
        print(
            f"complete: {report.square_count} squares, "
            f"{report.red_path_count} red-first paths, "
            f"{report.blue_path_count} blue-first paths"
        )
    else:
        print("incomplete")
        for p in report.uncovered_red:
            print(f"  uncovered red-first path: {' '.join(p)}")
        for p in report.uncovered_blue:
            print(f"  uncovered blue-first path: {' '.join(p)}")
        for p in report.duplicated:
            print(f"  duplicated boundary path: {' '.join(p)}")
        for m in report.malformed:
            print(f"  malformed square: {m}")
    return 0 if report.complete else 1


def cmd_word(args) -> int:
    if args.word_op == "normalize":
        w = parse_word(args.w1)
        _emit(
            {"shortest": BS.format(w), "longest": longest_form(w), "pair": list(w)},
            args.json,
            f"shortest {BS.format(w)}\nlongest {longest_form(w)}\npair {w}",
        )
        return 0
    w1, w2 = parse_word(args.w1), parse_word(args.w2)
    if args.word_op == "mul":
        w = BS.mul(w1, w2)
        _emit({"word": BS.format(w), "pair": list(w)}, args.json, BS.format(w))
        return 0
    if args.word_op == "prefix":
        ok = BS.is_prefix(w1, w2)
        _emit({"prefix": ok}, args.json, "true" if ok else "false")
        return 0
    # quotient
    w = BS.quotient(w1, w2)
    _emit({"word": BS.format(w), "pair": list(w)}, args.json, BS.format(w))
    return 0


def cmd_model(args) -> int:
    ops = GRID if args.mode == "grid" else BS
    m = model(ops, ops.parse(args.word))
    if args.dot:
        sys.stdout.write(dot.model_to_dot(m))
        return 0
    label = ops.labels(m.vertices)
    payload = {
        "degree": label[m.word],
        "vertices": [label[z] for z in m.vertices],
        "edges": [{"prefix": label[z], "letter": l} for z, l in m.edges],
    }
    _emit(
        payload,
        args.json,
        f"degree {label[m.word]}: {len(m.vertices)} vertices, {len(m.edges)} edges",
    )
    return 0


def cmd_lift(args) -> int:
    fx, ctx = _context(args.fixture)
    path = parse_path(ctx.graph, args.path)
    lam = lift_path(ctx.graph, ctx.collection, path)
    if args.oracle:
        matches = [
            m
            for m in enumerate_morphisms(ctx.graph, ctx.collection, lam.degree)
            if check_traverses(ctx.graph, m, path)
        ]
        if matches != [lam]:
            print(
                f"oracle mismatch: enumeration found {len(matches)} morphisms "
                f"traversed by the path",
                file=sys.stderr,
            )
            return 1
    if args.dot:
        sys.stdout.write(dot.morphism_to_dot(lam))
    elif args.json:
        print(lam.json_text())
    else:
        print(
            f"degree {ctx.ops.format(lam.degree)}: "
            f"{len(lam.vmap)} vertices, {len(lam.emap)} edges, "
            f"r={lam.range_} s={lam.source}"
        )
    return 0


def cmd_compose(args) -> int:
    fx, ctx = _context(args.fixture)
    mu = lift_path(ctx.graph, ctx.collection, parse_path(ctx.graph, args.lhs))
    nu = lift_path(ctx.graph, ctx.collection, parse_path(ctx.graph, args.rhs))
    lam = compose(ctx, mu, nu)
    if args.json:
        print(lam.json_text())
    else:
        print(
            f"degree {ctx.ops.format(lam.degree)}: traversal "
            f"{shortest_traversal(ctx.graph, lam)}"
        )
    return 0


def cmd_factorize(args) -> int:
    fx, ctx = _context(args.fixture)
    lam = lift_path(ctx.graph, ctx.collection, parse_path(ctx.graph, args.path))
    w1 = ctx.ops.parse(args.at)
    w2 = ctx.ops.quotient(w1, lam.degree)
    mu, nu = factorize(lam, w1, w2)
    if args.json:
        print(f'{{\n  "left": {mu.json_text(1)},\n  "right": {nu.json_text(1)}\n}}')
    else:
        print(
            f"left  degree {ctx.ops.format(mu.degree)}: "
            f"{shortest_traversal(ctx.graph, mu)}\n"
            f"right degree {ctx.ops.format(nu.degree)}: "
            f"{shortest_traversal(ctx.graph, nu)}"
        )
    return 0


def cmd_traversals(args) -> int:
    fx, ctx = _context(args.fixture)
    path = parse_path(ctx.graph, args.path)
    lam = lift_path(ctx.graph, ctx.collection, path)
    rows = []
    if not args.longest:
        rows.append(("shortest", shortest_traversal(ctx.graph, lam)))
    if not args.shortest:
        rows.append(("longest", longest_traversal(ctx.graph, lam)))
    _emit(
        {kind: str(p) for kind, p in rows},
        args.json,
        "\n".join(f"{kind} {p}" for kind, p in rows),
    )
    return 0


def cmd_enumerate(args) -> int:
    fx, ctx = _context(args.fixture)
    w = ctx.ops.parse(args.degree)
    found = enumerate_morphisms(ctx.graph, ctx.collection, w)
    if args.limit is not None:
        found = found[: args.limit]
    if args.json:
        items = ",\n    ".join(m.json_text(2) for m in found)
        listing = f"[\n    {items}\n  ]" if found else "[]"
        print(f'{{\n  "count": {len(found)},\n  "morphisms": {listing}\n}}')
    else:
        print(
            "\n".join(
                f"[{i}] r={m.range_} s={m.source} "
                f"traversal {shortest_traversal(ctx.graph, m)}"
                for i, m in enumerate(found)
            )
            or "none"
        )
    return 0


def cmd_verify(args) -> int:
    fx, ctx = _context(args.fixture)
    wanted = args.laws.split(",")
    unknown = [w for w in wanted if w not in SUITES]
    if unknown:
        print(f"unknown law suite(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    report = verify(ctx, args.max_len, wanted)
    _emit(report.to_json(), args.json, report.to_text())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsgraph",
        description="Higher-rank graphs over the positive Baumslag-Solitar "
        "monoid from 2-coloured graphs with complete square collections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="validate square-collection completeness")
    p.add_argument("fixture")
    add_json(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("word", help="degree-monoid arithmetic")
    p.add_argument("word_op", choices=["normalize", "mul", "quotient", "prefix"])
    p.add_argument("w1")
    p.add_argument("w2", nargs="?")
    add_json(p)
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("model", help="build the template graph of a degree")
    p.add_argument("--word", required=True)
    p.add_argument("--mode", choices=["bs", "grid"], default="bs")
    p.add_argument("--dot", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("lift", help="lift a path to its unique morphism")
    p.add_argument("fixture")
    p.add_argument("--path", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against enumeration")
    p.add_argument("--dot", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("compose", help="compose the lifts of two paths")
    p.add_argument("fixture")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    add_json(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("factorize", help="split a lifted morphism at a degree")
    p.add_argument("fixture")
    p.add_argument("--path", required=True)
    p.add_argument("--at", required=True, metavar="W1")
    add_json(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("traversals", help="shortest/longest traversal of a lift")
    p.add_argument("fixture")
    p.add_argument("--path", required=True)
    p.add_argument("--shortest", action="store_true")
    p.add_argument("--longest", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_traversals)

    p = sub.add_parser("enumerate", help="brute-force all morphisms of a degree")
    p.add_argument("fixture")
    p.add_argument("--degree", required=True)
    p.add_argument("--limit", type=int)
    add_json(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the law-verification suites")
    p.add_argument("fixture")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--laws", default=",".join(SUITES))
    add_json(p)
    p.set_defaults(func=cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except _INPUT_ERROR as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _FINDING as exc:
        print(f"{type(exc).__name__}: {exc}")
        return 1
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BsGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
