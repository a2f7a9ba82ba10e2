"""Command-line front end.

Exit codes: 0 success / laws hold; 1 mathematical finding (incomplete
collection, uncovered boundary, law violation); 2 usage or input error.
Output is deterministic; every subcommand has a --json form.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import dot
from .category import SUITES, verify
from .errors import BsGraphError, Conflict, NotAPrefix, NotComposable, NotCovered, ResourceLimit
from .fixtures import load_fixture
from .graphs import concat, parse_path
from .models import model
from .morphisms import (
    check_traverses,
    enumerate_morphisms,
    lift_path,
    longest_traversal,
    shortest_traversal,
    split_traversals,
)
from .squares import check_complete
from .words import BS, MODES, longest_form, parse_word, printable_pair

_FINDING = (NotCovered, Conflict, NotAPrefix, NotComposable)


def _emit(payload, as_json: bool, text: str):
    print(json.dumps(payload, indent=2) if as_json else text)


def _count(text: str) -> int:
    """The argparse type of a count option: an int of at least 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {n}")
    return n


def cmd_check(args) -> int:
    ctx = load_fixture(args.fixture)
    report = check_complete(ctx.graph, ctx.ops, ctx.squares)
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
        if args.w2 is not None:
            print("error: word normalize takes one word", file=sys.stderr)
            return 2
        w = parse_word(args.w1)
        pair, longest, shortest = printable_pair(w), longest_form(w), BS.format(w)
        _emit(
            {"shortest": shortest, "longest": longest, "pair": pair},
            args.json,
            f"shortest {shortest}\nlongest {longest}\npair {w}",
        )
        return 0
    if args.w2 is None:
        print(f"error: word {args.word_op} needs two words", file=sys.stderr)
        return 2
    w1, w2 = parse_word(args.w1), parse_word(args.w2)
    if args.word_op == "prefix":
        ok = BS.is_prefix(w1, w2)
        _emit({"prefix": ok}, args.json, "true" if ok else "false")
        return 0
    w = BS.mul(w1, w2) if args.word_op == "mul" else BS.quotient(w1, w2)
    word = BS.format(w)
    # Only the JSON form writes the pair, so only it checks the pair's size.
    _emit({"word": word, "pair": printable_pair(w)} if args.json else None, args.json, word)
    return 0


def cmd_model(args) -> int:
    ops = MODES[args.mode]
    m = model(ops, ops.parse(args.word))
    if args.dot:
        sys.stdout.write(dot.model_to_dot(m))
    elif args.json:
        label = ops.label_rows(m.word)
        payload = {
            "degree": label[-1][-1],
            "vertices": [s for row in label for s in row],
            "edges": [{"prefix": label[i][j], "letter": l} for (i, j), l in m.edges],
        }
        print(json.dumps(payload, indent=2))
    else:
        # Only the degree is named: labelling every vertex would cost the
        # sum of their lengths, quadratic in M on the row of b's.
        print(f"degree {ops.format(m.word)}: {len(m.vertices)} vertices, {len(m.edges)} edges")
    return 0


def cmd_lift(args) -> int:
    ctx = load_fixture(args.fixture)
    path = parse_path(ctx.graph, args.path)
    lam = lift_path(ctx, path)
    if args.oracle:
        found = enumerate_morphisms(ctx, lam.degree, through=path)
        matches = [m for m in found if check_traverses(m, path)]
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
        vertices, edges = sum(map(len, lam.vrows)), sum(map(len, lam.arows + lam.brows))
        print(
            f"degree {ctx.ops.format(lam.degree)}: {vertices} vertices, {edges} edges, "
            f"r={lam.range_} s={lam.source}"
        )
    return 0


def cmd_compose(args) -> int:
    ctx = load_fixture(args.fixture)
    x = parse_path(ctx.graph, args.lhs)
    y = parse_path(ctx.graph, args.rhs)
    if x.source != y.range_:
        raise NotComposable(None, f"s(mu) = {x.source} != r(nu) = {y.range_}")
    # By unique factorization the lift of the concatenated paths is the
    # composite of the two sides' lifts.
    lam = lift_path(ctx, concat(x, y))
    if args.json:
        print(lam.json_text())
    else:
        print(f"degree {ctx.ops.format(lam.degree)}: traversal {shortest_traversal(lam)}")
    return 0


def cmd_factorize(args) -> int:
    ctx = load_fixture(args.fixture)
    lam = lift_path(ctx, parse_path(ctx.graph, args.path))
    w1 = ctx.ops.parse(args.at)
    w2 = ctx.ops.quotient(w1, lam.degree)
    x, y = split_traversals(lam, w1, w2)
    if args.json:
        # Each factor is the unique morphism its traversal lifts to.
        left, right = (lift_path(ctx, p).json_text(1) for p in (x, y))
        print(f'{{\n  "left": {left},\n  "right": {right}\n}}')
    else:
        print(
            f"left  degree {ctx.ops.format(w1)}: {x}\n"
            f"right degree {ctx.ops.format(w2)}: {y}"
        )
    return 0


def cmd_traversals(args) -> int:
    ctx = load_fixture(args.fixture)
    path = parse_path(ctx.graph, args.path)
    lam = lift_path(ctx, path)
    rows = []
    if not args.longest:
        rows.append(("shortest", shortest_traversal(lam)))
    if not args.shortest:
        rows.append(("longest", longest_traversal(lam)))
    _emit(
        {kind: str(p) for kind, p in rows},
        args.json,
        "\n".join(f"{kind} {p}" for kind, p in rows),
    )
    return 0


def cmd_enumerate(args) -> int:
    ctx = load_fixture(args.fixture)
    w = ctx.ops.parse(args.degree)
    found = enumerate_morphisms(ctx, w, limit=args.limit)
    if args.json:
        items = ",\n    ".join(m.json_text(2) for m in found)
        listing = f"[\n    {items}\n  ]" if found else "[]"
        print(f'{{\n  "count": {len(found)},\n  "morphisms": {listing}\n}}')
    else:
        print(
            "\n".join(
                f"[{i}] r={m.range_} s={m.source} "
                f"traversal {shortest_traversal(m)}"
                for i, m in enumerate(found)
            )
            or "none"
        )
    return 0


def cmd_verify(args) -> int:
    ctx = load_fixture(args.fixture)
    wanted = args.laws.split(",")
    if "" in wanted:
        print(
            f"error: empty law suite name in --laws {args.laws!r}; "
            f"the suites are {', '.join(SUITES)}",
            file=sys.stderr,
        )
        return 2
    twice = next((w for i, w in enumerate(wanted) if w in wanted[:i]), None)
    if twice is not None:
        print(f"error: law suite {twice!r} given twice in --laws {args.laws!r}", file=sys.stderr)
        return 2
    unknown = [w for w in wanted if w not in SUITES]
    if unknown:
        print(
            f"error: unknown law suite(s): {', '.join(unknown)}; "
            f"the suites are {', '.join(SUITES)}",
            file=sys.stderr,
        )
        return 2
    report = verify(ctx, args.max_len, wanted)
    _emit(report.to_json(), args.json, report.to_text())
    return 0 if report.passed else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``run``."""
    parser = argparse.ArgumentParser(
        prog="bsgraph",
        description="Higher-rank graphs over the positive Baumslag-Solitar "
        "monoid from 2-coloured graphs with complete square collections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate square-collection completeness")
    p.add_argument("fixture")

    p = sub.add_parser("word", help="degree-monoid arithmetic")
    p.add_argument("word_op", choices=["normalize", "mul", "quotient", "prefix"])
    p.add_argument("w1")
    p.add_argument("w2", nargs="?")

    p = sub.add_parser("model", help="build the template graph of a degree")
    p.add_argument("--word", required=True)
    p.add_argument("--mode", choices=MODES, default="bs")

    p = sub.add_parser("lift", help="lift a path to its unique morphism")
    p.add_argument("fixture")
    p.add_argument("--path", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against enumeration")

    p = sub.add_parser("compose", help="compose the lifts of two paths")
    p.add_argument("fixture")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = sub.add_parser("factorize", help="split a lifted morphism at a degree")
    p.add_argument("fixture")
    p.add_argument("--path", required=True)
    p.add_argument("--at", required=True, metavar="W1")

    p = sub.add_parser("traversals", help="shortest/longest traversal of a lift")
    p.add_argument("fixture")
    p.add_argument("--path", required=True)
    only = p.add_mutually_exclusive_group()
    only.add_argument("--shortest", action="store_true")
    only.add_argument("--longest", action="store_true")

    p = sub.add_parser("enumerate", help="brute-force all morphisms of a degree")
    p.add_argument("fixture")
    p.add_argument("--degree", required=True)
    p.add_argument("--limit", type=_count)

    p = sub.add_parser("verify", help="run the law-verification suites")
    p.add_argument("fixture")
    p.add_argument("--max-len", type=_count, default=4)
    p.add_argument("--laws", default=",".join(SUITES))
    for name, p in sub.choices.items():
        if name in ("model", "lift"):
            # DOT is the other output format: one or the other, not both.
            p = p.add_mutually_exclusive_group()
            p.add_argument("--dot", action="store_true")
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        # Looked up per call, so a rebound command function is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except _FINDING as exc:
        print(f"{type(exc).__name__}: {exc}")
        return 1
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (BsGraphError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
