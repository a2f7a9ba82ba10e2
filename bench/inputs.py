"""Seeded input generator: fixtures, command lists and expected outcomes.

The program under test sees only the fixture files written here and the
argv of each command.  Every command carries the exit code it must return
and what its output must say, so ``checks.py`` can judge it without
trusting the library.

The amount of work is the same for every seed.  The shapes that set it
(vertex counts, red-edge groups and their multiplicities, ``--max-len``,
path degrees, oracle degrees) come from a ladder drawn once from a fixed
generator.  The seed draws the contents: the square pairing of every
group, the declaration order, the path of each slot's degree, the split
points, and which squares the mutations hit.  A run-to-run change in time
then reads as a change in the program, not in the inputs.

Workloads, why each was chosen, and which layers it should load:

``verify-sweep``
    ``verify --json`` with all three suites on the shipped fixtures and on
    generated complete collections (1-3 vertices, a blue loop at each
    vertex, 1-3 parallel red edges per (range, source) group, a random
    permutation as the squares) at ``--max-len`` 1-3, in both modes, plus
    the incomplete shipped fixture, which must exit 1 with ``NotCovered``.
    This is the product's main job.  Its time is thousands of small lifts
    inside ``category.compose``, many answered by the compose memo.  It
    barely loads fixture parsing, ``check_complete`` or JSON rendering of
    large morphisms.

``long-paths``
    ``lift --json``, ``compose --json``, ``factorize --json`` and
    ``traversals`` on seeded composable paths: length 8-16 in BS mode on
    ``example_E.cg`` and 40-200 in grid mode.  The domain grows like
    2^length in BS mode and quadratically in grid mode, and each command
    builds a fresh context, so no memo hits.  Time goes to large lifts,
    ``model``/``restrict`` and dense JSON rendering: the opposite use of
    the lift layer from ``verify-sweep``.  Paths above ``EDGE_CAP`` domain
    edges are redrawn to bound the run time; ``lift_path`` itself still has
    no size guard.

``collections``
    ``check --json`` on wide complete collections (tens of vertices, 10-20
    parallel red edges per group, hundreds of squares) and on mutated
    copies: a dropped square (exit 1, its two boundaries uncovered), two
    swapped blue boundaries and a recoloured edge (both exit 2 from the
    fixture parser), plus ``lift --oracle --json`` on short paths over
    graphs of moderate multiplicity.  This is the writer side of the
    squares layer (parse, validate, index, check coverage) and the
    exponential enumeration oracle; the other workloads only read squares
    through the boundary lookups.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import degrees

# Largest domain (model-graph edge count) a long-paths command may lift.
EDGE_CAP = 4000
BAND = 0.1  # a size within 10% of a slot's target counts as on target
VERIFY_COMMANDS = 100
ASSOC_CAP = 250  # associativity instances of one generated verify command
CHECK_COLLECTIONS = 5
ORACLE_COMMANDS = 84
ORACLE_CAP = 400  # assignments one oracle command may try


@dataclass
class Collection:
    """A coloured graph plus its squares, in fixture form."""

    mode: str
    vertices: list
    edges: list  # (name, colour 'a'|'b', range, source)
    squares: list = field(default_factory=list)  # (name, red boundary, blue boundary)

    def by_name(self) -> dict:
        return {e[0]: e for e in self.edges}

    def text(self) -> str:
        red_slots, blue_slots = (
            (("eA", "aB", "abB"), ("eB", "bA"))
            if self.mode == "bs"
            else (("v1", "e1v2"), ("v2", "e2v1"))
        )
        colour = {"a": "a", "b": "b"} if self.mode == "bs" else {"a": "1", "b": "2"}
        lines = [f"mode {self.mode}"]
        lines += [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {n} {colour[c]} {r} {s}" for n, c, r, s in self.edges]
        for name, red, blue in self.squares:
            slots = [f"{k}={e}" for k, e in zip(red_slots, red)]
            slots += [f"{k}={e}" for k, e in zip(blue_slots, blue)]
            lines.append(f"square {name} " + " ".join(slots))
        return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Collection:
    """The mode, vertices and edges of a shipped fixture (no squares)."""
    mode, vertices, edges = "bs", [], []
    colour = {"a": "a", "1": "a", "b": "b", "2": "b"}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens[:1] == ["mode"]:
            mode = tokens[1]
        elif tokens[:1] == ["vertex"]:
            vertices.append(tokens[1])
        elif tokens[:1] == ["edge"]:
            edges.append((tokens[1], colour[tokens[2]], tokens[3], tokens[4]))
    return Collection(mode, vertices, edges)


def complete_collection(rng, mode, n_vertices, groups) -> Collection:
    """Blue loop at each vertex, ``groups[(x, y)]`` red edges x <- y, and a
    random bijection per group between red-first and blue-first boundaries.

    With one blue edge per vertex, the red-first paths of group (x, y) are
    ``e loop_y [loop_y]`` and its blue-first paths ``loop_x e'``: equal in
    number, so any permutation is a complete collection.
    """
    vertices = [f"v{i}" for i in range(n_vertices)]
    loops = {v: f"b{i}" for i, v in enumerate(vertices)}
    edges = [(loops[v], "b", v, v) for v in vertices]
    squares = []
    for (x, y), count in sorted(groups.items()):
        reds = [f"r{x}_{y}_{k}" for k in range(count)]
        edges += [(e, "a", vertices[x], vertices[y]) for e in reds]
        partner = reds[:]
        rng.shuffle(partner)
        tail = (loops[vertices[y]],) * (2 if mode == "bs" else 1)
        for e, f in zip(reds, partner):
            squares.append((f"s_{e}", (e,) + tail, (loops[vertices[x]], f)))
    rng.shuffle(edges)
    rng.shuffle(squares)
    return Collection(mode, vertices, edges, squares)


def random_groups(rng, n_vertices, density, lo, hi, cover_ranges=False) -> dict:
    """Red-edge groups: each (range, source) pair is present with the given
    density and holds lo..hi parallel edges; cover_ranges gives every
    vertex at least one red edge into it."""
    groups = {}
    for x in range(n_vertices):
        for y in range(n_vertices):
            if rng.random() < density:
                groups[(x, y)] = rng.randint(lo, hi)
        if cover_ranges and not any(k[0] == x for k in groups):
            groups[(x, rng.randrange(n_vertices))] = rng.randint(lo, hi)
    if not groups:
        groups[(rng.randrange(n_vertices), rng.randrange(n_vertices))] = rng.randint(lo, hi)
    return groups


# ---------------------------------------------------------------- paths


def out_edges(coll: Collection) -> dict:
    """(vertex, colour) -> edges whose range is that vertex."""
    table: dict = {}
    for e in coll.edges:
        table.setdefault((e[2], e[1]), []).append(e)
    return table


def walk(rng, table, letters: str, start: str) -> list:
    """A random composable path from start with the given colour word.

    Only graphs where every vertex is the range of a blue loop and of a red
    edge are walked, and there any colour word can be walked.
    """
    at, names = start, []
    for letter in letters:
        e = rng.choice(table[(at, letter)])
        names.append(e[0])
        at = e[3]
    return names


def path_facts(coll, names) -> dict:
    edges = coll.by_name()
    colours = "".join(edges[n][1] for n in names)
    return {
        "path": " ".join(names),
        "colours": colours,
        "range": edges[names[0]][2],
        "source": edges[names[-1]][3],
    }


# ------------------------------------------------------- verify recount


def pool(coll: Collection, max_len: int) -> list:
    """(range, source, degree) of each morphism in the verify pool.

    A morphism is determined by its shortest traversal, so the pool of all
    paths of length <= max_len is in bijection with those paths whose
    colour word is already in normal form.
    """
    table = out_edges(coll)
    out = [(v, v, (0, 0)) for v in coll.vertices]
    frontier = [(v, v, "") for v in coll.vertices]
    for _ in range(max_len):
        nxt = []
        for r, at, word in frontier:
            for letter in "ab":
                for e in table.get((at, letter), ()):
                    nxt.append((r if word else e[2], e[3], word + letter))
        frontier = nxt
        out += [
            (r, s, degrees.fold(coll.mode, w))
            for r, s, w in nxt
            if degrees.is_normal(coll.mode, w)
        ]
    return out


def law_counts(coll: Collection, max_len: int) -> list:
    """Instance count of every law ``verify`` reports, in its order."""
    morphisms = pool(coll, max_len)
    by_range: dict = {}
    by_source: dict = {}
    for r, s, _ in morphisms:
        by_range[r] = by_range.get(r, 0) + 1
        by_source[s] = by_source.get(s, 0) + 1
    pairs = sum(by_range.get(s, 0) for _, s, _ in morphisms)
    triples = sum(by_source.get(r, 0) * by_range.get(s, 0) for r, s, _ in morphisms)
    splits = sum(degrees.prefix_count(coll.mode, d) for _, _, d in morphisms)
    return [
        ["range/source of composites", pairs],
        ["associativity", triples],
        ["identity laws", len(morphisms)],
        ["degree multiplicative on composites", pairs],
        ["identities map to e", len(coll.vertices)],
        ["factorize/compose round-trip", splits],
        ["factor pair uniqueness", splits],
    ]


# ------------------------------------------------------------ workloads


class Inputs:
    """Fixture files and commands of one workload, written to ``root``."""

    def __init__(self, root: Path, repo: Path):
        self.root = root
        self.repo = repo
        self.commands: list = []
        self.graphs: dict = {}
        self._count = 0

    def _register(self, path: Path, coll: Collection) -> str:
        rel = os.path.relpath(path, self.repo)
        self.graphs[rel] = {"mode": coll.mode, "edges": {e[0]: e[1:] for e in coll.edges}}
        return rel

    def fixture(self, coll: Collection) -> str:
        self._count += 1
        path = self.root / f"c{self._count:03d}.cg"
        path.write_text(coll.text(), encoding="utf-8")
        return self._register(path, coll)

    def shipped(self, name: str) -> tuple[str, Collection]:
        """A verbatim copy of one of the repository's fixtures."""
        path = self.root / name
        shutil.copyfile(self.repo / "fixtures" / name, path)
        coll = parse_graph(path.read_text(encoding="utf-8"))
        return self._register(path, coll), coll

    def add(self, argv, code, check):
        self.commands.append({"argv": argv, "code": code, "check": check})

    def write(self, workload: str, seed: int):
        manifest = {
            "workload": workload,
            "seed": seed,
            "graphs": self.graphs,
            "commands": self.commands,
        }
        (self.root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def ladder(lo: float, hi: float, n: int) -> list:
    """n geometric steps from lo to hi."""
    return [lo * (hi / lo) ** (i / max(n - 1, 1)) for i in range(n)]


def closest(rng, items, size, target):
    """A random item whose size is within BAND of target, else the closest."""
    near = [x for x in items if abs(size(x) - target) <= BAND * target]
    return rng.choice(near) if near else min(items, key=lambda x: abs(size(x) - target))


def verify_sweep(rng, out: Inputs):
    for name, lens in (("example_E.cg", (1, 2)), ("grid_single_vertex.cg", (1, 2, 3))):
        rel, coll = out.shipped(name)
        for n in lens:
            argv = ["verify", rel, "--max-len", str(n), "--json"]
            out.add(argv, 0, {"kind": "verify", "laws": law_counts(coll, n)})
    rel, _ = out.shipped("example_E_missing_phi2.cg")
    out.add(["verify", rel, "--max-len", "2", "--json"], 1,
            {"kind": "finding", "error": "NotCovered"})
    shapes = random.Random("verify-sweep shapes")
    while len(out.commands) < VERIFY_COMMANDS:
        mode = ("bs", "grid")[len(out.commands) % 2]
        n = shapes.randint(1, 3)
        groups = random_groups(shapes, n, 0.5, 1, 3)
        max_len = shapes.choice((1, 2, 2, 3))
        # Instance counts depend on the graph only, not on the pairing.
        laws = law_counts(complete_collection(shapes, mode, n, groups), max_len)
        if laws[1][1] > ASSOC_CAP:
            continue
        coll = complete_collection(rng, mode, n, groups)
        argv = ["verify", out.fixture(coll), "--max-len", str(max_len), "--json"]
        out.add(argv, 0, {"kind": "verify", "laws": laws})


def draw_word(shapes, mode, lengths, target):
    """A colour word of a length in range whose domain is near target edges."""
    best = None
    for _ in range(2000):
        n = shapes.randint(*lengths)
        reds = shapes.randint(0, n)
        letters = "a" * reds + "b" * (n - reds)
        if mode == "bs":
            letters = "".join(shapes.sample(letters, n))
        size = degrees.edge_count(mode, degrees.fold(mode, letters))
        if size <= EDGE_CAP and (best is None or abs(size - target) < abs(best[1] - target)):
            best = (letters, size)
        if abs(size - target) <= BAND * target:
            break
    return best[0]


def reword(rng, mode, letters, lengths):
    """Another colour word of the same degree.

    BS mode rewrites ``ba`` <-> ``abb`` at random places (ab^2 = ba); grid
    mode shuffles the letters.
    """
    if mode == "grid":
        return "".join(rng.sample(letters, len(letters)))
    word = letters
    for _ in range(4 * len(word)):
        i = rng.randrange(len(word))
        if word.startswith("ba", i) and len(word) < lengths[1]:
            word = word[:i] + "abb" + word[i + 2:]
        elif word.startswith("abb", i) and len(word) > lengths[0]:
            word = word[:i] + "ba" + word[i + 3:]
    return word


def long_paths(rng, out: Inputs):
    shapes = random.Random("long-paths shapes")
    bs_rel, bs_coll = out.shipped("example_E.cg")
    grid_fixtures = [out.shipped("grid_single_vertex.cg")]
    for _ in range(3):
        n = shapes.randint(2, 3)
        groups = random_groups(shapes, n, 0.4, 1, 3, cover_ranges=True)
        coll = complete_collection(rng, "grid", n, groups)
        grid_fixtures.append((out.fixture(coll), coll))
    kinds = ("lift", "compose", "factorize", "traversals")
    for i, target in enumerate(ladder(60, EDGE_CAP * 0.4, 120)):
        if i % 2 == 0:
            rel, coll, lengths = bs_rel, bs_coll, (8, 16)
        else:
            rel, coll = grid_fixtures[(i // 2) % len(grid_fixtures)]
            lengths = (40, 200)
        mode = coll.mode
        # The slot's degree is fixed; the seed draws the path that has it.
        letters = reword(rng, mode, draw_word(shapes, mode, lengths, target), lengths)
        names = walk(rng, out_edges(coll), letters, rng.choice(coll.vertices))
        facts = dict(path_facts(coll, names), mode=mode)
        pair = degrees.fold(mode, letters)
        size = degrees.edge_count(mode, pair)
        kind = kinds[(i // 2) % len(kinds)]
        if kind == "lift":
            out.add(["lift", rel, "--path", facts["path"], "--json"], 0,
                    dict(facts, kind="lift"))
        elif kind == "compose":
            # Splits whose two lifts together cover about half the domain.
            def lifted(cut):
                return sum(degrees.edge_count(mode, degrees.fold(mode, part))
                           for part in (letters[:cut], letters[cut:]))
            cut = closest(rng, range(1, len(names)), lifted, size / 2)
            argv = ["compose", rel, "--lhs", " ".join(names[:cut]),
                    "--rhs", " ".join(names[cut:]), "--json"]
            # Half of the composes are also compared with a lift of the whole path.
            out.add(argv, 0, dict(facts, kind="compose", fixture=rel,
                                  sample=(i // 8) % 2 == 0))
        elif kind == "factorize":
            # Split degrees whose two factors together render about half the domain.
            def rendered(w1):
                w2 = degrees.quotient(mode, w1, pair)
                return degrees.edge_count(mode, w1) + degrees.edge_count(mode, w2)
            w1 = closest(rng, degrees.prefixes(mode, pair), rendered, size / 2)
            argv = ["factorize", rel, "--path", facts["path"],
                    "--at", degrees.prefix_text(mode, w1), "--json"]
            out.add(argv, 0, dict(facts, kind="factorize", w1=list(w1)))
        else:
            out.add(["traversals", rel, "--path", facts["path"]], 0,
                    dict(facts, kind="traversals", fixture=rel))


def check_expectation(coll: Collection, dropped=None) -> dict:
    """What ``check --json`` must report for a collection of one blue loop
    per vertex: red-first and blue-first paths both number the red edges."""
    reds = sum(1 for e in coll.edges if e[1] == "a")
    return {
        "kind": "check",
        "status": "complete" if dropped is None else "incomplete",
        "squares": len(coll.squares),
        "red_first_paths": reds,
        "blue_first_paths": reds,
        "uncovered_red_first": [] if dropped is None else [" ".join(dropped[1])],
        "uncovered_blue_first": [] if dropped is None else [" ".join(dropped[2])],
    }


def _to_end(squares, picked):
    """The squares with the picked indices moved last, so the parser meets
    a mutation after the same number of lines whatever the seed."""
    return [s for k, s in enumerate(squares) if k not in picked] + [squares[k] for k in picked]


def mutants(rng, coll: Collection):
    """(collection, exit code, check) for each mutation of a complete one."""
    squares = coll.squares
    drop = rng.randrange(len(squares))
    dropped = Collection(coll.mode, coll.vertices, coll.edges,
                         squares[:drop] + squares[drop + 1:])
    yield dropped, 1, check_expectation(dropped, squares[drop])

    # Swap the blue boundaries of two squares from different groups, so the
    # result cannot be another valid pairing.
    edges = coll.by_name()
    group = [edges[red[0]][2:] for _, red, _ in squares]
    i = rng.randrange(len(squares))
    j = rng.choice([k for k in range(len(squares)) if group[k] != group[i]])
    swapped = list(squares)
    (ni, ri, bi), (nj, rj, bj) = squares[i], squares[j]
    swapped[i], swapped[j] = (ni, ri, bj), (nj, rj, bi)
    yield (Collection(coll.mode, coll.vertices, coll.edges, _to_end(swapped, [i, j])), 2,
           {"kind": "error", "fragment": "forced to both"})

    # Recolour the red edge of one square; it is also the blue-first
    # boundary's red edge of its partner square.
    k = rng.randrange(len(squares))
    victim = squares[k][1][0]
    users = [m for m, (_, _, blue) in enumerate(squares) if m == k or blue[1] == victim]
    recoloured = [(n, "b" if n == victim else c, r, s) for n, c, r, s in coll.edges]
    yield (Collection(coll.mode, coll.vertices, recoloured, _to_end(squares, users)), 2,
           {"kind": "error", "fragment": "needs colour"})


def oracle_leaves(coll: Collection, letters: str) -> int:
    """Bound on the total assignments the enumeration oracle tries: every
    red domain edge may take any red edge into its range vertex."""
    reds = degrees.red_edge_count(coll.mode, degrees.fold(coll.mode, letters))
    fan_in = max(len(v) for (_, c), v in out_edges(coll).items() if c == "a")
    return len(coll.vertices) * fan_in ** reds


def collections(rng, out: Inputs):
    shapes = random.Random("collections shapes")
    # Square counts grow geometrically so the trace shows how check_complete
    # scales with the collection size.
    for i, target in enumerate(ladder(40, 120, CHECK_COLLECTIONS)):
        n = shapes.randint(12, 40)
        cells = [(x, y) for x in range(n) for y in range(n)]
        groups, total = {}, 0
        while total < target:
            cell = shapes.choice(cells)
            if cell not in groups:
                groups[cell] = shapes.randint(10, 20)
                total += groups[cell]
        coll = complete_collection(rng, ("bs", "grid")[i % 2], n, groups)
        out.add(["check", out.fixture(coll), "--json"], 0, check_expectation(coll))
        for mutant, code, check in mutants(rng, coll):
            out.add(["check", out.fixture(mutant), "--json"], code, check)
    fixtures = []
    for i in range(6):
        n = shapes.randint(2, 4)
        groups = random_groups(shapes, n, 0.5, 2, 3, cover_ranges=True)
        fixtures.append(complete_collection(rng, ("bs", "grid")[i % 2], n, groups))
    fixtures = [(out.fixture(coll), coll) for coll in fixtures]
    for i in range(ORACLE_COMMANDS):
        rel, coll = fixtures[i % len(fixtures)]
        # Enumeration cost depends on the degree and the graph only; the
        # seed draws the path of that degree.
        while True:
            letters = "".join(shapes.choice("ab") for _ in range(shapes.randint(1, 3)))
            if oracle_leaves(coll, letters) <= ORACLE_CAP:
                break
        names = walk(rng, out_edges(coll), letters, rng.choice(coll.vertices))
        facts = dict(path_facts(coll, names), mode=coll.mode)
        out.add(["lift", rel, "--path", facts["path"], "--oracle", "--json"], 0,
                dict(facts, kind="lift"))


GENERATORS = {
    "verify-sweep": verify_sweep,
    "long-paths": long_paths,
    "collections": collections,
}


def generate(workload: str, seed: int, root: Path, repo: Path):
    """Write the fixtures and manifest of one workload into the empty
    directory ``root``."""
    root.mkdir(parents=True)
    out = Inputs(root, repo)
    GENERATORS[workload](random.Random(f"{workload}:{seed}"), out)
    out.write(workload, seed)


def main(argv=None) -> int:
    """Set-up probe: import bsgraph, generate and write the inputs, and
    print the seconds that took.  Run in a fresh interpreter each time."""
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=GENERATORS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--repo", required=True)
    args = p.parse_args(argv)
    shutil.rmtree(args.out, ignore_errors=True)  # an earlier probe's copy
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(args.repo) / "src"))
    import bsgraph.cli  # noqa: F401 - the import is part of set-up

    generate(args.workload, args.seed, Path(args.out), Path(args.repo))
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
