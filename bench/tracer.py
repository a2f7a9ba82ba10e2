"""Span tracer installed from outside the library.

Wraps public functions of the ``bsgraph`` modules and patches each wrapper
in every place the name is looked up (``bsgraph.cli.lift_path`` and
``bsgraph.category.lift_path`` are separate bindings of one function).
Spans are kept in flat arrays (name, start, end, parent) and written out
on request; self time is a span's duration minus that of its children.
Names the library no longer has are skipped, and their metrics read 0.

The word-arithmetic ``raw_*`` loop is too hot to wrap; its cost shows as
self time of ``morphisms.lift``.  Square lookups and word prefixes and
quotients are counted, not timed.
"""

from __future__ import annotations

import math
import sys
from array import array
from time import perf_counter

LIFT_LENGTHS = range(8, 17)

# (label, module, attribute path) of each timed function.
SPANS = (
    ("cli", "bsgraph.cli", "run"),
    ("fixtures.parse", "bsgraph.fixtures", "parse_fixture"),
    ("squares.check_complete", "bsgraph.squares", "check_complete"),
    ("squares.collection_build", "bsgraph.squares", "CompleteCollection.__post_init__"),
    ("models.model", "bsgraph.models", "model"),
    ("morphisms.lift", "bsgraph.morphisms", "lift_path"),
    ("morphisms.enumerate", "bsgraph.morphisms", "enumerate_morphisms"),
    ("morphisms.restrict", "bsgraph.morphisms", "restrict"),
    ("morphisms.restrict", "bsgraph.morphisms", "restrict_shifted"),
    ("morphisms.traversal", "bsgraph.morphisms", "shortest_traversal"),
    ("morphisms.traversal", "bsgraph.morphisms", "longest_traversal"),
    ("morphisms.to_json", "bsgraph.morphisms", "Morphism.to_json"),
    ("category.compose", "bsgraph.category", "compose"),
    ("category.factorize", "bsgraph.category", "factorize"),
    ("category.pool", "bsgraph.category", "pool_morphisms"),
    ("category.verify.category", "bsgraph.category", "verify_category"),
    ("category.verify.functor", "bsgraph.category", "verify_functor"),
    ("category.verify.factorization", "bsgraph.category", "verify_factorization"),
)

# (counter, module, attribute path) of each counted function.
COUNTS = (
    ("squares.lookups", "bsgraph.squares", "CompleteCollection.lookup_red"),
    ("squares.lookups", "bsgraph.squares", "CompleteCollection.lookup_blue"),
    ("morphisms.check_compatible", "bsgraph.morphisms", "check_compatible"),
    ("words.prefixes.calls", "bsgraph.words", "BsMonoid.prefixes"),
    ("words.prefixes.calls", "bsgraph.words", "GridMonoid.prefixes"),
    ("words.quotient.calls", "bsgraph.words", "BsMonoid.quotient"),
    ("words.quotient.calls", "bsgraph.words", "GridMonoid.quotient"),
)

# Work counted from a timed call's result: label -> (counter, function).
RESULT_COUNTS = {
    "fixtures.parse": ("fixtures.lines", lambda args, r: args[0].count("\n")),
    "models.model": ("models.vertices_built", lambda args, r: len(r.vertices)),
}


def _size(measure, args, result) -> int:
    """A work count read off a call, or 0 where the library's shapes changed."""
    try:
        return measure(args, result)
    except (AttributeError, IndexError, TypeError):
        return 0


def _resolve(module, path):
    """(owner, attribute, raw value) of a dotted path, or None."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self._patches: list = []
        self.reset()

    def reset(self):
        """Drop the spans and counts recorded so far."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.lifts: list = []  # (span index, path length, domain edges)
        self.checks: list = []  # (span index, squares checked)
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    # ------------------------------------------------------------ install

    def install(self):
        for label, module, path in SPANS:
            self._wrap(module, path, lambda fn, label=label: self._span(label, fn))
        for counter, module, path in COUNTS:
            self._wrap(module, path, lambda fn, counter=counter: self._count(counter, fn))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, module, path, make):
        found = _resolve(module, path)
        if found is None:
            return
        owner, attr, raw = found
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = make(fn)
        new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        # Module-level function: rebind every "from x import fn" copy too.
        for name, mod in list(sys.modules.items()):
            if not name.startswith("bsgraph") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _span(self, label, fn):
        nid = self._label_id.setdefault(label, len(self._label_id))
        if nid == len(self.labels):
            self.labels.append(label)
        result_count = RESULT_COUNTS.get(label)
        is_lift = label == "morphisms.lift"
        is_pool = label == "category.pool"
        is_check = label == "squares.check_complete"
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            lifts_before = len(tracer.lifts)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if result_count is not None:
                counter, measure = result_count
                tracer.counts[counter] = tracer.counts.get(counter, 0) + _size(measure, args, result)
            if is_lift:
                tracer.lifts.append((
                    idx,
                    _size(lambda a, r: len(a[2].edges), args, result),
                    _size(lambda a, r: len(r.emap), args, result),
                ))
            elif is_check:
                tracer.checks.append((idx, _size(lambda a, r: len(a[2]), args, result)))
            elif is_pool and len(tracer.lifts) > lifts_before:
                # A pool that lifted something was built, not served from memo.
                tracer.counts["category.pool.size"] = (
                    tracer.counts.get("category.pool.size", 0) + len(result)
                )
            return result

        return wrapper

    def _count(self, counter, fn):
        tracer = self  # reset() replaces tracer.counts, so look it up per call
        miss = counter + "_misses"
        accepted = counter + "_accepted"

        def wrapper(*args, **kwargs):
            c = tracer.counts
            c[counter] = c.get(counter, 0) + 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                c[miss] = c.get(miss, 0) + 1
                raise
            if result is True:
                c[accepted] = c.get(accepted, 0) + 1
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def times(self):
        """Self and total seconds per label, and each span's child seconds."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = [0.0] * len(self.labels)
        total_s = [0.0] * len(self.labels)
        for i in range(n):
            d = end[i] - start[i]
            k = self.name[i]
            self_s[k] += d - child[i]
            total_s[k] += d
        return (
            {label: self_s[i] for i, label in enumerate(self.labels)},
            {label: total_s[i] for i, label in enumerate(self.labels)},
            child,
        )

    def metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset()."""
        self_s, total_s, child = self.times()
        c = self.counts

        def s(label):
            return self_s.get(label, 0.0)

        def calls(label):
            nid = self._label_id.get(label)
            return 0 if nid is None else self.name.count(nid)

        compose = self._label_id.get("category.compose", -2)
        lifts_in_compose = 0
        lift_in_compose_s = 0.0
        per_len = {n: [0.0, 0] for n in LIFT_LENGTHS}
        for idx, length, edges in self.lifts:
            own = self.end[idx] - self.start[idx] - child[idx]
            p = self.parent[idx]
            if p >= 0 and self.name[p] == compose:
                lifts_in_compose += 1
                lift_in_compose_s += own
            if length in per_len:
                per_len[length][0] += own
                per_len[length][1] += edges
        wall = total_s.get("cli", 0.0)
        compose_calls = calls("category.compose")
        checked = c.get("morphisms.check_compatible", 0)
        out = {
            "cli.self_s": s("cli"),
            "trace.spans": len(self.start),
            "fixtures.parse.calls": calls("fixtures.parse"),
            "fixtures.parse.s": s("fixtures.parse"),
            "fixtures.lines": c.get("fixtures.lines", 0),
            "squares.check_complete.calls": calls("squares.check_complete"),
            "squares.check_complete.s": s("squares.check_complete"),
            "squares.check_complete.growth_exponent": self._growth(),
            "squares.collection_build.s": s("squares.collection_build"),
            "squares.lookups": c.get("squares.lookups", 0),
            "squares.lookup_misses": c.get("squares.lookups_misses", 0),
            "models.model.calls": calls("models.model"),
            "models.model.s": s("models.model"),
            "models.vertices_built": c.get("models.vertices_built", 0),
            "morphisms.lift.calls": len(self.lifts),
            "morphisms.lift.s": s("morphisms.lift"),
            "morphisms.lift.domain_edges": sum(e for _, _, e in self.lifts),
            "morphisms.lift.compose_share": lift_in_compose_s / wall if wall else 0.0,
        }
        for n, (secs, edges) in per_len.items():
            out[f"morphisms.lift.us_per_edge.len{n}"] = 1e6 * secs / edges if edges else 0.0
        out.update({
            "morphisms.enumerate.calls": calls("morphisms.enumerate"),
            "morphisms.enumerate.s": s("morphisms.enumerate"),
            "morphisms.enumerate.accept_ratio": (
                c.get("morphisms.check_compatible_accepted", 0) / checked if checked else 0.0
            ),
            "morphisms.restrict.s": s("morphisms.restrict"),
            "morphisms.traversal.s": s("morphisms.traversal"),
            "morphisms.to_json.s": s("morphisms.to_json"),
            "category.compose.calls": compose_calls,
            "category.compose.s": s("category.compose"),
            "category.compose.memo_hit_ratio": (
                1 - lifts_in_compose / compose_calls if compose_calls else 0.0
            ),
            "category.factorize.s": s("category.factorize"),
            "category.pool.s": s("category.pool"),
            "category.pool.size": c.get("category.pool.size", 0),
        })
        for suite in ("category", "functor", "factorization"):
            out[f"category.verify.{suite}.s"] = s(f"category.verify.{suite}")
            out[f"category.verify.{suite}.total_s"] = total_s.get(f"category.verify.{suite}", 0.0)
        out["words.prefixes.calls"] = c.get("words.prefixes.calls", 0)
        out["words.quotient.calls"] = c.get("words.quotient.calls", 0)
        return out

    def _growth(self) -> float:
        """Least-squares slope of log(check_complete time) on log(squares):
        1 is linear growth in the collection size, 2 quadratic."""
        points = [
            (math.log(n), math.log(self.end[i] - self.start[i]))
            for i, n in self.checks if n > 0
        ]
        if len({x for x, _ in points}) < 2:
            return 0.0
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        return (
            sum((x - mx) * (y - my) for x, y in points)
            / sum((x - mx) ** 2 for x, _ in points)
        )

    def dump(self, path):
        """Write the recorded spans as tab-separated rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.labels[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )
