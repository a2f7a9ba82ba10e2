"""Output checker: judges one command's exit code and output.

Every check uses the generator's expectations and ``degrees.py`` only, so
a wrong answer from the library cannot vouch for itself.  ``check``
returns ``(problem, work)``: ``problem`` is ``None`` for a correct output,
and ``work`` is the unit of useful output the workload's throughput counts
(law instances, domain edges or squares checked).
"""

from __future__ import annotations

import json

import degrees


def _morphism(payload, mode, pair, range_, source, letters=None):
    """Problems with a morphism JSON of the expected degree and endpoints,
    and, given a colour word's edge names, whether the path reads back."""
    if payload.get("mode") != mode:
        return f"mode {payload.get('mode')} != {mode}"
    if tuple(payload["degree"]["pair"]) != tuple(pair):
        return f"degree {payload['degree']['pair']} != {list(pair)}"
    vertices = {tuple(v["pair"]): v["vertex"] for v in payload["vertices"]}
    if len(vertices) != degrees.prefix_count(mode, pair):
        return f"{len(vertices)} vertices, expected {degrees.prefix_count(mode, pair)}"
    if len(payload["edges"]) != degrees.edge_count(mode, pair):
        return f"{len(payload['edges'])} edges, expected {degrees.edge_count(mode, pair)}"
    if vertices.get((0, 0)) != range_ or vertices.get(tuple(pair)) != source:
        return "range or source differs from the path's"
    if letters is not None:
        # The same reading as bsgraph.morphisms.check_traverses, on the JSON.
        pair_of = {v["prefix"]: tuple(v["pair"]) for v in payload["vertices"]}
        emap = {(pair_of[e["prefix"]], e["letter"]): e["edge"] for e in payload["edges"]}
        at = (0, 0)
        for name, letter in letters:
            if emap.get((at, letter)) != name:
                return f"path does not read back at edge {name}"
            at = degrees.step(mode, at, letter)
    return None


def _path_names(facts):
    return list(zip(facts["path"].split(), facts["colours"]))


def _traversal(graph, text, facts, pair):
    """Problems with one traversal line; returns (problem, colour word)."""
    names = text.split()
    edges = graph["edges"]
    try:
        colours = "".join(edges[n][0] for n in names)
    except KeyError as exc:
        return f"unknown edge {exc}", ""
    for a, b in zip(names, names[1:]):
        if edges[a][2] != edges[b][1]:
            return f"{a} {b} is not composable", colours
    if names and (edges[names[0]][1] != facts["range"] or edges[names[-1]][2] != facts["source"]):
        return "traversal endpoints differ from the path's", colours
    if degrees.fold(graph["mode"], colours) != tuple(pair):
        return "traversal degree differs from the path's", colours
    return None, colours


def check(cmd, code, out, err, graphs, reference=None):
    want = cmd["check"]
    if code != cmd["code"]:
        return f"exit {code}, expected {cmd['code']}: {(out + err)[:200]!r}", 0
    kind = want["kind"]
    if kind == "finding":
        ok = out.startswith(want["error"] + ":")
        return (None if ok else f"expected {want['error']}: {out[:200]!r}"), 0
    if kind == "error":
        ok = not out and err.startswith("error: ") and want["fragment"] in err
        return (None if ok else f"expected an error with {want['fragment']!r}: {err[:200]!r}"), 0
    if kind == "traversals":
        return _check_traversals(want, out, graphs[want["fixture"]])
    payload = json.loads(out)
    if kind == "verify":
        got = [[law["law"], law["instances"]] for law in payload["laws"]]
        if not payload["passed"] or not all(law["passed"] for law in payload["laws"]):
            return "a law failed", 0
        if got != want["laws"]:
            return f"law instances {got} != recount {want['laws']}", 0
        return None, sum(n for _, n in got)
    if kind == "check":
        for key, value in want.items():
            if key != "kind" and payload.get(key) != value:
                return f"check {key}: {payload.get(key)!r} != {value!r}", 0
        if payload["duplicated_boundaries"] or payload["malformed_squares"]:
            return "unexpected duplicated or malformed squares", 0
        return None, payload["squares"]
    mode = want["mode"]
    pair = degrees.fold(mode, want["colours"])
    if kind == "lift":
        problem = _morphism(payload, mode, pair, want["range"], want["source"],
                            _path_names(want))
        return problem, len(payload["edges"])
    if kind == "compose":
        problem = _morphism(payload, mode, pair, want["range"], want["source"],
                            _path_names(want))
        if problem is None and reference is not None and payload != reference:
            problem = "compose differs from the lift of the concatenated path"
        return problem, len(payload["edges"])
    if kind == "factorize":
        w1 = tuple(want["w1"])
        w2 = degrees.quotient(mode, w1, pair)
        left, right = payload["left"], payload["right"]
        middle = {tuple(v["pair"]): v["vertex"] for v in left["vertices"]}.get(w1)
        problem = (
            _morphism(left, mode, w1, want["range"], middle)
            or _morphism(right, mode, w2, middle, want["source"])
        )
        return problem, len(left["edges"]) + len(right["edges"])
    raise ValueError(f"unknown check kind {kind!r}")


def _check_traversals(want, out, graph):
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    if set(lines) != {"shortest", "longest"}:
        return f"traversal lines {sorted(lines)}", 0
    mode = graph["mode"]
    pair = degrees.fold(mode, want["colours"])
    problem, shortest = _traversal(graph, lines["shortest"], want, pair)
    if problem is None and not degrees.is_normal(mode, shortest):
        problem = f"shortest traversal {shortest} is not in normal form"
    if problem is None:
        problem, longest = _traversal(graph, lines["longest"], want, pair)
        if problem is None and longest != degrees.longest_word(mode, pair):
            problem = f"longest traversal reads {longest}"
    return problem, degrees.edge_count(mode, pair)
