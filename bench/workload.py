"""Run one workload's commands through ``bsgraph.cli.run`` and measure them.

Started by ``run.py`` in a fresh interpreter per workload, so peak memory
and the library's lazily built state belong to this workload alone.  Load
is a closed loop with one client: each command starts when the previous
one returns.  Commands run in process with stdout and stderr captured and
build their own context, as from a shell.  Each command is timed alone,
with the garbage collector run before it and its output checked after.

Passes over the fixed command list repeat until ``--seconds`` have gone.
A command's latency is its fastest pass: on a shared machine other
processes only ever add time, and the minimum filters that out.  The
first pass checks every output in full; later passes must reproduce the
first pass's exit code and output exactly.  With ``--trace 1`` untraced
and traced passes alternate, so the trace's overhead is the difference
between their wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks

SETUP_PROBES = 8  # set-ups timed during a run, besides the one before it

# The throughput metric counts a different unit of output per workload.
THROUGHPUT = {
    "verify-sweep": "law_instances_per_s",
    "long-paths": "domain_edges_per_s",
    "collections": "squares_checked_per_s",
}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


class Runner:
    def __init__(self, manifest, cli):
        self.cli = cli  # run is looked up per call, so a tracer's patch applies
        self.commands = manifest["commands"]
        self.graphs = manifest["graphs"]
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.units: list[int] = []  # work each command's output counts
        self._first: list = []  # (exit code, output digest) of the first pass

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.cli.run(argv)
            elapsed = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), elapsed

    def _reference(self, cmd):
        """Lift of the concatenated path, for a sampled compose command."""
        want = cmd["check"]
        if not want.get("sample"):
            return None
        _, out, _, _ = self._call(["lift", want["fixture"], "--path", want["path"], "--json"])
        return json.loads(out)

    def _check(self, i, cmd, code, out, err):
        digest = (code, zlib.crc32((out + "\0" + err).encode()))
        if i < len(self._first):
            if digest == self._first[i]:
                return None
            return "output differs from the first pass"
        self._first.append(digest)
        try:
            problem, units = checks.check(cmd, code, out, err, self.graphs,
                                          self._reference(cmd))
        except (ValueError, KeyError, TypeError) as exc:
            problem, units = f"unreadable output: {exc!r}", 0
        self.units.append(units)
        return problem

    def one_pass(self) -> list[float]:
        """Run and check every command once; returns their latencies."""
        latencies = []
        for i, cmd in enumerate(self.commands):
            code, out, err, elapsed = self._call(cmd["argv"])
            latencies.append(elapsed)
            self.attempted += 1
            problem = self._check(i, cmd, code, out, err)
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{' '.join(cmd['argv'])}: {problem}")
        return latencies


def set_up(manifest, repo: Path, out: Path) -> float:
    """Seconds a fresh interpreter takes to import bsgraph and generate and
    write this workload's inputs (``inputs.py``), into a scratch copy."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "inputs.py"),
         "--workload", manifest["workload"], "--seed", str(manifest["seed"]),
         "--out", str(out), "--repo", str(repo)],
        cwd=repo, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def best(passes):
    """Each command's fastest latency over the passes."""
    return [min(column) for column in zip(*passes)]


def unit_of(key):
    if key.endswith((".s", "_s")):
        return "s"
    if ".us_per_edge." in key:
        return "us/edge"
    if key.endswith(("_ratio", "_share")):
        return "ratio"
    if key.endswith("_exponent"):
        return "exponent"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--inputs", required=True)
    p.add_argument("--repo", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="file for the last traced pass's spans")
    p.add_argument("--setup-s", type=float, required=True,
                   help="seconds of the set-up that wrote --inputs")
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(args.repo) / "src"))
    import bsgraph.cli

    manifest = json.loads((Path(args.inputs) / "manifest.json").read_text(encoding="utf-8"))
    workload = manifest["workload"]
    runner = Runner(manifest, bsgraph.cli)
    passes, traced, layers = [], [], []
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    # Objects alive now live for the whole run; freezing them keeps the
    # collection before each command down to that command's garbage.
    gc.collect()
    gc.freeze()
    # More set-ups run between passes, spread over the run, so setup_s is
    # not decided by the machine's speed in one short window.
    setups = [args.setup_s]
    probe_dir = Path(args.inputs).parent / "set-up"
    start = time.perf_counter()
    deadline = start + args.seconds
    due = [start + args.seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]
    while True:
        while tracer is None and due and time.perf_counter() >= due[0]:
            due.pop(0)
            setups.append(set_up(manifest, Path(args.repo), probe_dir))
        passes.append(runner.one_pass())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(runner.one_pass())
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics())
        if time.perf_counter() >= deadline:
            break
    if tracer is None:
        setups += [set_up(manifest, Path(args.repo), probe_dir) for _ in due]
    if tracer is not None and args.spans:
        tracer.dump(args.spans)

    latency = best(passes)
    wall_s = sum(latency)
    work = sum(runner.units)
    print(f"workload {workload} seed {manifest['seed']}: {len(runner.commands)} commands "
          f"x {len(passes)} untraced passes; latency samples are the {len(latency)} "
          f"per-command minima")
    print(f"  median pass wall {statistics.median(sum(x) for x in passes):.6g} s")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"  fail_ratio {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} commands)")
    if tracer is None:
        print(f"  {THROUGHPUT[workload]} {work / wall_s:.6g} 1/s (reported as throughput_per_s)")
        metrics = {
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (1e3 * percentile(latency, 0.5), "ms"),
            "op_p90_ms": (1e3 * percentile(latency, 0.9), "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "throughput_per_s": (work / wall_s, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
        }
        print(f"  set-ups: median of {len(setups)}, spread over the run")
    else:
        # Times take their fastest pass, like the latencies; counts repeat.
        metrics = {}
        for key in layers[0]:
            unit = unit_of(key)
            pick = min if unit in ("s", "us/edge") else statistics.median_low
            metrics[key] = (pick(m[key] for m in layers), unit)
        traced_wall = sum(best(traced))
        print(f"  untraced wall_s {wall_s:.6g} s, traced wall_s {traced_wall:.6g} s "
              f"over {len(traced)} traced passes")
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
    for key, (value, unit) in metrics.items():
        print(f"  {key} {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
