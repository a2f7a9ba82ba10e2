"""bsgraph benchmark: one command, one workload, one seed.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's inputs are
generated from the seed (``inputs.py``), then the workload runs in a fresh
interpreter (``workload.py``).  Every metric is printed as
``name value unit``, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.

``setup_s`` is the median over nine fresh interpreters of the time to
import ``bsgraph`` and to generate and write the workload's inputs: one
before the run, whose output the run uses, and eight spread across it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

from inputs import GENERATORS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
TIMEOUT_S = 150


def _python(script, *args, timeout):
    return subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        cwd=REPO, capture_output=True, text=True, timeout=timeout, check=False,
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=GENERATORS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (REPO / "src" / "bsgraph" / "cli.py").is_file() or not (REPO / "fixtures").is_dir():
        print(f"error: {REPO} is not a bsgraph checkout (no src/bsgraph or fixtures)",
              file=sys.stderr)
        return 2

    work = REPO / ".bench_work"
    run_dir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs_dir = run_dir / "inputs"
    try:
        done = _python("inputs.py", "--workload", args.workload, "--seed", args.seed,
                       "--out", inputs_dir, "--repo", REPO, timeout=60)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print("error: input generation failed", file=sys.stderr)
            return 1
        spans = work / f"spans-{args.workload}-{args.seed}.tsv"
        done = _python("workload.py", "--inputs", inputs_dir, "--repo", REPO,
                       "--seconds", args.seconds, "--trace", args.trace, "--spans", spans,
                       "--setup-s", done.stdout.split()[-1], timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        print("error: workload run failed", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
