"""Measure the benchmark at a base revision and in the working tree, in
alternating pairs, and write the result as a ``BENCH_*.json`` point.

    python3 tools/bench_pairs.py BASE_REF [--pairs N] --out BENCH_k.json [--label TEXT]

For each workload of ``BENCHMARK.json`` it makes N pairs (default 10) of
``benchmark/run.py --workload W --seed 0 --seconds 25 --trace 0`` runs: one
in a copy of BASE_REF (``git archive`` into a temporary directory, removed
afterwards) and one in the working tree, the base first in even pairs and
the tree first in odd ones.  Each end-to-end metric is reported as the
median and the inclusive quartiles of its N runs, with the runs sorted:
``metrics`` for the working tree, ``parent_metrics`` for BASE_REF, and the
distinct failure counts of each side.  Times are those ``run.py`` prints,
scaled to its reference speed (see ``benchmark/NOTES.md``).  Progress goes
to standard error, one line per run.  Exits 0 once the point is written,
and 2, with one ``error:`` line on standard error, when BASE_REF cannot be
resolved or archived or a run fails.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy
from same_bits import failed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
SEED, SECONDS = 0, 25


def run(tree, workload):
    """The last line of one run's standard output: its result object."""
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "benchmark", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(results):
    """Median, inclusive quartiles, sorted runs and unit of each metric."""
    out = {}
    for spec in SPEC["end_to_end"]:
        runs = sorted(r["metrics"][spec["name"]]["value"] for r in results)
        q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                          if len(runs) > 1 else runs * 3)
        out[spec["name"]] = {"median": median, "q1": q1, "q3": q3, "runs": runs,
                             "unit": spec["unit"]}
    return out


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True)
    ap.add_argument("--label", default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    try:
        return measure(args)
    except subprocess.CalledProcessError as e:
        return failed(e)


def measure(args):
    base_commit = git("rev-parse", "--short", args.base).decode().strip()
    point = {
        "label": args.label or f"the working tree against {base_commit}",
        "method": (f"python3 benchmark/run.py --workload W --seed {SEED} --seconds {SECONDS} "
                   f"--trace 0, run in a git archive of {base_commit} and in the working "
                   f"tree; {args.pairs} pairs per workload alternating which tree runs "
                   "first; median and quartiles (inclusive) over the runs; times are scaled "
                   "to the benchmark reference speed (benchmark/NOTES.md); metrics are the "
                   "working tree's, parent_metrics the base's (tools/bench_pairs.py)"),
        "environment": {"commit": f"{base_commit} + the working tree",
                        "python": platform.python_version(), "numpy": numpy.__version__,
                        "nproc": os.cpu_count(), "machine": platform.machine()},
        "workloads": {},
    }
    archive = git("archive", args.base)
    with tempfile.TemporaryDirectory() as base:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(base, filter="data")
        for workload in (w["name"] for w in SPEC["workloads"]):
            sides = {base: [], ROOT: []}
            for k in range(args.pairs):
                for tree in ((base, ROOT) if k % 2 == 0 else (ROOT, base)):
                    sides[tree].append(run(tree, workload))
                    p90 = sides[tree][-1]["metrics"]["op_p90_ms"]["value"]
                    sys.stderr.write(f"{workload} pair {k + 1}/{args.pairs} "
                                     f"{'base' if tree == base else 'tree'}: "
                                     f"op_p90_ms {p90:.4g}\n")
            new, old = sides[ROOT], sides[base]
            point["workloads"][workload] = {
                "seed": SEED, "pairs": args.pairs, "attempted": new[0]["attempted"],
                "failed": sorted({r["failed"] for r in new}), "metrics": summary(new),
                "parent_failed": sorted({r["failed"] for r in old}),
                "parent_metrics": summary(old)}
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
