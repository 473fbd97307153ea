"""Check that the working tree computes every benchmark operation as a base
revision does, bit for bit.

    python3 tools/same_bits.py BASE_REF

For each benchmark workload and seeds 301-303 it runs
``benchmark/worker.py run --workload W --seed S --t0 0`` once in a copy of
BASE_REF (``git archive`` into a temporary directory, removed afterwards)
and once in the working tree, then compares the per-operation output
``digests`` and the ``failures_by_stratum`` tallies.  The strata of moved
operations are named by their labels from ``benchmark/workloads.py``.
Beside each verdict it prints the ``wall_s`` of the two runs: single,
unscaled runs, a hint of speed and not a measurement.  Exits 1 on any
difference, 0 when every run matches, and 2, with one ``error:`` line on
standard error, when BASE_REF cannot be archived or a worker run fails.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from itertools import chain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pl_sweep", "weight_sweep", "blowup_ladder")
SEEDS = (301, 302, 303)


def worker(tree, workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "benchmark", "worker.py"), "run",
         "--workload", workload, "--seed", str(seed), "--t0", "0"],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def labels(workload, seed, count):
    """The stratum label of each of the first ``count`` operations."""
    if os.path.join(ROOT, "benchmark") not in sys.path:
        sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]
    import workloads
    ops = chain.from_iterable(workloads.cycles(workload, seed))
    return [next(ops).label for _ in range(count)]


def failed(e):
    """The ``error:`` line of a command that failed, and exit status 2."""
    err = e.stderr if isinstance(e.stderr, str) else (e.stderr or b"").decode(errors="replace")
    print(f"error: {' '.join(map(str, e.cmd))} exited {e.returncode}: "
          f"{(err.strip().splitlines() or [''])[-1]}", file=sys.stderr)
    return 2


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    try:
        return compare(argv[0])
    except subprocess.CalledProcessError as e:
        return failed(e)


def compare(base_ref):
    archive = subprocess.run(["git", "archive", base_ref], cwd=ROOT,
                             capture_output=True, check=True).stdout
    moved = False
    with tempfile.TemporaryDirectory() as base:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(base, filter="data")
        for workload in WORKLOADS:
            for seed in SEEDS:
                old, new = worker(base, workload, seed), worker(ROOT, workload, seed)
                pairs = zip(old["digests"], new["digests"])
                diff = [i for i, (a, b) in enumerate(pairs) if a != b]
                same = (not diff and len(old["digests"]) == len(new["digests"])
                        and old["failures_by_stratum"] == new["failures_by_stratum"])
                print(f"{workload} seed {seed}: {len(new['digests'])} operations, "
                      + ("identical digests and failure tallies" if same else
                         f"{len(diff)} digests moved")
                      + f" (single runs, wall_s: base {old['wall_s']:.2f},"
                        f" tree {new['wall_s']:.2f})")
                if diff:
                    names = labels(workload, seed, diff[-1] + 1)
                    for label, k in sorted(Counter(names[i] for i in diff).items()):
                        print(f"  moved: {label} ({k})")
                for key in sorted(set(old["failures_by_stratum"])
                                  | set(new["failures_by_stratum"])):
                    a, b = (d["failures_by_stratum"].get(key, 0) for d in (old, new))
                    if a != b:
                        print(f"  failures: {key}: {a} -> {b}")
                moved = moved or not same
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
