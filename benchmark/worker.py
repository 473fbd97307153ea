"""One benchmark process: set up a workload, then run its operations.

Started by ``run.py`` in a fresh interpreter, so every library cache starts
empty, as it does for a command-line user.  The load is a closed loop with a
single client: one library call at a time, the next one only after the
previous returned, no extra threads.  Prints one JSON line of raw samples.

    python3 benchmark/worker.py setup --workload pl_sweep --seed 0 --t0 T
    python3 benchmark/worker.py run --workload pl_sweep --seed 0 --t0 T \
        --cycles 60 [--max-seconds S] [--trace-out FILE]

A run executes a fixed number of whole cycles, so the operations it makes,
and which of them fail, depend on the seed and ``--cycles`` alone, never on
the machine's speed.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; ``setup_s`` runs from there to the first operation (interpreter
start, imports, catalog load and input generation).

Every ``SPEED_EVERY_S`` seconds, between operations, the process times
``reference()``, a fixed computation that does not touch the library, so
that ``run.py`` can scale each latency to a fixed machine speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the library on the path)

# A p90 needs at least ten samples beyond it.
MIN_OPS = 100
SPEED_EVERY_S = 0.2


def reference():
    """Exact rational arithmetic, dict updates and small matrix products:
    the kinds of work the library does, a few ms, independent of it."""
    acc, counts = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(200):
        a = a @ a.T / 1e3
    return acc, a


def speed_sample():
    """Time of ``reference()``: the faster of two runs, to skip interrupts."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


def _digest(output):
    return hashlib.sha256(repr(output).encode()).hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--cycles", type=int, default=1,
                    help="run this many whole cycles, more if needed for "
                         f"{MIN_OPS} operations")
    ap.add_argument("--max-seconds", type=float, default=None,
                    help="stop here even inside a cycle")
    ap.add_argument("--trace-out", default=None,
                    help="trace the run and write its spans here")
    args = ap.parse_args(argv)

    cycles = workloads.cycles(args.workload, args.seed)
    cycle = next(cycles)
    setup_s = time.monotonic() - args.t0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s, "speed_s": speed_sample()}))
        return 0

    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    latencies, digests = [], []
    rss_mb = None
    speeds, speed_before = [speed_sample()], []
    failures, wrong, by_stratum = Counter(), Counter(), Counter()
    excluded = 0.0  # input generation and speed samples
    start = last_speed = time.perf_counter()

    def past(limit):
        return limit is not None and time.perf_counter() - start - excluded >= limit

    done, cycles_done = False, 0
    while not done:
        for op in cycle:
            if time.perf_counter() - last_speed >= SPEED_EVERY_S:
                t = time.perf_counter()
                speeds.append(speed_sample())
                last_speed = time.perf_counter()
                excluded += last_speed - t
            speed_before.append(len(speeds) - 1)
            if tracer is not None:
                tracer.op = len(latencies)
                frame = tracer.open("bench", op.label)
            t_op = time.perf_counter()
            output, problem = workloads.execute(op)
            latencies.append(time.perf_counter() - t_op)
            if tracer is not None:
                tracer.close(frame)
            digests.append(_digest(output))
            if len(latencies) == MIN_OPS:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if problem is not None:
                kind, is_wrong = problem
                failures[kind] += 1
                by_stratum[f"{op.label}: {kind}"] += 1
                if is_wrong:
                    wrong[f"{kind}: {op.label}"] += 1
            if past(args.max_seconds):
                done = True
                break
        cycles_done += 1
        done = done or (cycles_done >= args.cycles and len(latencies) >= MIN_OPS)
        if not done:
            t = time.perf_counter()
            cycle = next(cycles)
            excluded += time.perf_counter() - t
    wall = time.perf_counter() - start - excluded
    speeds.append(speed_sample())
    if rss_mb is None:  # stopped early, by --max-seconds
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cycles": cycles_done,
        "latencies_s": latencies,
        # The machine's speed around each operation: the mean of the
        # reference timings just before and just after it.
        "speed_s": [(speeds[j] + speeds[j + 1]) / 2 for j in speed_before],
        "digests": digests,
        "failures": dict(failures),
        "failures_by_stratum": dict(sorted(by_stratum.items())),
        "wrong": dict(wrong),
        # Over the first MIN_OPS operations: a fixed amount of work, so a
        # faster library is not charged for the caches of its extra ones.
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall, len(latencies))
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
