"""toricstab benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 benchmark/run.py --workload pl_sweep --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` makes
a separate traced run and reports the per-layer metrics.  Every measured
process is a fresh interpreter started by this script (``worker.py``) that
makes one library call at a time.  Times are scaled to a fixed machine
speed (see REFERENCE_S).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A record of the run, environment included, is also written to
``benchmark/out/``.  See ``benchmark/NOTES.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

# Whole cycles per second of --seconds: a run's work is fixed by --seconds
# alone, so the same seed gives the same operations, and the same failures,
# on any machine.  Cycles hold 15, 96 and 28 operations; on a shared 2-core
# x86-64 machine a run at --seconds 25 took about 25, 22 and 45 s of
# operations.  blowup_ladder gets the longest run because its operations are
# the fewest and the most uneven: at 168 operations its p50 and p90 moved by
# 11-15% (IQR over median) from seed to seed, at 224 by 5-7%.  Its cycle
# count is a multiple of four, the period of its weight and product mix.
CYCLES_PER_S = {"pl_sweep": 2.0, "weight_sweep": 0.48, "blowup_ladder": 0.32}
WORKLOADS = tuple(CYCLES_PER_S)
# setup_s is the median of this many set-ups, each a fresh process.
SETUP_SAMPLES = 4
# Times are reported at the machine speed at which worker.reference() takes
# this long.  On a shared machine the same operation ran up to 1.7 times
# slower for spells of seconds to minutes; the reference, timed every 0.2 s
# in the same process, slows with it, so the scaled times stay put.
REFERENCE_S = 0.006
# Every run must end within this many seconds of its start.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(args, deadline):
    """Start worker.py in a fresh interpreter, wait for it, return its JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, WORKER, *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"worker {args[0]} exceeded the deadline") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    """Commit (None outside a git checkout), dirty flag and versions."""
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1]


def _scaled(run):
    """Latencies in ms at the reference speed: each one times
    REFERENCE_S / (the reference's time around that operation)."""
    return [lat * 1e3 * REFERENCE_S / speed
            for lat, speed in zip(run["latencies_s"], run["speed_s"])]


def _setup(workload, seed, deadline):
    res = _worker(["setup", "--workload", workload, "--seed", str(seed)], deadline)
    return res["setup_s"] * REFERENCE_S / res["speed_s"]


def _cycles(workload, seconds):
    return max(1, round(seconds * CYCLES_PER_S[workload]))


def end_to_end(workload, seed, seconds, deadline):
    # Set-ups are sampled before and after the timed process so their median
    # does not hang on one moment of the machine's load.
    setups = [_setup(workload, seed, deadline) for _ in range(SETUP_SAMPLES // 2)]
    run = _worker(["run", "--workload", workload, "--seed", str(seed),
                   "--cycles", str(_cycles(workload, seconds)),
                   "--max-seconds", repr(deadline - time.monotonic() - 20)], deadline)
    setups += [_setup(workload, seed, deadline) for _ in range(SETUP_SAMPLES // 2)]
    lat_ms = _scaled(run)
    n = len(lat_ms)
    p90 = _p90(lat_ms)
    failed = sum(run["failures"].values())
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "ops_per_s": (n / (sum(lat_ms) / 1e3), "1/s", f"{n} ops; 1 / mean latency"),
        "op_p50_ms": (statistics.median(lat_ms), "ms", f"{n} samples"),
        "op_p90_ms": (p90, "ms", f"{n} samples, {sum(x > p90 for x in lat_ms)} beyond"),
        "ok_frac": ((n - failed) / n, "fraction", f"{n} attempted, {failed} failed"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", "first 100 ops"),
    }
    raw_ms = [x * 1e3 for x in run["latencies_s"]]
    raw = {"ops_per_s": n / (sum(raw_ms) / 1e3), "op_p50_ms": statistics.median(raw_ms),
           "op_p90_ms": _p90(raw_ms)}
    return run, n, failed, metrics, raw


def traced(workload, seed, seconds, deadline):
    """Untraced run of half the cycles, then the same cycles traced in a
    second fresh process; their outputs must agree bit for bit."""
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl.gz")
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--cycles", str(_cycles(workload, seconds / 2))]
    plain = _worker(args + ["--max-seconds",
                            repr((deadline - time.monotonic() - 10) / 2.5)], deadline)
    n = len(plain["latencies_s"])
    run = _worker(args + ["--trace-out", spans], deadline)
    mismatched = sum(a != b for a, b in zip(plain["digests"], run["digests"]))
    if mismatched:
        run["wrong"]["traced output differs from untraced"] = mismatched
    layers = run["layers"]
    layers["trace.overhead_frac"] = {
        "value": sum(_scaled(run)) / sum(_scaled(plain)) - 1.0, "unit": "fraction"}
    metrics = {k: (v["value"], v["unit"], f"traced run of {n} ops")
               for k, v in layers.items()}
    return run, n, sum(run["failures"].values()), metrics, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "toricstab", "__init__.py")):
        sys.stderr.write(f"error: no library source at {ROOT}/src/toricstab; "
                         "run from the root of a toricstab checkout\n")
        return 2
    measure = traced if args.trace else end_to_end
    try:
        run, attempted, failed, metrics, raw = measure(args.workload, args.seed,
                                                       args.seconds, deadline)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1

    mode = "traced, per-layer" if args.trace else "untraced, end-to-end"
    print(f"workload {args.workload}, seed {args.seed} ({mode})")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<9} ({samples})")
    if raw:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + f"; reference median {statistics.median(run['speed_s']) * 1e3:.3f} ms"
              f" (scaled to {REFERENCE_S * 1e3:g} ms)")
    tally = ", ".join(f"{k} {v}" for k, v in sorted(run["failures"].items()))
    print(f"failures by type: {tally or 'none'}")
    for what, count in sorted(run["wrong"].items()):
        print(f"WRONG OUTPUT: {what} (x{count})")
    env = environment(args.seed)
    env.update(attempted=attempted, failed=failed)
    print("environment: " + json.dumps(env))

    result = {
        "correct": not run["wrong"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, environment=env,
                  samples={k: s for k, (_, _, s) in metrics.items()},
                  unscaled=raw, failures=run["failures"], wrong=run["wrong"],
                  failures_by_stratum=run["failures_by_stratum"])
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
