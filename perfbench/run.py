"""Benchmark of trigon: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload webscan --seed 1 --seconds 20 --trace 0

Workloads: webscan, reproduce-fast, tba-small-R (see README.md).  The
workload runs in a fresh child process with BLAS and OpenMP pinned to one
thread and TRIGON_WORKERS unset.  With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics (setup_s, wall_ref_s,
peak_rss_mb); with --trace 1 it holds the per-layer metrics of one traced
round.  Exits 1, printing no result, if the run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("webscan", "reproduce-fast", "tba-small-R")
# fresh processes that only set up, timed before and as many after the
# workload's own process, so that setup_s spans the run's machine speed
SETUP_SAMPLES_EACH_SIDE = 3
DEADLINE_S = 170.0     # the whole invocation stays inside this


def child_env():
    env = dict(os.environ)
    env.pop("TRIGON_WORKERS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(extra, deadline):
    """Start worker.py, wait for it, and return its JSON summary."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--t0", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "trigon", "__init__.py")):
        sys.stderr.write(f"no trigon sources under {ROOT}/src\n")
        return 1

    def setup_samples():
        return [run_worker(["--setup-only"], deadline)["setup_s"]
                for _ in range(0 if args.trace else SETUP_SAMPLES_EACH_SIDE)]

    try:
        setups = setup_samples()
        out = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace)], deadline)
        setups += setup_samples() + [out["setup_s"]]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1

    for reason in dict.fromkeys(out["reasons"]):
        print(f"failed: {reason}")
    walls, ref_walls = out["walls"], out["ref_walls"]
    line = (f"{args.workload} seed {args.seed}: {len(walls)} round(s), "
            f"wall {' '.join(f'{w:.3f}' for w in walls)} s")
    if ref_walls:
        line += f", at reference speed {' '.join(f'{w:.3f}' for w in ref_walls)} s"
    print(line)
    if args.trace:
        metrics = out["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_ref_s": {"value": statistics.median(ref_walls), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
