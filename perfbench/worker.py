"""One benchmark process: set up, run whole rounds of one workload, check
the outputs, and print a JSON summary as the last line of stdout.

Started by run.py, with BLAS and OpenMP pinned to one thread.  `--t0` is
the parent's monotonic clock reading just before it started this process,
so that set-up time counts interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# A shared host's speed drifts by a third and more within minutes, and the
# benchmarked code speeds up and slows down with it (README, "Machine
# speed").  A fixed loop timed all through a round measures that speed, and
# the round's wall time is rescaled to the speed at which the loop takes
# PROBE_REF_S, about its median time on the reference machine.
PROBE_PERIOD_S = 0.1
PROBE_LOOP = 20_000
PROBE_REF_S = 0.0017


class SpeedProbe:
    """While active, a SIGALRM handler times PROBE_LOOP iterations of a
    fixed pure-Python loop every PROBE_PERIOD_S seconds of wall time."""

    def __init__(self):
        self.samples = []

    def _probe(self, signum, frame):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference_speed(self, wall):
        """`wall` less the probes' own time, at the reference speed."""
        own = wall - sum(self.samples)
        return own * PROBE_REF_S / statistics.fmean(self.samples)


def import_trigon():
    """Import trigon from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import trigon
    import trigon.cli  # noqa: F401  (numpy and scipy come in here)
    if os.path.dirname(os.path.abspath(trigon.__file__)) != os.path.join(SRC, "trigon"):
        raise SystemExit(f"trigon imported from {trigon.__file__}, not {SRC}")


def run_round(ops, recorder, index, probe=None):
    """Run every operation (timed, under `probe` if given), then check
    every output (untimed).  An operation that raises a TrigonError has
    failed.

    Returns (wall seconds, [(op, problems)])."""
    from trigon.errors import TrigonError
    outputs = []
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        for op in ops:
            if recorder:
                recorder.op = f"{index}:{op.name}"
            try:
                outputs.append(op.run())
            except TrigonError as exc:
                outputs.append(exc)
    wall = time.perf_counter() - start
    if recorder:
        recorder.enabled = False
    results = [(op, [f"raised {type(out).__name__}: {out}"]
                if isinstance(out, TrigonError) else op.check(out))
               for op, out in zip(ops, outputs)]
    if recorder:
        recorder.enabled = True
    return wall, results


def tally(results):
    """(attempted, failed, correct, failure reasons) over checked ops.

    An operation fails when any check finds a problem.  The result stays
    correct while every failed operation is one with a named fault."""
    failed = [(op, p) for op, p in results if p]
    correct = all(op.fault for op, _ in failed)
    reasons = [f"{op.name}: {op.fault or 'UNEXPECTED'}: {'; '.join(p)}"
               for op, p in failed]
    return len(results), len(failed), correct, reasons


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    import_trigon()
    recorder = None
    if args.trace:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
    import workloads
    examples = workloads.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ops = workloads.make_ops(args.workload, examples, args.seed, work_dir)
        walls, ref_walls, results = [], [], []
        start = time.perf_counter()
        while True:
            probe = None if args.trace else SpeedProbe()
            wall, checked = run_round(ops, recorder, len(walls), probe)
            walls.append(wall)
            if probe:
                ref_walls.append(probe.at_reference_speed(wall))
            results += checked
            if args.trace:
                break
            elapsed = time.perf_counter() - start
            if (len(walls) >= workloads.MIN_ROUNDS[args.workload]
                    and elapsed * (len(walls) + 1) / len(walls) > args.seconds):
                break
        per_layer = None
        if args.trace:
            recorder.uninstall()
            per_layer = traced_metrics(recorder, ops, args.workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed, correct, reasons = tally(results)
    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "ref_walls": ref_walls,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "reasons": reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "per_layer": per_layer,
    }))
    return 0


def traced_metrics(recorder, ops, workload):
    """Per-layer metrics from the recorded spans; when the round solved,
    a second, untraced pass measures each solve's tracemalloc peak."""
    import tracing
    recorder.write(os.path.join(OUT_DIR, f"spans-{workload}.jsonl"))
    peak = 0
    if any(s.name == "tba.solve" for s in recorder.spans):
        memory = tracing.SolveMemory()
        memory.install()
        try:
            for op in ops:
                op.run()
        finally:
            memory.uninstall()
        peak = memory.peak_bytes
    return tracing.layer_metrics(recorder.spans, peak)


if __name__ == "__main__":
    sys.exit(main())
