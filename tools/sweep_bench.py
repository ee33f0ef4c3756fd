"""Time the full finite-web sweeps of two checkouts against each other.

    python3 tools/sweep_bench.py PARENT_ROOT CHANGE_ROOT [--pairs 4] [--out PATH]

Each root is a checkout with the sources under ROOT/src.  A pair runs the
pentagon sweep over (-pi, pi) and the hexagon sweep over (0, 2 pi), the
ranges `trigon reproduce` scans, once per checkout, each in a fresh Python
process that imports trigon from ROOT/src with BLAS threads pinned to 1;
the parent goes first on even pairs and the change on odd ones.  A timed
run reports the wall time of detect_bps alone (sweep_s, after the period
map) and the process's peak RSS.  One more run per checkout and example
counts the scan's lane work: lane iterations (passes of trace_lanes' step
loop, each one _cash_karp call on arrays) and lane points (the points of
every lane trajectory, start included).  Every run records its webs, and
all runs of an example must give the same webs, field for field:
theta_star, charge, topology, period, residual, zeros and each segment's
points, floats compared bit for bit; none may raise WebEventDropped.
Prints one JSON document (also written to --out) and exits 1 if the webs
differ or a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

SWEEPS = {"pentagon": (-math.pi, math.pi), "hexagon": (0.0, 2 * math.pi)}


def _web_record(web):
    return {"theta_star": web.theta_star.hex(),
            "charge": list(web.charge.components),
            "topology": web.topology,
            "period": [web.period.real.hex(), web.period.imag.hex()],
            "residual": float(web.residual).hex(),
            "zeros": list(web.zeros),
            "segments": [hashlib.sha256(seg.astype(complex).tobytes())
                         .hexdigest() for seg in web.segments]}


def worker(name, count):
    """One sweep of the example `name` in this process, as a JSON dict."""
    import numpy as np
    from trigon import network
    from trigon.curve import PeriodMap, load_example
    from trigon.errors import WebEventDropped

    defn = load_example(name)
    pm = PeriodMap.compute(defn.curve, defn.lattice)
    counts = {"lane_iterations": 0, "lane_points": 0}
    if count:
        cash_karp, trace_lanes = network._cash_karp, network.trace_lanes

        def counted_step(rhs, z, h, f1):
            counts["lane_iterations"] += isinstance(z, np.ndarray)
            return cash_karp(rhs, z, h, f1)

        def counted_lanes(curve, seeds, config):
            trajs = trace_lanes(curve, seeds, config)
            counts["lane_points"] += sum(len(t) for t in trajs)
            return trajs

        network._cash_karp, network.trace_lanes = counted_step, counted_lanes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", WebEventDropped)
        t0 = time.perf_counter()
        webs = network.detect_bps(defn.curve, defn.lattice, SWEEPS[name],
                                  period_map=pm)
        sweep_s = time.perf_counter() - t0
    out = {"webs": [_web_record(w) for w in webs],
           "dropped": sum(issubclass(w.category, WebEventDropped)
                          for w in caught)}
    if count:
        out.update(counts)
    else:
        out.update(sweep_s=sweep_s, peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out


def run(root, name, count):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", name,
         "--count", str(int(count))],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", metavar="ROOT")
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--out")
    ap.add_argument("--worker", choices=sorted(SWEEPS), help=argparse.SUPPRESS)
    ap.add_argument("--count", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, args.count)))
        return 0
    if len(args.roots) != 2:
        ap.error("give PARENT_ROOT and CHANGE_ROOT")
    roots = dict(zip(("parent", "change"), map(os.path.abspath, args.roots)))

    runs = {name: [] for name in SWEEPS}
    report = {"command": "python3 tools/sweep_bench.py PARENT_ROOT CHANGE_ROOT"
                         f" --pairs {args.pairs}",
              "sweeps": {name: list(rng) for name, rng in SWEEPS.items()},
              "pairs": [], "counts": {}, "summary": {}}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                                "parent")
            for name in SWEEPS:
                entry = {"example": name, "first": order[0]}
                for side in order:
                    res = run(roots[side], name, count=False)
                    runs[name].append(res)
                    entry[side] = {k: res[k] for k in ("sweep_s",
                                                       "peak_rss_mb")}
                report["pairs"].append(entry)
        for name in SWEEPS:
            report["counts"][name] = {}
            for side in ("parent", "change"):
                res = run(roots[side], name, count=True)
                runs[name].append(res)
                report["counts"][name][side] = {
                    k: res[k] for k in ("lane_iterations", "lane_points")}
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"sweep run failed: {exc}\n")
        return 1

    same = True
    for name in SWEEPS:
        ref = runs[name][0]["webs"]
        same &= all(r["webs"] == ref and r["dropped"] == 0
                    for r in runs[name])
        pairs = [p for p in report["pairs"] if p["example"] == name]
        med = {side: statistics.median(p[side]["sweep_s"] for p in pairs)
               for side in ("parent", "change")}
        report["summary"][name] = {
            "webs": len(ref),
            "median_sweep_s": med,
            "change_vs_parent": med["change"] / med["parent"] - 1,
            "change_faster_pairs": sum(p["change"]["sweep_s"]
                                       < p["parent"]["sweep_s"]
                                       for p in pairs),
            "pairs": len(pairs)}
    report["webs_equal"] = bool(same)
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
