"""Time the full finite-web sweeps and the census networks of two checkouts
against each other.

    python3 tools/sweep_bench.py PARENT_ROOT CHANGE_ROOT [--pairs 4] [--out PATH]

Each root is a checkout with the sources under ROOT/src.  A pair runs the
pentagon sweep over (-pi, pi) and the hexagon sweep over (0, 2 pi), the
ranges `trigon reproduce` scans, once per checkout, each in a fresh Python
process that imports trigon from ROOT/src with BLAS threads pinned to 1;
the parent goes first on even pairs and the change on odd ones.  A timed
run reports the wall time of detect_bps alone (sweep_s, after the period
map) and the process's peak RSS, then grows the example's two census
networks (pentagon theta = 0 and 0.4, hexagon 0.1 and 0.9) in the same
process: grow_s is the fastest of CENSUS_ROUNDS grow_network calls after
one untimed call, us_per_point that time per RK point (the points of
every trajectory, seeds included).  One more run per checkout and example
counts the scan's lane work: lane iterations (passes of trace_lanes' step
loop, each one _cash_karp call on arrays) and lane points (the points of
every lane trajectory, start included).

Every run is compared with the parent's first run of its example.  Webs:
theta_star, charge, topology and zeros must be equal, and the report
gives the largest |difference| of the period, of the residual and of a
segment point (webs_equal is true only if every field is bit-equal, and
no run may raise WebEventDropped).  Census: the trajectory, birth and
point counts, each trajectory's status and hit zero, the marks at
infinity (angle, label, trajectories) and the final arcs must be equal,
and every junction point within CENSUS_JUNCTION_TOL of the parent's.  Prints
one JSON document (also written to --out) and exits 1 if the webs differ
in any way, the census does not match, or a run fails.
"""

from __future__ import annotations

import argparse
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
CENSUS = {"pentagon": (0.0, 0.4), "hexagon": (0.1, 0.9)}
CENSUS_ROUNDS = 5
CENSUS_JUNCTION_TOL = 1e-9


def _pairs(values):
    return [[complex(v).real, complex(v).imag] for v in values]


def _web_record(web):
    return {"theta_star": web.theta_star,
            "charge": list(web.charge.components),
            "topology": web.topology,
            "period": [web.period.real, web.period.imag],
            "residual": float(web.residual),
            "zeros": list(web.zeros),
            "segments": [_pairs(seg) for seg in web.segments]}


def _census(curve, theta):
    from trigon.network import grow_network

    net = grow_network(curve, theta)
    times = []
    for _ in range(CENSUS_ROUNDS):
        t0 = time.perf_counter()
        net = grow_network(curve, theta)
        times.append(time.perf_counter() - t0)
    points = sum(len(t) for t in net.trajectories)
    return {"grow_s": min(times), "us_per_point": min(times) / points * 1e6,
            "trajectories": len(net.trajectories), "born": net.n_born,
            "points": points,
            "statuses": [t.status for t in net.trajectories],
            "hit_zeros": [t.hit_zero for t in net.trajectories],
            "junctions": _pairs(j.point for j in net.junctions),
            "marks": [[m.angle, list(m.label), m.trajectories]
                      for m in net.infinity_marks],
            "final_arcs": [list(arc) for arc in net.final_arcs]}


def worker(name, count):
    """One sweep of the example `name` in this process, then (unless
    counting) its census networks, as a JSON dict."""
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
        out["census"] = {str(theta): _census(defn.curve, theta)
                         for theta in CENSUS[name]}
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


def _largest_distance(a, b):
    """The largest |p - q| over matching [re, im] points of two lists."""
    return max((math.hypot(p[0] - q[0], p[1] - q[1]) for p, q in zip(a, b)),
               default=0.0)


def _web_differences(ref, runs):
    """How the webs of every run (a list of web records) differ from the
    reference run's: whether each listed field is equal, and the largest
    |difference| of a period, a residual and a segment point (None if the
    segments differ in shape)."""
    pairs = [(w, r) for webs in runs for w, r in zip(webs, ref)]
    same_count = all(len(webs) == len(ref) for webs in runs)
    out = {"counts": sorted({len(webs) for webs in runs})}
    for key in ("theta_star", "charge", "topology", "zeros"):
        out[f"{key}_equal"] = same_count and all(w[key] == r[key]
                                                 for w, r in pairs)
    out["max_period_diff"] = max(
        (_largest_distance([w["period"]], [r["period"]]) for w, r in pairs),
        default=0.0)
    out["max_residual_diff"] = max(
        (abs(w["residual"] - r["residual"]) for w, r in pairs), default=0.0)
    same_shape = same_count and all(
        len(w["segments"]) == len(r["segments"])
        and all(len(s) == len(t) for s, t in zip(w["segments"],
                                                  r["segments"]))
        for w, r in pairs)
    out["max_segment_point_distance"] = max(
        (_largest_distance(s, t) for w, r in pairs
         for s, t in zip(w["segments"], r["segments"])),
        default=0.0) if same_shape else None
    return out


def _census_check(ref, census):
    """Whether a run's census networks match the reference run's, and the
    largest junction point distance from it."""
    out = {"match": True, "max_junction_distance": 0.0}
    for theta, r in ref.items():
        c = census[theta]
        same = all(c[k] == r[k] for k in ("trajectories", "born", "points",
                                          "statuses", "hit_zeros", "marks",
                                          "final_arcs"))
        same = same and len(c["junctions"]) == len(r["junctions"])
        if same:
            dist = _largest_distance(c["junctions"], r["junctions"])
            out["max_junction_distance"] = max(out["max_junction_distance"],
                                               dist)
            same = dist <= CENSUS_JUNCTION_TOL
        out["match"] &= same
    return out


def _median_summary(pairs, value):
    """Medians of value(entry of a side) per side, their ratio, and the
    number of pairs in which the change was faster."""
    med = {side: statistics.median(value(p[side]) for p in pairs)
           for side in ("parent", "change")}
    return {"median": med,
            "change_vs_parent": med["change"] / med["parent"] - 1,
            "change_faster_pairs": sum(value(p["change"]) < value(p["parent"])
                                       for p in pairs),
            "pairs": len(pairs)}


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
              "census": {name: list(thetas) for name, thetas in CENSUS.items()},
              "pairs": [], "counts": {}, "summary": {}, "census_summary": {}}
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
                    entry[side]["census"] = {
                        theta: {k: c[k] for k in ("grow_s", "us_per_point",
                                                  "trajectories", "points")}
                        for theta, c in res["census"].items()}
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

    webs_equal = census_match = True
    for name in SWEEPS:
        ref = runs[name][0]
        webs_equal &= all(r["webs"] == ref["webs"] and r["dropped"] == 0
                          for r in runs[name])
        checks = [_census_check(ref["census"], r["census"])
                  for r in runs[name] if "census" in r]
        census_match &= all(c["match"] for c in checks)
        pairs = [p for p in report["pairs"] if p["example"] == name]
        summary = _median_summary(pairs, lambda side: side["sweep_s"])
        report["summary"][name] = {
            "webs": len(ref["webs"]),
            "dropped": max(r["dropped"] for r in runs[name]),
            "web_differences": _web_differences(
                ref["webs"], [r["webs"] for r in runs[name]]),
            "median_sweep_s": summary.pop("median"), **summary}
        phases = {}
        for theta, c in ref["census"].items():
            summary = _median_summary(
                pairs, lambda side: side["census"][theta]["grow_s"])
            phases[theta] = {
                "trajectories": c["trajectories"], "born": c["born"],
                "points": c["points"],
                "median_grow_s": summary.pop("median"),
                "median_us_per_point": {
                    side: statistics.median(
                        p[side]["census"][theta]["us_per_point"]
                        for p in pairs) for side in ("parent", "change")},
                **summary}
        report["census_summary"][name] = {
            "match": all(c["match"] for c in checks),
            "max_junction_distance": max(c["max_junction_distance"]
                                         for c in checks),
            "phases": phases}
    report["webs_equal"] = bool(webs_equal)
    report["census_match"] = bool(census_match)
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if webs_equal and census_match else 1


if __name__ == "__main__":
    sys.exit(main())
