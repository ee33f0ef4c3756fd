"""Command-line interface.

Subcommands cover every pipeline stage: curve dump, periods, network
trace/sweep/bps, bps dump/validate, tba solve, asym predict/check,
polygon eval, and a reproduce command that re-derives the known values
for the two shipped examples and reports pass/fail per check.

Artifacts are JSON (sorted keys, schema_version field) or, for plotting,
plain polyline text: one "x y" pair per line, blank line between
trajectories.  Exit codes: 0 success, 1 validation failure, 2 numerical
failure; failures also emit one machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys


from . import reference
from .asymptotics import (build_prediction, decay_table, linear_coefficient,
                          solver_coefficient)
from .bps import BpsSpectrum, builtin_spectrum, spectrum_from_webs
from .curve import (EXAMPLE_NAMES, OMEGA, Charge, PeriodMap, _c2pair,
                    curve_to_json, load_curve_file, load_example, read_json)
from .errors import NumericalError, TrigonError, ValidationError
from .network import detect_bps, grow_network
from .polygon import (builtin_expression, builtin_expression_names,
                      cross_ratio, polygon_from_json)
from .tba import SolverConfig, solve, spectral_coordinate


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------

def _write(text, path):
    """Write text to the file at path, or to stdout for None or "-"; a
    file that cannot be written raises ValidationError."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _dump_json(doc, path):
    _write(json.dumps(doc, indent=1, sort_keys=True) + "\n", path)


def _parse_charge(text):
    try:
        return Charge([int(tok) for tok in text.split(",")])
    except ValueError:
        raise ValidationError(f"cannot parse charge {text!r}; use e.g. 1,0") from None


def _parse_grid(text):
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValidationError(
            f"cannot parse R grid {text!r}; use e.g. 1,1.5,2") from None


def _load_definition(args):
    if getattr(args, "example", None):
        return load_example(args.example)
    if getattr(args, "curve_file", None):
        return load_curve_file(args.curve_file)
    raise ValidationError("need --example or --curve-file")


def _period_map(defn):
    return PeriodMap.compute(defn.curve, defn.lattice)


def _spectrum(args, defn):
    """The spectrum in the --spectrum file, or the built-in one of defn."""
    return (BpsSpectrum.load(args.spectrum) if args.spectrum
            else builtin_spectrum(defn.name))


def _write_polylines(net, path):
    lines = []
    for traj in net.trajectories:
        lines += [f"{p.real!r} {p.imag!r}\n" for p in traj.points.tolist()]
        lines.append("\n")
    _write("".join(lines), path)


def _network_doc(net):
    return {
        "schema_version": 1,
        "theta": net.theta,
        "bps_ful": net.bps_ful,
        "n_trajectories": len(net.trajectories),
        "n_born": net.n_born,
        "trajectories": [
            {
                "points": [_c2pair(p) for p in t.points.tolist()],
                "status": t.status,
                "hit_zero": t.hit_zero,
                "origin": list(map(str, t.seed.origin)),
            }
            for t in net.trajectories
        ],
        "junctions": [
            {"point": _c2pair(j.point), "parents": list(j.parents),
             "child": j.child}
            for j in net.junctions
        ],
        "infinity_marks": [
            {"angle": m.angle, "label": list(m.label),
             "trajectories": m.trajectories}
            for m in net.infinity_marks
        ],
        "final_arcs": [[a, s] for a, s in net.final_arcs],
    }


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_curve_dump(args):
    _dump_json(curve_to_json(load_example(args.example)), args.out)
    return 0


def cmd_periods(args):
    defn = _load_definition(args)
    pm = _period_map(defn)
    doc = {
        "schema_version": 1,
        "name": defn.name,
        "charges": defn.lattice.names,
        "periods": [_c2pair(v) for v in pm.basis_values],
    }
    if args.charge:
        extra = {}
        for text in args.charge:
            ch = defn.lattice.charge(_parse_charge(text).components)
            extra[text] = _c2pair(pm.Z(ch))
        doc["requested"] = extra
    _dump_json(doc, args.out)
    return 0


def cmd_network_trace(args):
    defn = _load_definition(args)
    net = grow_network(defn.curve, args.theta, classify=not args.no_classify)
    doc = _network_doc(net)
    _dump_json(doc, args.out)
    if args.polylines:
        _write_polylines(net, args.polylines)
    return 0


def cmd_network_sweep(args):
    if args.frames < 1:
        raise ValidationError("--frames must be at least 1")
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot make {args.out_dir}: {exc}") from None
    defn = load_example(args.example)
    frames = []
    for k in range(args.frames):
        theta = k * math.pi / 300.0
        net = grow_network(defn.curve, theta, classify=False)
        file = f"frame_{k:04d}.txt"
        _write_polylines(net, os.path.join(args.out_dir, file))
        frames.append({"index": k, "theta": theta, "file": file,
                       "n_trajectories": len(net.trajectories),
                       "bps_ful": net.bps_ful})
    manifest = {"schema_version": 1, "example": args.example, "frames": frames}
    _dump_json(manifest, os.path.join(args.out_dir, "manifest.json"))
    return 0


def cmd_network_bps(args):
    defn = _load_definition(args)
    pm = _period_map(defn)
    lo, hi = args.theta_min, args.theta_max
    webs = detect_bps(defn.curve, defn.lattice, (lo, hi), period_map=pm,
                      scan_step=args.scan_step)
    doc = {
        "schema_version": 1,
        "name": defn.name,
        "theta_range": [lo, hi],
        "webs": [
            {"theta_star": w.theta_star,
             "charge": list(w.charge.components),
             "topology": w.topology,
             "period": _c2pair(w.period),
             "residual": w.residual,
             "zeros": list(w.zeros)}
            for w in webs
        ],
    }
    _dump_json(doc, args.out)
    return 0


def cmd_bps_dump(args):
    spec = builtin_spectrum(args.example)
    _dump_json(spec.to_json(), args.out)
    return 0


def cmd_bps_validate(args):
    if args.spectrum:
        spec = BpsSpectrum.from_json(read_json(args.spectrum))
    else:
        spec = builtin_spectrum(args.example)
    violations = spec.validate()
    _dump_json({"schema_version": 1, "ok": not violations,
                "violations": violations}, args.out)
    return 1 if violations else 0


def cmd_tba_solve(args):
    defn = _load_definition(args)
    pm = _period_map(defn)
    spec = _spectrum(args, defn)
    cfg = SolverConfig(R=args.R, theta=args.theta, N=args.N, tol=args.tol,
                       max_iter=args.max_iter, relax=args.relax)
    sol = solve(cfg, spec, pm, defn.lattice.pairing)
    X = {}
    for i, name in enumerate(defn.lattice.names):
        ch = defn.lattice.basis_charge(i)
        X[name] = _c2pair(spectral_coordinate(sol, ch))
    doc = {
        "schema_version": 1,
        "name": defn.name,
        "R": args.R,
        "theta": args.theta,
        "N": cfg.N,
        "iterations_used": sol.iterations_used,
        "final_delta": sol.delta_history[-1],
        "X": X,
        "ray_grids": [
            {"charge": list(g.charge.components),
             "alpha": _c2pair(g.alpha),
             "absZ": g.absZ,
             "s": list(g.s),
             "samples": [_c2pair(v) for v in g.samples]}
            for g in sol.ray_grids
        ],
    }
    _dump_json(doc, args.out)
    return 0


def cmd_asym_predict(args):
    defn = _load_definition(args)
    pm = _period_map(defn)
    spec = _spectrum(args, defn)
    gamma = defn.lattice.charge(_parse_charge(args.charge).components)
    pred = build_prediction(gamma, args.theta, spec, pm, defn.lattice.pairing)
    doc = {
        "schema_version": 1,
        "name": defn.name,
        "charge": list(gamma.components),
        "theta": args.theta,
        "a": pred.a,
        "exact": pred.exact,
        "rho": pred.rho,
        "leading_coefficient": pred.leading_coefficient,
        "corrections": [
            {"charge": list(mu.components), "coefficient": _c2pair(c),
             "rate": rate}
            for mu, c, rate in pred.corrections
        ],
    }
    _dump_json(doc, args.out)
    return 0


def cmd_asym_check(args):
    defn = _load_definition(args)
    pm = _period_map(defn)
    spec = _spectrum(args, defn)
    gamma = defn.lattice.charge(_parse_charge(args.charge).components)
    pred = build_prediction(gamma, args.theta, spec, pm, defn.lattice.pairing)
    grid = _parse_grid(args.R_grid)
    sols = [solve(SolverConfig(R=R, theta=args.theta), spec, pm,
                  defn.lattice.pairing) for R in grid]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["R", "logX", "prediction", "delta", "scaled_delta"])
    for row in decay_table(sols, pred):
        writer.writerow([repr(float(v)) for v in row])
    _write(text.getvalue(), args.out)
    return 0


def cmd_polygon_eval(args):
    poly = polygon_from_json(read_json(args.vertices))
    if ":" in args.expr:
        example, name = args.expr.split(":", 1)
        expr = builtin_expression(example, name)
    else:
        raise ValidationError(
            f"unknown expression {args.expr!r}; available: "
            + ", ".join(f"{a}:{b}" for a, b in builtin_expression_names()))
    value = cross_ratio(poly, expr)
    _dump_json({"schema_version": 1, "expression": str(expr),
                "value": value}, args.out)
    return 0


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------

class _Report:
    def __init__(self):
        self.checks = []

    def add(self, name, ok, detail):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks)


def _census(report, defn, ref):
    """The network census check at the reference phase."""
    net = grow_network(defn.curve, ref["network_theta"])
    ok = (len(net.trajectories) == ref["trajectories"]
          and net.n_born == ref["born"]
          and len(net.infinity_marks) == ref["directions"])
    report.add(f"network census (theta={ref['network_theta']:g})", ok,
               f"{len(net.trajectories)} trajectories, {net.n_born} born, "
               f"{len(net.infinity_marks)} directions "
               f"(want {ref['trajectories']}/{ref['born']}/{ref['directions']})")


def _reproduce_pentagon(report, fast):
    ref = reference.PENTAGON
    defn = load_example("pentagon")
    pm = _period_map(defn)
    g1, g2 = Charge((1, 0)), Charge((0, 1))

    errs = [abs(pm.Z(defn.lattice.basis_charge(i)) - ref["Z"][i])
            for i in range(2)]
    report.add("periods vs targets", max(errs) <= ref["Z_tol"],
               f"|dZ| = {max(errs):.2e} (tol {ref['Z_tol']:.0e})")
    cf = reference.pentagon_closed_form()
    report.add("base period vs closed form",
               abs(pm.Z(g1) - cf) <= ref["closed_form_tol"],
               f"|dZ| = {abs(pm.Z(g1) - cf):.2e} (tol {ref['closed_form_tol']:.0e})")

    _census(report, defn, ref)

    spec = builtin_spectrum("pentagon")
    sol = solve(SolverConfig(R=ref["tba_R"], theta=ref["tba_theta"]),
                spec, pm, defn.lattice.pairing)
    X1 = spectral_coordinate(sol, g1).real
    report.add("X_gamma1 at R=0.5", abs(X1 - ref["X_gamma1"]) <= ref["X_tol"],
               f"X = {X1:.6f} (want {ref['X_gamma1']} +- {ref['X_tol']})")
    X2 = spectral_coordinate(sol, g2).real
    report.add("X_gamma2 reflection symmetry", abs(X2 - 1.0) <= 1e-9,
               f"X = {X2:.12f}")

    pred = build_prediction(g1, 0.0, spec, pm, defn.lattice.pairing)
    a = linear_coefficient(g1, 0.0, pm)
    ok = (abs(a - ref["a_gamma1"]) <= ref["asym_tol"]
          and abs(pred.rho - ref["rho_gamma1"]) <= ref["asym_tol"])
    report.add("asymptotic constants (a, rho)", ok,
               f"a = {a:.6f}, rho = {pred.rho:.6f} "
               f"(want {ref['a_gamma1']}, {ref['rho_gamma1']})")
    c_ref = -3.0 / (2.0 * math.sqrt(math.pi * pred.rho))
    report.add("leading coefficient vs -3/(2 sqrt(pi rho))",
               abs(pred.leading_coefficient - c_ref) <= 1e-9,
               f"c = {pred.leading_coefficient:.9f}")

    if fast:
        print("[skip] bps sweep (--fast)")
        return
    webs = detect_bps(defn.curve, defn.lattice, (-math.pi, math.pi),
                      period_map=pm)
    phases = sorted(w.theta_star for w in webs)
    ok = (len(phases) == 6
          and all(abs(p - q) <= ref["bps_phase_tol"]
                  for p, q in zip(phases, ref["bps_phases"])))
    report.add("bps phases", ok,
               f"{[round(p, 5) for p in phases]}")
    harvested = spectrum_from_webs(webs, rank=2)
    ok = set(harvested.charges()) == set(spec.charges()) and \
        all(harvested.omega(c) == 1 for c in harvested.charges())
    report.add("bps charges = built-in spectrum", ok,
               f"{len(harvested)} charges harvested")


def _reproduce_hexagon(report, fast):
    ref = reference.HEXAGON
    defn = load_example("hexagon")
    pm = _period_map(defn)

    errs = [abs(pm.Z(defn.lattice.basis_charge(i)) - ref["Z"][i])
            for i in range(4)]
    report.add("periods vs targets", max(errs) <= ref["Z_tol"],
               f"|dZ| = {max(errs):.2e} (tol {ref['Z_tol']:.0e})")

    _census(report, defn, ref)

    spec = builtin_spectrum("hexagon")
    worst = 0.0
    for R in ref["kernel_R_values"]:
        sol = solve(SolverConfig(R=R, theta=0.2), spec, pm,
                    defn.lattice.pairing)
        for comps in ref["kernel_charges"]:
            ch = Charge(comps)
            X = spectral_coordinate(sol, ch).real
            exact = math.exp(linear_coefficient(ch, 0.2, pm) * R)
            worst = max(worst, abs(X - exact) / exact)
    report.add("kernel charges exactly exponential",
               worst <= ref["kernel_rel_tol"],
               f"max rel deviation {worst:.2e} (tol {ref['kernel_rel_tol']:.0e})")
    a3 = linear_coefficient(Charge((0, 0, 1, 0)), 0.2, pm)
    report.add("a_gamma3 at theta=0.2",
               abs(a3 - ref["a_gamma3_theta02"]) <= ref["a_gamma3_tol"],
               f"a = {a3:.5f} (want {ref['a_gamma3_theta02']})")

    g1 = Charge((1, 0, 0, 0))
    pred = build_prediction(g1, ref["asym_theta"], spec, pm,
                            defn.lattice.pairing)
    a = linear_coefficient(g1, ref["asym_theta"], pm)
    report.add("asymptotic constants (a, rho)",
               abs(a - ref["a_gamma1"]) <= ref["asym_tol"]
               and abs(pred.rho - ref["rho_gamma1"]) <= ref["asym_tol"],
               f"a = {a:.5f}, rho = {pred.rho:.5f} "
               f"(want {ref['a_gamma1']}, {ref['rho_gamma1']})")
    # the published c covers the pair +-c_gamma1_charge alone; it ties at
    # the minimal rate with a second pair (the Z/3 images of gamma1 and
    # their negatives), and the summed coefficient is the solver's
    z1 = pm.Z(g1)
    images = [Charge(m) for m in ref["gamma1_z3_images"]]
    tie = max(abs(pm.Z(m) - OMEGA ** k * z1)
              for k, m in enumerate(images, start=1))
    tied = {c.components for m in images for c in (m, -m)}
    published = Charge(ref["c_gamma1_charge"])
    coeff = {mu.components: c.real for mu, c, _ in pred.corrections}
    c_pair = coeff[published.components] + coeff[(-published).components]
    report.add(f"published c vs pair +-{published}",
               abs(c_pair - ref["c_gamma1"]) <= ref["asym_tol"],
               f"c = {c_pair:.5f} (want {ref['c_gamma1']})")
    c_tied = sum(coeff[m] for m in tied)
    sols = [solve(SolverConfig(R=R, theta=ref["asym_theta"]), spec, pm,
                  defn.lattice.pairing)
            for R in ref["solver_R_values"]]
    c_solver, _ = solver_coefficient(sols, pred)
    lead = pred.leading_coefficient
    ok = (tie <= ref["z3_tie_tol"] and published.components in tied
          and abs(lead - c_tied) <= 1e-12
          and abs(c_solver - lead) <= ref["solver_c_rel_tol"] * abs(lead))
    report.add("summed leading coefficient vs solver", ok,
               f"c = {lead:.5f} over {len(tied)} charges tied to "
               f"{tie:.1e}, solver extrapolates to {c_solver:.5f} "
               f"(rel tol {ref['solver_c_rel_tol']:.0e})")

    if fast:
        print("[skip] bps sweep (--fast)")
        return
    webs = detect_bps(defn.curve, defn.lattice, (0.0, 2 * math.pi),
                      period_map=pm)
    harvested = spectrum_from_webs(webs, rank=4)
    ok = set(harvested.charges()) == set(spec.charges())
    n_junction = sum(1 for w in webs if w.topology == "three_string_junction")
    report.add("bps charges = built-in spectrum", ok,
               f"{len(webs)} webs ({n_junction} junctions), "
               f"{len(harvested)} charges")
    target = [w for w in webs
              if abs(w.theta_star - ref["junction_web_theta"]) < 0.05]
    ok = (len(target) == 1
          and target[0].charge.components == ref["junction_web_charge"])
    report.add("web near theta=0.36 has charge gamma1-gamma3-gamma4", ok,
               f"{[(round(w.theta_star, 5), str(w.charge)) for w in target]}")


def cmd_reproduce(args):
    report = _Report()
    if args.example == "pentagon":
        _reproduce_pentagon(report, args.fast)
    else:
        _reproduce_hexagon(report, args.fast)
    doc = {"schema_version": 1, "example": args.example,
           "fast": bool(args.fast), "ok": report.ok, "checks": report.checks}
    if args.out:
        _dump_json(doc, args.out)
    print(f"{'ALL CHECKS PASS' if report.ok else 'SOME CHECKS FAILED'} "
          f"({sum(c['ok'] for c in report.checks)}/{len(report.checks)})")
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_source(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--example", choices=EXAMPLE_NAMES)
    g.add_argument("--curve-file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="trigon",
        description="spectral networks, periods and ray-iteration "
                    "predictions for polynomial cubic differentials")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="curve definitions")
    csub = p.add_subparsers(dest="curve_command", required=True)

    q = csub.add_parser("dump", help="write a shipped curve definition as "
                                     "--curve-file JSON")
    q.add_argument("--example", choices=EXAMPLE_NAMES, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_curve_dump)

    p = sub.add_parser("periods", help="basis periods of a curve definition")
    _add_source(p)
    p.add_argument("--charge", action="append", default=[],
                   help="extra charge to evaluate, e.g. 1,-1 (repeatable)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("network", help="trajectory networks")
    nsub = p.add_subparsers(dest="network_command", required=True)

    q = nsub.add_parser("trace", help="grow the network at one phase")
    _add_source(q)
    q.add_argument("--theta", type=float, default=0.0)
    q.add_argument("--out", default=None)
    q.add_argument("--polylines", default=None,
                   help="also write plain-text polylines to this file")
    q.add_argument("--no-classify", action="store_true")
    q.set_defaults(func=cmd_network_trace)

    q = nsub.add_parser("sweep", help="polyline frames over a phase sweep")
    q.add_argument("--example", choices=EXAMPLE_NAMES, required=True)
    q.add_argument("--frames", type=int, default=100,
                   help="frames at theta = k*pi/300, k = 0..frames-1")
    q.add_argument("--out-dir", required=True)
    q.set_defaults(func=cmd_network_sweep)

    q = nsub.add_parser("bps", help="finite-web scan over a phase interval")
    _add_source(q)
    q.add_argument("--theta-min", type=float, default=0.0)
    q.add_argument("--theta-max", type=float, default=math.pi)
    q.add_argument("--scan-step", type=float, default=math.pi / 300)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_network_bps)

    p = sub.add_parser("bps", help="BPS spectra")
    bsub = p.add_subparsers(dest="bps_command", required=True)

    q = bsub.add_parser("dump", help="write a built-in spectrum as JSON")
    q.add_argument("--example", choices=EXAMPLE_NAMES, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_bps_dump)

    q = bsub.add_parser("validate", help="symmetry validation report")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--example", choices=EXAMPLE_NAMES)
    g.add_argument("--spectrum", help="spectrum JSON file")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_bps_validate)

    p = sub.add_parser("tba", help="ray iteration solver")
    tsub = p.add_subparsers(dest="tba_command", required=True)

    q = tsub.add_parser("solve", help="solve and evaluate the coordinates")
    _add_source(q)
    q.add_argument("--R", type=float, required=True)
    q.add_argument("--theta", type=float, default=0.0)
    q.add_argument("--N", type=int, default=257)
    q.add_argument("--tol", type=float, default=1e-10,
                   help="sweep step that stops the iteration, relative to "
                   "the largest sample")
    q.add_argument("--max-iter", type=int, default=100)
    q.add_argument("--relax", type=float, default=1.0)
    q.add_argument("--spectrum", default=None, help="custom spectrum JSON")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_tba_solve)

    p = sub.add_parser("asym", help="large-scale predictions")
    asub = p.add_subparsers(dest="asym_command", required=True)

    q = asub.add_parser("predict", help="linear + correction coefficients")
    _add_source(q)
    q.add_argument("--charge", required=True)
    q.add_argument("--theta", type=float, default=0.0)
    q.add_argument("--spectrum", default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_asym_predict)

    q = asub.add_parser("check", help="remainder decay table over an R grid")
    _add_source(q)
    q.add_argument("--charge", required=True)
    q.add_argument("--theta", type=float, default=0.0)
    q.add_argument("--R-grid", required=True, help="e.g. 1,1.5,2,2.5,3")
    q.add_argument("--spectrum", default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_asym_check)

    p = sub.add_parser("polygon", help="projective polygon invariants")
    psub = p.add_subparsers(dest="polygon_command", required=True)

    q = psub.add_parser("eval", help="evaluate a coordinate expression")
    q.add_argument("--expr", required=True,
                   help="built-in name, e.g. pentagon:gamma1")
    q.add_argument("--vertices", required=True,
                   help="JSON list of homogeneous 3-vectors")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_polygon_eval)

    p = sub.add_parser("reproduce",
                       help="re-derive the known values for an example")
    p.add_argument("example", choices=EXAMPLE_NAMES)
    p.add_argument("--fast", action="store_true",
                   help="skip the finite-web sweep")
    p.add_argument("--out", default=None, help="also write a JSON report")
    p.set_defaults(func=cmd_reproduce)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except TrigonError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2 if isinstance(exc, NumericalError) else 1


if __name__ == "__main__":
    sys.exit(main())
