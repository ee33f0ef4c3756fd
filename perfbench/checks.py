"""Correctness checks on the outputs of the benchmarked operations.

Each check takes an operation's output plus what is known about the input
independently of the code under test (the period map from contour
quadrature, closed forms, properties the method must have) and returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import numpy as np

# the checks `trigon reproduce <example> --fast` must report, in order
REPRODUCE_CHECKS = {
    "pentagon": [
        "periods vs targets",
        "base period vs closed form",
        "network census (theta=0)",
        "X_gamma1 at R=0.5",
        "X_gamma2 reflection symmetry",
        "asymptotic constants (a, rho)",
        "leading coefficient vs -3/(2 sqrt(pi rho))",
    ],
    "hexagon": [
        "periods vs targets",
        "network census (theta=0.1)",
        "kernel charges exactly exponential",
        "a_gamma3 at theta=0.2",
        "asymptotic constants (a, rho)",
        "published c vs pair +-(1,-1,-1,-1)",
        "summed leading coefficient vs solver",
    ],
}

THETA_TOL = 1e-3         # web phase against arg Z and the closed form
PERIOD_REL_TOL = 1e-4    # web chain integral against the contour period
FIXED_POINT_TOL = 1e-9   # one more sweep from the converged samples
SAMPLES_TOL = 1e-9       # log(1 + X) through log_x against stored samples
REALITY_TOL = 1e-9       # |Im log X| for the basis charges
KERNEL_REL_TOL = 1e-12   # kernel charges against exp(a R)


def _wrap(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


def check_webs(webs, charge, topology, period_map, closed_form_theta=None):
    """One web of the expected charge and topology, at the phase and with
    the period that the contour-quadrature period map gives."""
    if len(webs) != 1:
        return [f"{len(webs)} webs returned, expected exactly 1: "
                f"{[w.charge.components for w in webs]}"]
    web = webs[0]
    problems = []
    if web.charge.components != tuple(charge):
        problems.append(f"charge {web.charge.components}, expected {tuple(charge)}")
        return problems
    if web.topology != topology:
        problems.append(f"topology {web.topology!r}, expected {topology!r}")
    Z = period_map.Z(web.charge)
    gap = abs(_wrap(web.theta_star - cmath.phase(Z)))
    if gap > THETA_TOL:
        problems.append(f"theta* {web.theta_star:.8f} is {gap:.2e} from arg Z")
    if closed_form_theta is not None:
        gap = abs(_wrap(web.theta_star - closed_form_theta))
        if gap > THETA_TOL:
            problems.append(f"theta* {web.theta_star:.8f} is {gap:.2e} from "
                            f"the closed form {closed_form_theta:.8f}")
    rel = abs(web.period - Z) / abs(Z)
    if rel > PERIOD_REL_TOL:
        problems.append(f"web period is {rel:.2e} relative from Z(charge)")
    return problems


def check_reproduce(example, rc, report_bytes, first_bytes=None):
    """`reproduce --fast` exited 0, its report is ok, names exactly the
    expected checks, and matches the first round's report byte for byte."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        doc = json.loads(report_bytes)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if doc.get("ok") is not True:
        failed = [c["name"] for c in doc.get("checks", []) if not c["ok"]]
        problems.append(f"report not ok; failed checks {failed}")
    names = [c["name"] for c in doc.get("checks", [])]
    if names != REPRODUCE_CHECKS[example]:
        problems.append(f"report checks {names}, expected "
                        f"{REPRODUCE_CHECKS[example]}")
    if first_bytes is not None and report_bytes != first_bytes:
        problems.append("report differs from the first round's report")
    return problems


def decay_column(csv_text):
    """The scaled_delta column of an `asym check` CSV table."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    return [float(r["scaled_delta"]) for r in rows]


def check_decay(rc, column, n_rows):
    """`asym check` exited 0 and its rescaled remainder is positive and
    strictly decreasing along the R grid."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if len(column) != n_rows:
        problems.append(f"{len(column)} rows, expected {n_rows}")
    bad = [i for i, v in enumerate(column) if not v > 0.0]
    if bad:
        problems.append(f"scaled_delta not positive at rows {bad}: {column}")
    rises = [i for i in range(1, len(column)) if not column[i] < column[i - 1]]
    if rises:
        problems.append(f"scaled_delta not strictly decreasing at rows "
                        f"{rises}: {column}")
    return problems


def check_fixed_point(solution, moved):
    """One sweep from the converged samples moves them by at most
    FIXED_POINT_TOL; `moved` is that sweep's output."""
    worst = max(float(np.max(np.abs(m - g.samples)))
                for m, g in zip(moved, solution.ray_grids))
    if worst > FIXED_POINT_TOL:
        return [f"one more sweep moves the samples by {worst:.2e}"]
    return []


def check_samples(solution, points, log_x):
    """log(1 + X_mu) from log_x at ray sample points equals the stored
    samples.  `points` holds (ray index, sample index) pairs."""
    worst = 0.0
    for r, k in points:
        g = solution.ray_grids[r]
        zeta = g.alpha * math.exp(g.s[k])
        value = cmath.log(1.0 + cmath.exp(log_x(solution, g.charge, zeta)))
        worst = max(worst, abs(value - g.samples[k]))
    if worst > SAMPLES_TOL:
        return [f"log(1 + X) through log_x misses the stored samples by "
                f"{worst:.2e} at {len(points)} points"]
    return []


def check_reality(log_xs):
    """|Im log X_gamma| stays below REALITY_TOL; `log_xs` maps charges to
    log X at zeta = exp(i theta)."""
    worst = max(abs(v.imag) for v in log_xs.values())
    if worst > REALITY_TOL:
        return [f"|Im log X| reaches {worst:.2e} on the basis charges"]
    return []


def check_kernel(log_xs, charges, theta, R, period_map):
    """Charges in the kernel of the pairing give exactly exp(a R), with
    a = 2 Re(exp(-i theta) Z)."""
    problems = []
    for ch in charges:
        exact = math.exp(2.0 * (cmath.exp(-1j * theta) * period_map.Z(ch)).real * R)
        rel = abs(cmath.exp(log_xs[ch.components]) - exact) / exact
        if rel > KERNEL_REL_TOL:
            problems.append(f"kernel charge {ch.components} is {rel:.2e} "
                            f"relative from exp(aR)")
    return problems


def check_value(name, value, target, tol):
    if not abs(value - target) <= tol:
        return [f"{name} = {value:.6f}, expected {target} +- {tol}"]
    return []
