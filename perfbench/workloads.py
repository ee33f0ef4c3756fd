"""The benchmark's workloads: inputs made from the seed, the timed
operations, and the checks applied to their outputs.

Every call into trigon goes through a module attribute (`network.detect_bps`,
`tba.solve`, `cli.main`, ...) at call time, so that the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

from trigon import cli, network, tba
from trigon.bps import BpsSpectrum, builtin_spectrum
from trigon.curve import Charge, PeriodMap, load_example

import checks

OMEGA_FAULT = ("tba.integral_term (so log_x) drops Omega(mu), which the sweep "
               "includes: with every Omega = 2, log_x disagrees with the "
               "stored samples")
DECAY_FAULT = ("asymptotics.decay_table computes delta as log_x - "
               "prediction.value, which cancels the driving term: the "
               "scaled_delta column breaks down to rounding for R >= 7")


@dataclass
class Example:
    defn: object
    period_map: object
    spectrum: object


def setup():
    """Everything the workloads read: the two shipped examples with their
    period maps and built-in spectra."""
    out = {}
    for name in ("pentagon", "hexagon"):
        defn = load_example(name)
        out[name] = Example(defn, PeriodMap.compute(defn.curve, defn.lattice),
                            builtin_spectrum(name))
    return out


@dataclass
class Op:
    """One operation: `run` is timed, `check(output)` returns problems.

    `fault` names the program fault that makes the operation fail today;
    an operation without one must pass its checks.
    """

    name: str
    run: object
    check: object
    fault: str = None


# ----------------------------------------------------------------------
# webscan
# ----------------------------------------------------------------------

# (example, web phase, charge, topology, scan steps, web step choices);
# the phases are the closed forms -pi/6 and pi/6 of the two webs
WEBS = [
    ("pentagon", -math.pi / 6, (-1, 0), "single_string", 7, (2, 3, 4)),
    ("hexagon", math.pi / 6, (1, 1, 0, 0), "three_string_junction", 6, (2, 3)),
]
SCAN_STEP = 0.01     # window step; detect_bps scans exactly this grid


def web_window(theta_web, steps, step_choices, rng):
    """A window of `steps` scan steps, with the web inside step j at
    fraction f of it: j from `step_choices` and f from (0.3, 0.7), both
    drawn from `rng`.

    The width fixes the number of scan points.  f keeps the web off the
    scan grid, where a grid point's trajectory would itself hit the zero,
    and is one of two mirror values because the bisection stops early
    when a midpoint lands within the hit radius: f = 0.5 halves the
    pentagon window's traces (304 against 560), so a continuous f would
    make the work depend on the seed."""
    j = rng.choice(step_choices)
    f = rng.choice((0.3, 0.7))
    lo = theta_web - (j + f) * SCAN_STEP
    return (lo, lo + steps * SCAN_STEP)


def webscan(examples, seed):
    rng = random.Random(seed)
    ops = []
    for name, theta_web, charge, topology, steps, choices in WEBS:
        ex = examples[name]
        window = web_window(theta_web, steps, choices, rng)
        closed_form = theta_web if name == "pentagon" else None

        def run(ex=ex, window=window):
            return network.detect_bps(ex.defn.curve, ex.defn.lattice, window,
                                      period_map=ex.period_map)

        def check(webs, ex=ex, charge=charge, topology=topology,
                  closed_form=closed_form):
            return checks.check_webs(webs, charge, topology, ex.period_map,
                                     closed_form)

        ops.append(Op(f"detect_bps {name} ({window[0]:.6f}, {window[1]:.6f})",
                      run, check))
    return ops


# ----------------------------------------------------------------------
# reproduce-fast
# ----------------------------------------------------------------------

ASYM_GRID = "1,2,3,4,5,6,7,8"


def _cli(argv):
    """trigon's CLI in-process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def reproduce_fast(work_dir):
    """The three commands; their inputs do not depend on the seed."""
    ops = []
    first = {}
    for name in ("pentagon", "hexagon"):
        path = os.path.join(work_dir, f"reproduce-{name}.json")

        def run(name=name, path=path):
            rc = _cli(["reproduce", name, "--fast", "--out", path])
            with open(path, "rb") as fh:
                return rc, fh.read()

        def check(out, name=name):
            rc, data = out
            first.setdefault(name, data)
            return checks.check_reproduce(name, rc, data, first[name])

        ops.append(Op(f"reproduce {name} --fast", run, check))

    path = os.path.join(work_dir, "asym-check.csv")

    def run_asym():
        rc = _cli(["asym", "check", "--example", "pentagon", "--charge", "1,0",
                   "--R-grid", ASYM_GRID, "--out", path])
        with open(path) as fh:
            return rc, fh.read()

    def check_asym(out):
        rc, text = out
        return checks.check_decay(rc, checks.decay_column(text),
                                  len(ASYM_GRID.split(",")))

    ops.append(Op(f"asym check --R-grid {ASYM_GRID}", run_asym, check_asym,
                  fault=DECAY_FAULT))
    return ops


# ----------------------------------------------------------------------
# tba-small-R
# ----------------------------------------------------------------------

HEXAGON_R = (0.05, 0.1, 0.2)
HEXAGON_THETA = 0.2
PENTAGON_R = (0.05, 0.1, 0.2, 0.3, 0.5)
X_GAMMA1 = (0.5, 0.1286, 1e-3)       # pentagon R, X_gamma1, tolerance
KERNEL_CHARGES = ((0, 0, 1, 0), (0, 0, 0, 1))
SAMPLE_RAYS, SAMPLES_PER_RAY = 6, 12


def _solve_op(name, ex, spectrum, R, theta, points, fault=None, extra=None):
    """Solve at (R, theta), then evaluate log X of every basis charge."""
    lattice = ex.defn.lattice
    basis = [lattice.basis_charge(i) for i in range(lattice.rank)]
    config = tba.SolverConfig(R=R, theta=theta)

    def run():
        sol = tba.solve(config, spectrum, ex.period_map, lattice.pairing)
        return sol, {ch.components: tba.log_x(sol, ch) for ch in basis}

    def check(out):
        sol, log_xs = out
        moved = tba.iterate_once([g.samples for g in sol.ray_grids], config,
                                 spectrum, ex.period_map, lattice.pairing)
        problems = (checks.check_fixed_point(sol, moved)
                    + checks.check_samples(sol, points(sol), tba.log_x)
                    + checks.check_reality(log_xs))
        if extra:
            problems += extra(log_xs)
        return problems

    return Op(name, run, check, fault)


def _all_points(sol):
    return [(r, k) for r, g in enumerate(sol.ray_grids) for k in range(len(g.s))]


def tba_small_r(examples, seed):
    """Hexagon solves at small R, where sweeps dominate, a pentagon ladder,
    and the pentagon with every Omega = 2.  The seed picks the hexagon
    ray sample points at which log_x is compared with the samples; the
    pentagon solves are checked at every sample."""
    rng = random.Random(seed)
    hexagon, pentagon = examples["hexagon"], examples["pentagon"]
    ops = []
    kernel = [Charge(c) for c in KERNEL_CHARGES]
    for R in HEXAGON_R:
        rays = rng.sample(range(len(hexagon.spectrum)), SAMPLE_RAYS)
        picks = [(r, k) for r in rays
                 for k in rng.sample(range(64, 193), SAMPLES_PER_RAY)]

        def kernel_check(log_xs, R=R):
            return checks.check_kernel(log_xs, kernel, HEXAGON_THETA, R,
                                       hexagon.period_map)

        ops.append(_solve_op(f"solve hexagon R={R}", hexagon, hexagon.spectrum,
                             R, HEXAGON_THETA, lambda sol, p=picks: p,
                             extra=kernel_check))
    for R in PENTAGON_R:
        extra = None
        if R == X_GAMMA1[0]:
            def extra(log_xs):
                X1 = math.exp(log_xs[(1, 0)].real)
                return checks.check_value("X_gamma1", X1, *X_GAMMA1[1:])
        ops.append(_solve_op(f"solve pentagon R={R}", pentagon,
                             pentagon.spectrum, R, 0.0, _all_points,
                             extra=extra))
    doubled = BpsSpectrum({ch: 2 for ch in pentagon.spectrum.charges()})
    ops.append(_solve_op("solve pentagon R=0.5, every Omega = 2", pentagon,
                         doubled, 0.5, 0.0, _all_points, fault=OMEGA_FAULT))
    return ops


def make_ops(workload, examples, seed, work_dir):
    if workload == "webscan":
        return webscan(examples, seed)
    if workload == "reproduce-fast":
        return reproduce_fast(work_dir)
    if workload == "tba-small-R":
        return tba_small_r(examples, seed)
    raise KeyError(workload)


# rounds a run makes at least: reproduce-fast compares each round's
# reports with the first round's
MIN_ROUNDS = {"webscan": 1, "reproduce-fast": 2, "tba-small-R": 1}
