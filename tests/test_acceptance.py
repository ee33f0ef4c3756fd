"""Acceptance criteria for the full pipeline, one test per criterion.

Each test prints one [PASS]/[FAIL] line (visible with -s or on failure).
All ten criteria are expected to pass.  For criterion 8 on the hexagon,
the published c = 0.1961 is the contribution of one charge pair,
+-(gamma1-gamma2-gamma3-gamma4).  A second pair, +-(gamma2+gamma3+gamma4),
ties with it at the minimal rate exactly, by the Z/3 sheet rotation.  The
test checks 0.1961 against its own pair and the summed coefficient
(0.4441) against the solver; see the README section "Acceptance status".
"""

import cmath
import math
import time
import warnings

import numpy as np
import pytest

from trigon.asymptotics import (build_prediction, decay_table,
                                linear_coefficient, solver_coefficient)
from trigon.bps import builtin_spectrum, spectrum_from_webs
from trigon.curve import Charge, PeriodMap, cube_roots
from trigon.errors import WebEventDropped
from trigon.network import detect_bps, grow_network
from trigon.polygon import ProjectivePolygon, builtin_expression, cross_ratio
from trigon.reference import HEXAGON, pentagon_closed_form
from trigon.tba import SolverConfig, log_x, solve, spectral_coordinate


def _criterion(n, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n} ({name}): {detail}")
    return ok


# ---------------- shared heavy computations ----------------

def _sweep(defn, pm, theta_range):
    """detect_bps over a full sweep: (webs, seconds, dropped-event warnings)."""
    t0 = time.time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", WebEventDropped)
        webs = detect_bps(defn.curve, defn.lattice, theta_range, period_map=pm)
    dropped = [w for w in caught if issubclass(w.category, WebEventDropped)]
    return webs, time.time() - t0, dropped


@pytest.fixture(scope="module")
def pentagon_sweep(pentagon, pentagon_pm):
    return _sweep(pentagon, pentagon_pm, (-math.pi, math.pi))


@pytest.fixture(scope="module")
def hexagon_sweep(hexagon, hexagon_pm):
    return _sweep(hexagon, hexagon_pm, (0.0, 2 * math.pi))


@pytest.fixture(scope="module")
def pentagon_solution(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    return solve(SolverConfig(R=0.5, theta=0.0), spec, pentagon_pm,
                 pentagon.lattice.pairing)


# ---------------- criteria ----------------

def test_criterion_1_pentagon_periods(pentagon):
    t0 = time.time()
    pm = PeriodMap.compute(pentagon.curve, pentagon.lattice)
    dt = time.time() - t0
    refs = [-2.00324 + 1.15657j, -2.31315j]
    errs = [abs(pm.Z(pentagon.lattice.basis_charge(i)) - refs[i])
            for i in range(2)]
    cf_err = abs(pm.Z(Charge((1, 0))) - pentagon_closed_form())
    ok = max(errs) <= 5e-5 and cf_err <= 1e-6 and dt < 1.0
    assert _criterion(1, "pentagon periods", ok,
                      f"|dZ| = {max(errs):.2e} (tol 5e-5), closed form "
                      f"{cf_err:.2e} (tol 1e-6), {dt:.3f}s (< 1s)")


def test_criterion_2_hexagon_periods(hexagon):
    t0 = time.time()
    pm = PeriodMap.compute(hexagon.curve, hexagon.lattice)
    dt = time.time() - t0
    refs = [2.30298, 5.47033 + 4.48792j, -4.31884 + 2.49348j, -4.98697j]
    errs = [abs(pm.Z(hexagon.lattice.basis_charge(i)) - refs[i])
            for i in range(4)]
    ok = max(errs) <= 5e-5 and dt < 1.0
    assert _criterion(2, "hexagon periods", ok,
                      f"max |dZ| = {max(errs):.2e} (tol 5e-5), {dt:.3f}s (< 1s)")


def test_criterion_3_network_census(pentagon, hexagon):
    t0 = time.time()
    pn = grow_network(pentagon.curve, 0.0)
    t_p = time.time() - t0
    t0 = time.time()
    hn = grow_network(hexagon.curve, 0.1)
    t_h = time.time() - t0
    ok = (len(pn.trajectories) == 18 and pn.n_born == 2
          and len(pn.infinity_marks) == 10
          and len(hn.trajectories) == 31 and hn.n_born == 7
          and len(hn.infinity_marks) == 12
          and t_p < 30.0 and t_h < 30.0)
    assert _criterion(3, "network census", ok,
                      f"pentagon {len(pn.trajectories)}/{pn.n_born} born/"
                      f"{len(pn.infinity_marks)} dirs in {t_p:.2f}s; hexagon "
                      f"{len(hn.trajectories)}/{hn.n_born} born/"
                      f"{len(hn.infinity_marks)} dirs in {t_h:.2f}s")


def _web_phases_match_periods(webs, pm):
    worst = 0.0
    for w in webs:
        arg = cmath.phase(pm.Z(w.charge))
        worst = max(worst, abs((arg - w.theta_star + math.pi) % (2 * math.pi)
                               - math.pi))
    return worst


def test_criterion_4_pentagon_bps(pentagon_sweep, pentagon_pm):
    webs, dt, _ = pentagon_sweep
    phases = sorted(w.theta_star for w in webs)
    want = [-5 * math.pi / 6, -math.pi / 2, -math.pi / 6,
            math.pi / 6, math.pi / 2, 5 * math.pi / 6]
    phase_ok = (len(phases) == 6
                and max(abs(p - q) for p, q in zip(phases, want)) <= 1e-3)
    harvested = spectrum_from_webs(webs, rank=2)
    builtin = builtin_spectrum("pentagon")
    charge_ok = (set(harvested.charges()) == set(builtin.charges())
                 and all(harvested.omega(c) == 1 for c in harvested.charges()))
    arg_err = _web_phases_match_periods(webs, pentagon_pm)
    ok = phase_ok and charge_ok and arg_err <= 1e-3 and dt < 300.0
    assert _criterion(4, "pentagon BPS sweep", ok,
                      f"phases {[round(p, 6) for p in phases]}, "
                      f"{len(harvested)} charges, arg match {arg_err:.1e}, "
                      f"{dt:.0f}s (< 300s)")


def test_criterion_5_hexagon_bps(hexagon_sweep, hexagon_pm):
    webs, dt, _ = hexagon_sweep
    harvested = spectrum_from_webs(webs, rank=4)
    builtin = builtin_spectrum("hexagon")
    set_ok = set(harvested.charges()) == set(builtin.charges())
    junctions = [w for w in webs if w.topology == "three_string_junction"]
    near = [w for w in webs if abs(w.theta_star - 0.36) < 0.05]
    web_ok = len(near) == 1 and near[0].charge.components == (1, 0, -1, -1)
    arg_err = _web_phases_match_periods(webs, hexagon_pm)
    ok = (set_ok and len(junctions) == 6 and web_ok and arg_err <= 1e-3
          and dt < 900.0)
    assert _criterion(5, "hexagon BPS sweep", ok,
                      f"{len(webs)} webs / {len(junctions)} junctions, "
                      f"24 charges match: {set_ok}, theta=0.36 web "
                      f"{near[0].charge if near else None}, arg match "
                      f"{arg_err:.1e}, {dt:.0f}s (< 900s)")


@pytest.mark.parametrize("sweep, pm", [("pentagon_sweep", "pentagon_pm"),
                                      ("hexagon_sweep", "hexagon_pm")])
def test_sweep_webs_sit_at_arg_z(sweep, pm, request):
    # a web of charge gamma exists only at theta = arg Z(gamma), and a
    # single string's period is Z(gamma) itself
    webs, _, dropped = request.getfixturevalue(sweep)
    pm = request.getfixturevalue(pm)
    assert dropped == []
    assert _web_phases_match_periods(webs, pm) < 1e-12
    for w in webs:
        if w.topology == "single_string":
            Z = pm.Z(w.charge)
            assert abs(w.period - Z) < 1e-10 * abs(Z)


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_sweep_web_periods_meet_z_and_children_reach_their_zeros(name,
                                                                 request):
    # every web's period, junction webs' included, is Z(gamma) to 1e-10,
    # and every junction child, born on the parents' Hermite segments,
    # ends within 1e-4 of its zero
    webs, _, dropped = request.getfixturevalue(f"{name}_sweep")
    pm = request.getfixturevalue(f"{name}_pm")
    zeros = request.getfixturevalue(name).curve.ramification_points
    assert dropped == [] and webs
    for w in webs:
        Z = pm.Z(w.charge)
        assert abs(w.period - Z) < 1e-10 * abs(Z)
        if w.topology == "three_string_junction":
            assert abs(w.segments[-1][-1] - zeros[w.zeros[-1]]) < 1e-4


def test_criterion_6_tba_spot_value(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    t0 = time.time()
    sol = solve(SolverConfig(R=0.5, theta=0.0), spec, pentagon_pm,
                pentagon.lattice.pairing)
    X = spectral_coordinate(sol, Charge((1, 0))).real
    dt = time.time() - t0
    ok = abs(X - 0.1286) <= 1e-3 and dt < 10.0
    assert _criterion(6, "TBA spot value", ok,
                      f"X_gamma1(R=0.5) = {X:.6f} (want 0.1286 +- 1e-3), "
                      f"{dt:.2f}s (< 10s)")


def test_criterion_7_kernel_exactness(hexagon, hexagon_pm):
    spec = builtin_spectrum("hexagon")
    worst = 0.0
    for R in (0.5, 1.0, 2.0):
        sol = solve(SolverConfig(R=R, theta=0.2), spec, hexagon_pm,
                    hexagon.lattice.pairing)
        for comps in ((0, 0, 1, 0), (0, 0, 0, 1)):
            g = Charge(comps)
            X = spectral_coordinate(sol, g).real
            exact = math.exp(linear_coefficient(g, 0.2, hexagon_pm) * R)
            worst = max(worst, abs(X - exact) / exact)
    a3 = linear_coefficient(Charge((0, 0, 1, 0)), 0.2, hexagon_pm)
    ok = worst <= 1e-12 and abs(a3 - (-7.4748)) <= 5e-4
    assert _criterion(7, "kernel exactness", ok,
                      f"max rel deviation {worst:.2e} (tol 1e-12), "
                      f"a_gamma3 = {a3:.5f} (want -7.4748 +- 5e-4)")


def test_criterion_8_pentagon_asymptotic_constants(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    a = linear_coefficient(Charge((1, 0)), 0.0, pentagon_pm)
    pred = build_prediction(Charge((1, 0)), 0.0, spec, pentagon_pm,
                            pentagon.lattice.pairing)
    ok = abs(a - (-4.00648)) <= 5e-5 and abs(pred.rho - 2.31315) <= 5e-5
    assert _criterion(8, "pentagon asymptotic constants", ok,
                      f"a = {a:.6f} (want -4.00648), rho = {pred.rho:.6f} "
                      f"(want 2.31315), both +- 5e-5")


def test_criterion_8_hexagon_asymptotic_constants(hexagon, hexagon_pm):
    # The published c = 0.1961 is the contribution of the charge pair
    # +-(gamma1-gamma2-gamma3-gamma4) alone.  A second pair ties with it at
    # the minimal rate exactly, and the leading coefficient sums both; that
    # sum is what the solver produces.  See the README, "Acceptance status".
    ref = HEXAGON
    theta, tol = ref["asym_theta"], ref["asym_tol"]
    spec = builtin_spectrum("hexagon")
    pair = hexagon.lattice.pairing
    g1 = Charge((1, 0, 0, 0))
    a = linear_coefficient(g1, theta, hexagon_pm)
    pred = build_prediction(g1, theta, spec, hexagon_pm, pair)
    a_ok = abs(a - ref["a_gamma1"]) <= tol
    rho_ok = abs(pred.rho - ref["rho_gamma1"]) <= tol

    # x -> omega x multiplies a period by omega, so the two Z/3 images of
    # gamma1 and their negatives have |Z| = |Z1| exactly, not just within
    # asymptotics.RATE_TOL
    z1 = hexagon_pm.Z(g1)
    omega = cmath.exp(2j * math.pi / 3)
    images = [Charge(m) for m in ref["gamma1_z3_images"]]
    tie = max(abs(hexagon_pm.Z(m) - omega ** k * z1)
              for k, m in enumerate(images, start=1))
    tied = {c.components for m in images for c in (m, -m)}
    published = Charge(ref["c_gamma1_charge"])
    tie_ok = tie <= ref["z3_tie_tol"] and published.components in tied

    coeff = {mu.components: c.real for mu, c, _ in pred.corrections}
    c_pair = coeff[published.components] + coeff[(-published).components]
    c_tied = sum(coeff[m] for m in tied)
    pair_ok = abs(c_pair - ref["c_gamma1"]) <= tol
    sum_ok = abs(pred.leading_coefficient - c_tied) <= 1e-12

    sols = [solve(SolverConfig(R=R, theta=theta), spec, hexagon_pm, pair)
            for R in ref["solver_R_values"]]
    c_solver, _ = solver_coefficient(sols, pred)
    solver_ok = (abs(c_solver - pred.leading_coefficient)
                 <= ref["solver_c_rel_tol"] * abs(pred.leading_coefficient))

    _criterion(8, "hexagon asymptotic constants",
               a_ok and rho_ok and tie_ok and pair_ok and solver_ok and sum_ok,
               f"a = {a:.5f} (want {ref['a_gamma1']} ok={a_ok}), "
               f"rho = {pred.rho:.5f} (want {ref['rho_gamma1']} ok={rho_ok}), "
               f"Z/3 tie {tie:.1e} ok={tie_ok}, pair {published} c = "
               f"{c_pair:.5f} (want {ref['c_gamma1']} ok={pair_ok}), "
               f"summed c = {pred.leading_coefficient:.5f} = tied entries "
               f"{c_tied:.5f} ok={sum_ok}, solver c = {c_solver:.5f} "
               f"ok={solver_ok}")
    assert a_ok and rho_ok
    assert tie_ok, f"Z/3 images of gamma1 miss omega^k Z1 by {tie:.2e}"
    assert pair_ok, (f"pair {published} contributes {c_pair:.5f}, "
                     f"published {ref['c_gamma1']}")
    assert solver_ok, (f"solver extrapolates to {c_solver:.5f}, prediction "
                       f"{pred.leading_coefficient:.5f}")
    assert sum_ok, (f"leading coefficient {pred.leading_coefficient:.5f} is "
                    f"not the sum {c_tied:.5f} over the tied charges")


def test_criterion_9_remainder_decay(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    pred = build_prediction(Charge((1, 0)), 0.0, spec, pentagon_pm, pair)
    t0 = time.time()
    sols = [solve(SolverConfig(R=R, theta=0.0), spec, pentagon_pm, pair)
            for R in (1.0, 1.5, 2.0, 2.5, 3.0)]
    rows = decay_table(sols, pred)
    dt = time.time() - t0
    scaled = [r[4] for r in rows]
    ok = all(a > b for a, b in zip(scaled, scaled[1:])) and dt < 120.0
    assert _criterion(9, "remainder decay", ok,
                      f"|delta| sqrt(R) e^(2 rho R) = "
                      f"{[round(s, 5) for s in scaled]} strictly decreasing, "
                      f"{dt:.1f}s (< 120s)")


def test_criterion_10_property_suites(pentagon, hexagon, pentagon_pm,
                                      hexagon_pm, pentagon_solution):
    rng = np.random.default_rng(42)
    checks = []

    # multiplicativity and reality of the solved coordinates
    worst_mult = 0.0
    worst_imag = 0.0
    for _ in range(8):
        m, n = rng.integers(-3, 4, size=(2, 2))
        la = log_x(pentagon_solution, Charge(m))
        lb = log_x(pentagon_solution, Charge(n))
        lab = log_x(pentagon_solution, Charge(m + n))
        worst_mult = max(worst_mult,
                         abs(lab - la - lb) / max(1.0, abs(lab)))
        worst_imag = max(worst_imag, abs(la.imag))
    checks.append(("multiplicativity", worst_mult <= 1e-9,
                   f"{worst_mult:.2e}"))
    checks.append(("reality", worst_imag <= 1e-9, f"{worst_imag:.2e}"))

    # grid refinement stability
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    x_fine = spectral_coordinate(
        solve(SolverConfig(R=0.5, theta=0.0, N=513), spec, pentagon_pm, pair),
        Charge((1, 0))).real
    x_base = spectral_coordinate(pentagon_solution, Charge((1, 0))).real
    checks.append(("grid refinement",
                   abs(x_fine - x_base) <= 1e-8 * abs(x_base),
                   f"{abs(x_fine - x_base) / abs(x_base):.2e}"))

    # period linearity
    worst = 0.0
    for _ in range(8):
        m, n = rng.integers(-5, 6, size=(2, 2))
        zab = pentagon_pm.Z(Charge(m + n))
        worst = max(worst, abs(zab - pentagon_pm.Z(Charge(m))
                               - pentagon_pm.Z(Charge(n)))
                    / max(1.0, abs(zab)))
    checks.append(("period linearity", worst <= 1e-9, f"{worst:.2e}"))

    # monodromy order 3
    wps = [1.0 + 0.4 * cmath.exp(2j * cmath.pi * 3 * k / 72)
           for k in range(73)]
    x0 = cube_roots(-pentagon.curve.polynomial(wps[0]))[0]
    x3 = pentagon.curve.continue_sheet(np.array([wps]), [x0])[0, -1]
    checks.append(("monodromy order 3", abs(x3 - x0) <= 1e-8,
                   f"{abs(x3 - x0):.2e}"))

    # polygon invariances
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=6))
    poly = ProjectivePolygon(
        [[np.cos(a), np.sin(a), 1.0] for a in angles])
    expr = builtin_expression("hexagon", "gamma1")
    ref = cross_ratio(poly, expr)
    worst = 0.0
    for _ in range(5):
        M = rng.normal(size=(3, 3))
        M /= np.cbrt(np.linalg.det(M))
        moved = ProjectivePolygon(poly.vertices @ M.T)
        worst = max(worst, abs(cross_ratio(moved, expr) - ref) / abs(ref))
        scales = rng.uniform(0.2, 5.0, size=6)
        scaled = ProjectivePolygon(poly.vertices * scales[:, None])
        worst = max(worst, abs(cross_ratio(scaled, expr) - ref) / abs(ref))
    checks.append(("polygon invariance", worst <= 1e-10, f"{worst:.2e}"))

    # spectrum symmetry: BpsSpectrum refuses an asymmetric spectrum, so
    # the built-in ones are symmetric once they construct
    ok_omega = all(spec.omega(-ch) == spec.omega(ch)
                   for spec in map(builtin_spectrum, ("pentagon", "hexagon"))
                   for ch in spec.charges())
    checks.append(("omega symmetry", ok_omega, str(ok_omega)))

    all_ok = all(ok for _, ok, _ in checks)
    detail = "; ".join(f"{name} {msg} {'ok' if ok else 'FAIL'}"
                       for name, ok, msg in checks)
    assert _criterion(10, "property suites", all_ok, detail)
