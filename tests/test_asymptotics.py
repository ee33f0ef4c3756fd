import cmath
import math

import numpy as np
import pytest

from trigon.asymptotics import (
    build_prediction,
    decay_table,
    linear_coefficient,
    remainder,
    solver_coefficient,
)
from trigon.bps import BpsSpectrum, builtin_spectrum
from trigon.curve import Charge
from trigon.errors import NumericOverflow, OnRayEvaluation, ValidationError
from trigon.tba import RAY_MARGIN, SolverConfig, log_x, solve


def test_pentagon_linear_coefficient(pentagon_pm):
    a = linear_coefficient(Charge((1, 0)), 0.0, pentagon_pm)
    assert abs(a - (-4.00648)) < 5e-5


def test_hexagon_linear_coefficients(hexagon_pm):
    a3 = linear_coefficient(Charge((0, 0, 1, 0)), 0.2, hexagon_pm)
    assert abs(a3 - (-7.4748)) < 5e-4
    a1 = linear_coefficient(Charge((1, 0, 0, 0)), 0.2, hexagon_pm)
    assert abs(a1 - 4.5142) < 5e-4


def test_linear_coefficient_additive(pentagon_pm):
    rng = np.random.default_rng(3)
    for _ in range(10):
        m, n = rng.integers(-4, 5, size=(2, 2))
        th = rng.uniform(0, 2 * math.pi)
        am = linear_coefficient(Charge(m), th, pentagon_pm)
        an = linear_coefficient(Charge(n), th, pentagon_pm)
        amn = linear_coefficient(Charge(m + n), th, pentagon_pm)
        assert abs(amn - (am + an)) < 1e-12 * max(1.0, abs(amn))


def test_pentagon_prediction(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    pred = build_prediction(Charge((1, 0)), 0.0, spec, pentagon_pm,
                            pentagon.lattice.pairing)
    assert abs(pred.rho - 2.31315) < 5e-5
    want = -3.0 / (2.0 * math.sqrt(math.pi * pred.rho))
    assert abs(pred.leading_coefficient - want) < 1e-9
    # all four contributing charges sit at the common minimal rate
    assert len(pred.corrections) == 4
    rates = {round(r, 9) for _, _, r in pred.corrections}
    assert len(rates) == 1


def test_kernel_charge_prediction_is_exact(hexagon, hexagon_pm):
    spec = builtin_spectrum("hexagon")
    pred = build_prediction(Charge((0, 0, 1, 0)), 0.2, spec, hexagon_pm,
                            hexagon.lattice.pairing)
    assert pred.exact
    assert pred.rho is None
    assert pred.correction_sum(2.0) == 0.0
    a = linear_coefficient(Charge((0, 0, 1, 0)), 0.2, hexagon_pm)
    assert pred.value(2.0) == pytest.approx(2.0 * a, rel=1e-15)


def test_rate_groups_sum_real(pentagon, hexagon, pentagon_pm, hexagon_pm):
    # on |zeta| = 1, (alpha + zeta) / (alpha - zeta) is i times a real
    # cotangent, so every c_mu is real by itself, and so is every group
    for defn, pm, gamma, theta in [(pentagon, pentagon_pm, (1, 0), 0.0),
                                   (hexagon, hexagon_pm, (1, 0, 0, 0), 0.2),
                                   (hexagon, hexagon_pm, (0, 1, 0, 0), 1.3)]:
        pred = build_prediction(Charge(gamma), theta,
                                builtin_spectrum(defn.name), pm,
                                defn.lattice.pairing)
        assert pred.corrections
        for _, c, _ in pred.corrections:
            assert abs(c.imag) <= 1e-15 * abs(c)


def test_rho_increases_without_leading_charges(hexagon, hexagon_pm):
    full = builtin_spectrum("hexagon")
    pred = build_prediction(Charge((1, 0, 0, 0)), 0.2, full, hexagon_pm,
                            hexagon.lattice.pairing)
    lead = {mu.components for mu, _, rate in pred.corrections
            if rate <= 2 * pred.rho + 1e-6}
    rest = {ch: 1 for ch in full.charges() if ch.components not in lead}
    reduced = BpsSpectrum(rest)
    pred2 = build_prediction(Charge((1, 0, 0, 0)), 0.2, reduced, hexagon_pm,
                             hexagon.lattice.pairing)
    assert pred2.rho > pred.rho + 1.0


def test_on_ray_theta(hexagon, hexagon_pm):
    spec = builtin_spectrum("hexagon")
    mu = Charge((0, 1, 0, 0))
    theta = cmath.phase(-hexagon_pm.Z(mu) / abs(hexagon_pm.Z(mu)))
    with pytest.raises(OnRayEvaluation):
        build_prediction(Charge((1, 0, 0, 0)), theta, spec, hexagon_pm,
                         hexagon.lattice.pairing)


@pytest.mark.parametrize("name, gamma, mu", [
    ("pentagon", (1, 0), (-1, -1)),
    ("hexagon", (1, 0, 0, 0), (0, 1, 0, 0))])
def test_log_x_and_prediction_share_the_on_ray_rule(name, gamma, mu,
                                                    request):
    # both refuse a phase within RAY_MARGIN of the coupled ray of mu, with
    # the same error, and both accept one just past it, on either side
    defn = request.getfixturevalue(name)
    pm = request.getfixturevalue(name + "_pm")
    spec = builtin_spectrum(name)
    pairing = defn.lattice.pairing
    gamma, mu = Charge(gamma), Charge(mu)
    assert pairing(gamma, mu) != 0
    sol = solve(SolverConfig(R=1.0), spec, pm, pairing)
    ray = cmath.phase(-pm.Z(mu))
    for offset in (0.0, 5e-7, 9.9e-7, 1.01e-6, 2e-6):
        for theta in (ray - offset, ray + offset):
            if offset < RAY_MARGIN:
                with pytest.raises(OnRayEvaluation):
                    log_x(sol, gamma, cmath.exp(1j * theta))
                with pytest.raises(OnRayEvaluation):
                    build_prediction(gamma, theta, spec, pm, pairing)
            else:
                assert math.isfinite(
                    log_x(sol, gamma, cmath.exp(1j * theta)).real)
                assert not build_prediction(gamma, theta, spec, pm,
                                            pairing).exact


def test_remainder_zero_for_kernel_charge(hexagon, hexagon_pm):
    spec = builtin_spectrum("hexagon")
    sol = solve(SolverConfig(R=1.5, theta=0.2), spec, hexagon_pm,
                hexagon.lattice.pairing)
    pred = build_prediction(Charge((0, 0, 1, 0)), 0.2, spec, hexagon_pm,
                            hexagon.lattice.pairing)
    assert abs(remainder(sol, pred)) < 1e-12


def test_remainder_subdominant_at_R3(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    pred = build_prediction(Charge((1, 0)), 0.0, spec, pentagon_pm, pair)
    sol = solve(SolverConfig(R=3.0, theta=0.0), spec, pentagon_pm, pair)
    delta = remainder(sol, pred)
    assert abs(delta) < abs(pred.correction_sum(3.0))


def test_remainder_guards(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    pred = build_prediction(Charge((1, 0)), 0.0, spec, pentagon_pm, pair)
    sol = solve(SolverConfig(R=1.0, theta=0.0), spec, pentagon_pm, pair)
    pred_other = build_prediction(Charge((1, 0)), 0.3, spec, pentagon_pm, pair)
    with pytest.raises(ValidationError):
        remainder(sol, pred_other)


def test_decay_table_shape(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    pred = build_prediction(Charge((1, 0)), 0.0, spec, pentagon_pm, pair)
    sols = [solve(SolverConfig(R=R, theta=0.0), spec, pentagon_pm, pair)
            for R in (1.0, 2.0)]
    rows = decay_table(sols, pred)
    assert [r[0] for r in rows] == [1.0, 2.0]
    assert rows[0][4] > rows[1][4] > 0


def test_solver_coefficient_pentagon(pentagon, pentagon_pm):
    # the rescaled integral term tends to the saddle-point coefficient
    # -3 / (2 sqrt(pi rho)) as R grows
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    pred = build_prediction(Charge((1, 0)), 0.0, spec, pentagon_pm, pair)
    sols = [solve(SolverConfig(R=R, theta=0.0), spec, pentagon_pm, pair)
            for R in (40.0, 10.0, 30.0, 20.0)]
    c, points = solver_coefficient(sols, pred)
    assert [R for R, _ in points] == [10.0, 20.0, 30.0, 40.0]
    lead = pred.leading_coefficient
    assert abs(c - lead) <= 1e-3 * abs(lead)
    # the finite-R values are still visibly off: the fit is doing work
    assert all(abs(v - lead) > 1e-2 * abs(lead) for _, v in points)
    # Neville's rule reads off the polynomial that interpolates the
    # points, the one a least-squares fit of full degree finds
    fit = np.polyfit([1.0 / R for R, _ in points], [v for _, v in points],
                     len(points) - 1)
    assert abs(c - np.polyval(fit, 0.0)) <= 1e-12 * abs(lead)


def test_solver_coefficient_past_the_double_range(pentagon, pentagon_pm):
    # exp(2 rho R) overflows at R = 160, where rho = 2.313
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    pred = build_prediction(Charge((1, 0)), 0.0, spec, pentagon_pm, pair)
    sols = [solve(SolverConfig(R=R, theta=0.0), spec, pentagon_pm, pair)
            for R in (100.0, 160.0)]
    with pytest.raises(NumericOverflow, match="R = 160"):
        solver_coefficient(sols, pred)


def test_solver_coefficient_guards(pentagon, pentagon_pm, hexagon,
                                   hexagon_pm):
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    pred = build_prediction(Charge((1, 0)), 0.0, spec, pentagon_pm, pair)
    sol = solve(SolverConfig(R=2.0, theta=0.0), spec, pentagon_pm, pair)
    with pytest.raises(ValidationError):
        solver_coefficient([sol], pred)
    with pytest.raises(ValidationError):
        solver_coefficient([sol, sol], pred)
    other = solve(SolverConfig(R=3.0, theta=0.3), spec, pentagon_pm, pair)
    with pytest.raises(ValidationError):
        solver_coefficient([sol, other], pred)
    exact = build_prediction(Charge((0, 0, 1, 0)), 0.2,
                             builtin_spectrum("hexagon"), hexagon_pm,
                             hexagon.lattice.pairing)
    with pytest.raises(ValidationError):
        solver_coefficient([sol, other], exact)
