import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from trigon.bps import BpsSpectrum, builtin_spectrum
from trigon.curve import Charge
from trigon.errors import (
    NoConvergence,
    NumericOverflow,
    OnRayEvaluation,
    ValidationError,
)
from trigon.tba import (
    SolverConfig,
    _kernel_transforms,
    _log1p,
    _trapezoid_weights,
    _Workspace,
    integral_term,
    iterate_once,
    log_x,
    semiflat,
    solve,
    spectral_coordinate,
)


@pytest.fixture(scope="module")
def pentagon_solution(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    return solve(SolverConfig(R=0.5, theta=0.0), spec, pentagon_pm,
                 pentagon.lattice.pairing)


# ---------------- semiflat ----------------

def test_semiflat_on_own_ray(pentagon_pm):
    Z = pentagon_pm.Z(Charge((1, 0)))
    alpha = -Z / abs(Z)
    R = 0.8
    for s in (-1.0, 0.0, 0.7, 2.0):
        got = semiflat(Z, alpha * math.exp(s), R)
        want = math.exp(-2 * R * abs(Z) * math.cosh(s))
        assert abs(got - want) < 1e-14 * want


def test_semiflat_modulus_on_unit_circle(pentagon_pm):
    Z = pentagon_pm.Z(Charge((1, 0)))
    R = 1.3
    for theta in (0.0, 0.4, 2.0):
        a = 2 * (cmath.exp(-1j * theta) * Z).real
        got = semiflat(Z, cmath.exp(1j * theta), R)
        assert abs(abs(got) - math.exp(a * R)) < 1e-12 * math.exp(a * R)


def test_semiflat_overflow():
    with pytest.raises(NumericOverflow):
        semiflat(800.0 + 0j, 1.0 + 0j, 1.0)
    with pytest.raises(ValidationError):
        semiflat(1.0 + 0j, 0j, 1.0)


def test_log1p_small_arguments():
    # numpy's complex log1p returns 0 below |z| ~ 1e-16
    z = np.array([1e-20, 1e-13 + 1e-14j, -1e-18j, 2e-9 - 3e-9j])
    want = z - z ** 2 / 2 + z ** 3 / 3
    assert np.all(np.abs(_log1p(z) - want) <= 1e-15 * np.abs(want))
    w = np.array([0.3 - 0.2j, -0.4 + 0.1j, 5.0 + 1.0j, -0.9 + 0j])
    assert np.allclose(_log1p(w), np.log(1 + w), rtol=1e-14, atol=0)
    # |z| ~ 1e300 overflows |1 + z|^2 - 1, so the small-|z| formula must
    # not reach it with a warning
    huge = np.array([1e300 + 0j, -1e300 + 2e300j, 1e-3 + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _log1p(huge)
    assert np.allclose(got[:2], np.log(huge[:2]), rtol=1e-14, atol=0)
    assert abs(got[2] - math.log1p(1e-3)) <= 1e-16


# ---------------- iteration ----------------

def test_first_iterate_is_semiflat(pentagon, pentagon_pm):
    # with X^(0) = 0 every log(1+X) vanishes, so the first sweep returns
    # exactly log(1 + semiflat) on every ray
    spec = builtin_spectrum("pentagon")
    cfg = SolverConfig(R=0.7, theta=0.0, N=65)
    state1 = iterate_once(None, cfg, spec, pentagon_pm,
                          pentagon.lattice.pairing)
    ws = _Workspace(cfg, spec, pentagon_pm, pentagon.lattice.pairing)
    for i, ray in enumerate(ws.rays):
        want = np.log1p(np.exp(-2 * cfg.R * ray.absZ * np.cosh(ws.s)))
        assert np.max(np.abs(state1[i] - want)) < 1e-15


def test_second_iterate_against_direct_quadrature(pentagon, pentagon_pm):
    # independent oracle: the correction integral with the semiflat
    # substitution, evaluated ray by ray with adaptive quadrature
    pair = pentagon.lattice.pairing
    spec = builtin_spectrum("pentagon")
    R = 1.0
    zeta = 1.0 + 0j
    g1 = Charge((1, 0))
    oracle = complex(R) * (pentagon_pm.Z(g1) / zeta
                           + pentagon_pm.Z(g1).conjugate() * zeta)
    for mu in spec.charges():
        ip = pair(g1, mu)
        if ip == 0:
            continue
        Z = pentagon_pm.Z(mu)
        alpha = -Z / abs(Z)

        def integrand(s, part):
            zp = alpha * cmath.exp(s)
            val = (zp + zeta) / (zp - zeta) * math.log1p(
                math.exp(-2 * R * abs(Z) * math.cosh(s)))
            return val.real if part == 0 else val.imag

        re = quad(integrand, -8, 8, args=(0,), epsabs=1e-13)[0]
        im = quad(integrand, -8, 8, args=(1,), epsabs=1e-13)[0]
        oracle += ip / (4j * math.pi) * complex(re, im)

    cfg = SolverConfig(R=R, theta=0.0)
    ws = _Workspace(cfg, spec, pentagon_pm, pair)
    state1, delta = ws.sweep(ws.zero_state())
    sol1 = ws.as_solution(state1, [delta])
    got = log_x(sol1, g1)
    assert abs(got - oracle) < 1e-10


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_sweep_matches_dense_kernels(name, request):
    # the FFT convolution against the dense Cauchy-kernel matrices, built
    # here one coupled pair at a time, from the same non-zero state
    defn = request.getfixturevalue(name)
    pm = request.getfixturevalue(f"{name}_pm")
    pair = defn.lattice.pairing
    spec = builtin_spectrum(name)
    cfg = SolverConfig(R=0.5, theta=0.1)
    ws = _Workspace(cfg, spec, pm, pair)
    state = ws.sweep(ws.zero_state())[0] * (1.0 + 0.5j)
    got, _ = ws.sweep(state)
    w = _trapezoid_weights(ws.s)
    for a, ra in enumerate(ws.rays):
        za = ra.alpha * np.exp(ws.s)[:, None]
        expo = -2 * cfg.R * ra.absZ * np.cosh(ws.s) + 0j
        for b, rb in enumerate(ws.rays):
            ip = pair(ra.charge, rb.charge)
            if ip == 0:
                continue
            zb = rb.alpha * np.exp(ws.s)[None, :]
            kernel = (zb + za) / (zb - za) * w[None, :]
            expo += (spec.omega(rb.charge) * ip / (4j * math.pi)
                     * (kernel @ state[b]))
        assert np.max(np.abs(got[a] - _log1p(np.exp(expo)))) < 1e-13


def test_hexagon_kernel_storage_is_small(hexagon, hexagon_pm):
    tracemalloc.start()
    try:
        ws = _Workspace(SolverConfig(R=0.5, theta=0.2, N=257),
                        builtin_spectrum("hexagon"), hexagon_pm,
                        hexagon.lattice.pairing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws.n == 24
    # 513 * 24^2 real values, 2.36 MB; complex ones took 4.7 MB, and
    # dense kernels 456 * 257^2 * 16 B
    assert ws.kernel_spectra.nbytes < 2.5e6
    assert peak < 4e6


@pytest.mark.parametrize("name, pairs, transforms",
                         [("pentagon", 24, 4), ("hexagon", 456, 38)])
def test_one_kernel_fft_per_phase_gap(name, pairs, transforms, request):
    # the kernel of a pair depends only on its phase gap, so the coupled
    # pairs share one transform per distinct gap
    defn = request.getfixturevalue(name)
    pm = request.getfixturevalue(f"{name}_pm")
    pair = defn.lattice.pairing
    ws = _Workspace(SolverConfig(R=0.5, theta=0.1), builtin_spectrum(name),
                    pm, pair)
    coupled = sum(pair(ra.charge, rb.charge) != 0
                  for ra in ws.rays for rb in ws.rays)
    assert coupled == pairs
    assert len(ws.gaps) == transforms
    spectra = ws.kernel_spectra.reshape(ws.kernel_spectra.shape[0], -1)
    assert np.count_nonzero(np.any(spectra != 0, axis=0)) == pairs


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_kernel_transforms_are_imaginary(name, request):
    # on |r| = 1, t_r(-d) = -conj(t_r(d)), so the workspace keeps only
    # the imaginary part of each FFT
    ws = _Workspace(SolverConfig(R=0.5, theta=0.1), builtin_spectrum(name),
                    request.getfixturevalue(f"{name}_pm"),
                    request.getfixturevalue(name).lattice.pairing)
    for row in _kernel_transforms(np.exp(1j * ws.gaps), ws.s):
        assert np.max(np.abs(row.real)) < 1e-12 * np.max(np.abs(row.imag))


def test_log_x_carries_omega(pentagon, pentagon_pm):
    # with every Omega = 2, log(1 + X_mu) through log_x at the ray samples
    # reproduces the stored fixed point; dropping Omega misses by 3.6e-3
    charges = builtin_spectrum("pentagon").charges()
    spec = BpsSpectrum({ch: 2 for ch in charges})
    sol = solve(SolverConfig(R=0.5, theta=0.0), spec, pentagon_pm,
                pentagon.lattice.pairing)
    worst = 0.0
    for g in sol.ray_grids:
        assert g.omega == 2
        for k, s in enumerate(g.s):
            lx = log_x(sol, g.charge, g.alpha * math.exp(s))
            worst = max(worst,
                        abs(cmath.log(1.0 + cmath.exp(lx)) - g.samples[k]))
    assert worst < 1e-9


def test_integral_term_keeps_precision_at_large_R(pentagon, pentagon_pm):
    # at R = 10 the integral term is ~1e-20 against log X ~ 80, below the
    # rounding of log X itself; on its own it still matches the oracle
    pair = pentagon.lattice.pairing
    spec = builtin_spectrum("pentagon")
    R = 10.0
    zeta = 1.0 + 0j
    g1 = Charge((1, 0))
    coupled = [mu for mu in spec.charges() if pair(g1, mu) != 0]
    shift = 2 * R * min(abs(pentagon_pm.Z(mu)) for mu in coupled)
    oracle = 0j
    for mu in coupled:
        Z = pentagon_pm.Z(mu)
        alpha = -Z / abs(Z)

        def integrand(s, part):
            zp = alpha * cmath.exp(s)
            val = (zp + zeta) / (zp - zeta) * math.exp(
                shift - 2 * R * abs(Z) * math.cosh(s))
            return val.real if part == 0 else val.imag

        re = quad(integrand, -3, 3, args=(0,), points=[0], epsabs=1e-14)[0]
        im = quad(integrand, -3, 3, args=(1,), points=[0], epsabs=1e-14)[0]
        oracle += pair(g1, mu) / (4j * math.pi) * complex(re, im)

    sol = solve(SolverConfig(R=R, theta=0.0), spec, pentagon_pm, pair)
    got = integral_term(sol, g1, zeta) * math.exp(shift)
    assert abs(got - oracle) < 1e-12 * abs(oracle)
    driving = complex(R) * (pentagon_pm.Z(g1) + pentagon_pm.Z(g1).conjugate())
    assert abs(log_x(sol, g1, zeta) - driving) < 1e-14 * abs(driving)


def test_pairing_free_spectrum_is_semiflat_fixed_point(hexagon, hexagon_pm):
    # spectrum supported on kernel charges: no coupling anywhere, the
    # fixed point is reached after the first sweep and every coordinate
    # is exactly semiflat
    spec = BpsSpectrum({Charge((0, 0, 1, 0)): 1, Charge((0, 0, -1, 0)): 1})
    sol = solve(SolverConfig(R=0.6, theta=0.1), spec, hexagon_pm,
                hexagon.lattice.pairing)
    assert sol.iterations_used == 2        # second sweep certifies delta 0
    assert sol.delta_history[-1] == 0.0
    for comps in ((1, 0, 0, 0), (0, 1, 1, 0)):
        g = Charge(comps)
        got = spectral_coordinate(sol, g, 0.3 + 0.2j)
        want = semiflat(hexagon_pm.Z(g), 0.3 + 0.2j, 0.6)
        assert abs(got - want) <= 1e-14 * abs(want)


def test_kernel_charge_semiflat_through_full_spectrum(hexagon, hexagon_pm):
    spec = builtin_spectrum("hexagon")
    sol = solve(SolverConfig(R=1.0, theta=0.2), spec, hexagon_pm,
                hexagon.lattice.pairing)
    for comps in ((0, 0, 1, 0), (0, 0, 0, 1)):
        g = Charge(comps)
        X = spectral_coordinate(sol, g)
        a = 2 * (cmath.exp(-0.2j) * hexagon_pm.Z(g)).real
        assert abs(X.real - math.exp(a)) <= 1e-12 * math.exp(a)
        assert abs(X.imag) < 1e-12


# ---------------- solve ----------------

def test_pentagon_spot_value(pentagon_solution):
    X = spectral_coordinate(pentagon_solution, Charge((1, 0)))
    assert abs(X.real - 0.1286) < 1e-3
    assert abs(X.imag) < 1e-12


def test_reflection_symmetric_coordinate(pentagon_solution):
    X = spectral_coordinate(pentagon_solution, Charge((0, 1)))
    assert abs(X.real - 1.0) < 1e-9


def test_reality_at_unit_circle(pentagon_solution, hexagon, hexagon_pm):
    for comps in ((1, 0), (0, 1), (2, 3)):
        assert abs(log_x(pentagon_solution, Charge(comps)).imag) < 1e-9
    sol = solve(SolverConfig(R=0.7, theta=0.2), builtin_spectrum("hexagon"),
                hexagon_pm, hexagon.lattice.pairing)
    for comps in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)):
        assert abs(log_x(sol, Charge(comps)).imag) < 1e-9


def test_multiplicativity(pentagon_solution):
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.integers(-3, 4, size=2)
        n = rng.integers(-3, 4, size=2)
        la = log_x(pentagon_solution, Charge(m))
        lb = log_x(pentagon_solution, Charge(n))
        lab = log_x(pentagon_solution, Charge(m + n))
        assert abs(lab - (la + lb)) <= 1e-9 * max(1.0, abs(lab))


def test_fast_convergence_at_large_R(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    sol = solve(SolverConfig(R=5.0, theta=0.0), spec, pentagon_pm,
                pentagon.lattice.pairing)
    assert sol.iterations_used <= 5
    assert sol.delta_history[-1] < 1e-10


def test_feedback_is_measured_at_large_R(hexagon, hexagon_pm):
    # the first sweep from X = 0 is already within 1e-10 of the fixed
    # point in absolute terms; relative to the samples it is not
    sol = solve(SolverConfig(R=5.0, theta=0.2), builtin_spectrum("hexagon"),
                hexagon_pm, hexagon.lattice.pairing)
    assert sol.iterations_used >= 2


def test_fine_grid_hexagon_at_small_R(hexagon, hexagon_pm):
    # N = 1025 takes 24 * 2049 spectrum values per ray, where dense
    # kernels would take 7.7 GB
    spec = builtin_spectrum("hexagon")
    lattice = hexagon.lattice
    logs = []
    for N in (257, 1025):
        sol = solve(SolverConfig(R=0.05, theta=0.2, N=N), spec, hexagon_pm,
                    lattice.pairing)
        logs.append([log_x(sol, lattice.basis_charge(i))
                     for i in range(lattice.rank)])
    for coarse, fine in zip(*logs):
        assert abs(fine - coarse) < 1e-9


def test_grid_refinement_stability(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    vals = []
    for N in (257, 513):
        sol = solve(SolverConfig(R=0.5, theta=0.0, N=N), spec,
                    pentagon_pm, pair)
        vals.append(spectral_coordinate(sol, Charge((1, 0))).real)
    assert abs(vals[1] - vals[0]) <= 1e-8 * abs(vals[0])


def test_contraction_monotone_after_two(pentagon, pentagon_pm, hexagon,
                                         hexagon_pm):
    for defn, pm, name in ((pentagon, pentagon_pm, "pentagon"),
                           (hexagon, hexagon_pm, "hexagon")):
        spec = builtin_spectrum(name)
        sol = solve(SolverConfig(R=0.5, theta=0.1), spec, pm,
                    defn.lattice.pairing)
        h = sol.delta_history
        assert all(a >= b for a, b in zip(h[1:-1], h[2:]))


def test_ray_grid_invariants(pentagon_solution):
    cfg = pentagon_solution.config
    for g in pentagon_solution.ray_grids:
        bound = 2.0 * np.exp(-2 * cfg.R * g.absZ * np.cosh(g.s))
        assert np.all(np.abs(g.samples) <= bound)
        assert abs(g.samples[0]) < 1e-15
        assert abs(g.samples[-1]) < 1e-15


def test_no_convergence_raises(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    with pytest.raises(NoConvergence):
        solve(SolverConfig(R=0.1, theta=0.0, max_iter=3), spec,
              pentagon_pm, pentagon.lattice.pairing)


def test_on_ray_evaluation(pentagon_solution):
    # zeta = i sits exactly on the ray of gamma2, which couples to gamma1
    with pytest.raises(OnRayEvaluation):
        spectral_coordinate(pentagon_solution, Charge((1, 0)), 1j)
    # but gamma2 itself does not couple to its own ray: fine there
    val = spectral_coordinate(pentagon_solution, Charge((0, 1)), 1j)
    assert abs(val) > 0


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(R=-1.0)
    for R in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            SolverConfig(R=R)
    with pytest.raises(ValidationError):
        SolverConfig(R=1.0, N=64)
    with pytest.raises(ValidationError):
        SolverConfig(R=1.0, tol=0.0)
    nan, inf = float("nan"), float("inf")
    bad = [dict(theta=nan), dict(theta=inf), dict(max_iter=0), dict(tol=nan),
           dict(tol=inf), dict(relax=0.0), dict(relax=-1.0), dict(relax=nan),
           dict(relax=inf), dict(max_iter=2.5), dict(N=257.5), dict(N=nan)]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            SolverConfig(R=1.0, **kwargs)
    assert SolverConfig(R=1.0, relax=1.5).relax == 1.5
    # a whole float is read as its integer
    cfg = SolverConfig(R=0.5, N=257.0, max_iter=100.0)
    assert (cfg.N, cfg.max_iter) == (257, 100)
    assert type(cfg.N) is int and type(cfg.max_iter) is int


def test_non_finite_zeta_rejected(pentagon_solution):
    nan, inf = float("nan"), float("inf")
    for zeta in (nan, inf, complex(1.0, nan), complex(inf, 1.0)):
        for evaluate in (log_x, integral_term, spectral_coordinate):
            with pytest.raises(ValidationError):
                evaluate(pentagon_solution, Charge((1, 0)), zeta)


def test_auto_L_satisfies_decay_target():
    cfg = SolverConfig(R=0.5)
    L = cfg.resolved_L(2.31)
    assert 2 * 0.5 * 2.31 * math.cosh(L) >= 2 * 0.5 * 2.31 + 40 - 1e-9


def test_under_relaxation_same_fixed_point(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    pair = pentagon.lattice.pairing
    a = solve(SolverConfig(R=0.5, theta=0.0), spec, pentagon_pm, pair)
    b = solve(SolverConfig(R=0.5, theta=0.0, relax=0.7, max_iter=200),
              spec, pentagon_pm, pair)
    xa = spectral_coordinate(a, Charge((1, 0))).real
    xb = spectral_coordinate(b, Charge((1, 0))).real
    assert abs(xa - xb) < 1e-8

