"""WKB trajectory tracing, network growth, and finite-web detection.

A trajectory with ordered sheet pair (x_i, x_j) solves

    (x_i(t) - x_j(t)) dz/dt = exp(i*theta),

integrated here in arclength form dz/ds = exp(i*theta) * conj(u)/|u|.
The sheets over z are x, omega*x and omega^2*x, so x_j = omega^k x_i with
k fixed at the seed: only x_i is tracked, one nearest cube root per RK
stage, and u = x_i - x_j; a Trajectory holds arrays of its points, x_i
and chain integral, and the index k.  Networks start from the 8 critical
trajectories emanating from each simple zero of P0, then grow by the
junction birth rule: at every crossing whose labels chain as (i,j),(j,k)
a new trajectory labeled (i,k) is seeded at the crossing.  Each critical
ray carries a label (zero, m), m = 0..7, from the local model
x^3 ~ -P0'(z0) (z - z0), continuous in theta; _critical_rays finds any
list of labelled rays in one array bisection.

Finite webs (a trajectory running into a zero, or a junction child doing
so) are bracketed by the sign changes of the signed miss distance in
theta, and their charge is read off by matching the chain integral of
x dz against integer combinations of the basis periods.  A web of charge
gamma exists only at theta = arg Z_gamma, where its mass
exp(-i*theta) Z_gamma is real and positive.  So each new charge is traced
once more, at arg Z_gamma and assembly quality, and an event near the
phase of a web already found is traced once there and ends if it gives
that web's charge; the others are bisected.  _scan_points builds the
scan points of a list of phases: their critical rays traced as one
batch, each phase's first-generation births found with one crossing
search per ray (later_crossings), and the children traced as a second
batch.  The grid runs it on blocks of about SCAN_BLOCK_LANES critical
rays, found by one RayBook.rays_at call and traced as numpy lanes
(trace_lanes); refining an event runs it at one phase on the event's own
rays (one critical ray, or two parents and their child) with the scalar
trace.  No phase's result depends on its block.  An event that cannot be
refined is dropped with a WebEventDropped warning that says why.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curve import Charge, OMEGA, PeriodMap, cube_roots, nearest_root
from .errors import (
    ChargeIdentificationFailed,
    GenerationCapExceeded,
    NumericalError,
    PatternViolation,
    SheetAmbiguity,
    ValidationError,
    WebEventDropped,
)

TWO_PI = 2 * math.pi


def _wrap(a):
    """Wrap an angle difference into (-pi, pi]."""
    return (a + math.pi) % TWO_PI - math.pi


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass
class TraceConfig:
    """Numerical knobs for tracing and network growth."""

    escape_radius: float = None      # default: 4 * max |ramification| + 10
    delta0: float = 1e-4             # seed offset from a zero
    delta_hit: float = 1e-3          # "ran into a zero" radius
    rk_tol: float = 1e-9             # local error target per unit arclength
    h_max: float = 0.5
    h_min: float = 1e-12
    max_arclength: float = 400.0
    max_points: int = 200000
    dedup_radius: float = 1e-4       # junction / origin exclusion radius
    generation_cap: int = 10
    outward_steps: int = 20          # consecutive outward steps past the radius

    def resolved_escape_radius(self, curve):
        if self.escape_radius is not None:
            return self.escape_radius
        zs = curve.ramification_points
        return 4.0 * max((abs(z) for z in zs), default=0.0) + 10.0


# ----------------------------------------------------------------------
# critical seeds
# ----------------------------------------------------------------------

@dataclass
class TrajectorySeed:
    z: complex
    pair: tuple                   # (x_i, x_j) at z
    origin: tuple                 # ("critical", zero_idx, label m, phi)
                                  # or ("junction", parent_key_a, parent_key_b)
    theta: float


# halvings that take a critical ray's pi/4 bracket below 1e-13
_RAY_STEPS = math.ceil(math.log2(math.pi / 4 / 1e-13))
_PAIRS = np.array([(p, q) for p in range(3) for q in range(3) if p != q])


def _critical_rays(curve, rays, delta0):
    """The critical rays [(phi, (x_p, x_q))] of a list of (theta, zero, m).

    A direction phi is critical for the ordered pair (p, q) when
    W = exp(-i*theta) * (x_p - x_q) * exp(i*phi) at z0 + delta0 e^(i phi)
    lands on the positive real axis: the trajectory through that point
    then moves radially outward.  Near a simple zero z0 the local model
    x^3 ~ -P0'(z0) (z - z0) puts the 8 of them, m = 0..7, at

        phi_m = (3/4) (theta - arg(-P0'(z0))/3 - pi/6 - m pi/3)  mod 2 pi.

    Each ray takes the pair whose W at phi_m lies nearest the positive real
    axis, and Im W is bisected within pi/8 (half the rays' spacing) of
    phi_m for all rays at once, each in _RAY_STEPS halvings, so a ray does
    not depend on the rest of the list.  A ray with no sign change, or
    with Re W <= 0 at the end, raises NumericalError.
    """
    if not rays:
        return []
    theta, zi, m = (np.array(v) for v in zip(*rays))
    zeros = np.asarray(curve.ramification_points, dtype=complex)
    slope = np.angle(-curve.polynomial.derivative()(zeros))
    phi0 = 0.75 * (theta - slope[zi] / 3 - math.pi / 6
                   - m * math.pi / 3) % TWO_PI
    coeffs = tuple(reversed(curve.polynomial.coefficients))
    z0 = zeros[zi]
    x0 = (-curve.polynomial(z0 + delta0 * np.exp(1j * phi0))) ** (1 / 3)
    inv_cube = -1 / x0 ** 3
    rot = np.exp(-1j * theta)
    diffs = _ROTATION[_PAIRS[:, 0]] - _ROTATION[_PAIRS[:, 1]]
    pair = (rot * x0 * np.exp(1j * phi0) * diffs[:, None]).real.argmax(axis=0)
    rot = rot * diffs[pair]

    def sheet_and_W(phi):
        turn = np.exp(1j * phi)
        x = _lane_sheet(coeffs, z0 + delta0 * turn, x0, inv_cube)
        return x, rot * x * turn

    a, b = phi0 - math.pi / 8, phi0 + math.pi / 8
    below = sheet_and_W(a)[1].imag < 0
    lost = below == (sheet_and_W(b)[1].imag < 0)
    for _ in range(_RAY_STEPS):
        mid = 0.5 * (a + b)
        left = (sheet_and_W(mid)[1].imag < 0) == below
        a, b = np.where(left, mid, a), np.where(left, b, mid)
    phi = 0.5 * (a + b)
    x, W = sheet_and_W(phi)
    lost |= W.real <= 0
    if lost.any():
        i = int(lost.argmax())
        raise NumericalError(f"lost critical ray {(int(zi[i]), int(m[i]))} "
                             f"at theta = {float(theta[i])!r}")
    p, q = _PAIRS[pair].T
    return list(zip((phi % TWO_PI).tolist(), zip(
        (x * _ROTATION[p]).tolist(), (x * _ROTATION[q]).tolist())))


class RayBook:
    """The labelled critical rays of every zero of P0 at a block of phases.

    rays_at(thetas) is one table {zero: [(m, phi, pair)]}, m = 0..7, per
    phase, all found by one _critical_rays call.  A label names the same
    ray at every phase, so tables at different phases match by label and
    the book keeps no state between calls.  It stays a class because
    perfbench/tracing.py wraps RayBook.rays_at to count ray searches.
    """

    def __init__(self, curve, delta0):
        self.curve = curve
        self.delta0 = delta0

    def rays_at(self, thetas):
        zeros = range(len(self.curve.ramification_points))
        found = iter(_critical_rays(
            self.curve, [(th, zi, m) for th in thetas for zi in zeros
                         for m in range(8)], self.delta0))
        return [{zi: [(m,) + next(found) for m in range(8)] for zi in zeros}
                for _ in thetas]


def _critical_seeds(curve, theta, delta0, rays):
    """Seeds delta0 out from each zero along the rays of a ray table."""
    return [TrajectorySeed(z=curve.ramification_points[zi]
                           + delta0 * cmath.exp(1j * phi),
                           pair=pair, origin=("critical", zi, m, phi),
                           theta=theta)
            for zi, entries in rays.items() for m, phi, pair in entries]


def seed_critical(curve, theta, config=None):
    """All critical-trajectory seeds at one phase: 8 per zero of P0."""
    config = config or TraceConfig()
    return _critical_seeds(curve, theta, config.delta0,
                           RayBook(curve, config.delta0).rays_at([theta])[0])


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

_ROTATION = np.array([1, OMEGA, OMEGA * OMEGA])


@dataclass(eq=False, slots=True)
class Trajectory:
    """A traced WKB trajectory: polyline, tracked sheet, chain integral.

    points, x and chain are arrays over the polyline's points: x[m] is the
    tracked sheet x_i at points[m], whose partner is omega^k x_i with k in
    {1, 2} fixed along the trajectory.  chain[m] is the accumulated
    integral of |x_i - x_j| over arclength up to point m; the complex
    integral of (x_i - x_j) dz along the curve is exp(i*theta) * chain[m],
    a consequence of the trajectory equation.
    """

    points: np.ndarray
    x: np.ndarray
    k: int
    chain: np.ndarray
    status: str                   # "escaped" | "hit_zero" | "truncated"
    hit_zero: int
    seed: TrajectorySeed
    theta: float

    def __len__(self):
        return len(self.points)

    def pair(self, m, t=0.0):
        """(x_i, x_j) at point m, or a fraction t along segment m."""
        x = self.x[m]
        if t:
            x = x + (self.x[m + 1] - x) * t
        return x, x * _ROTATION[self.k]

    def chain_integral(self, upto=None):
        T = self.chain[-1 if upto is None else upto]
        return cmath.exp(1j * self.theta) * T


def trace(curve, seed, config=None):
    """Integrate one trajectory until escape, a zero hit, or truncation."""
    config = config or TraceConfig()
    eith = cmath.exp(1j * seed.theta)
    esc = config.resolved_escape_radius(curve)
    zeros = curve.ramification_points
    coeffs = tuple(reversed(curve.polynomial.coefficients))

    z = complex(seed.z)
    rts = cube_roots(-curve.polynomial(z))
    i = nearest_root(rts, seed.pair[0])
    k = (nearest_root(rts, seed.pair[1]) - i) % 3
    if k == 0:
        raise ValidationError("seed pair selects a single sheet")
    x = rts[i]

    def rhs(w):
        # nearest_root inlined: a call to it per stage slows trace by ~20%
        acc = 0j
        for c in coeffs:
            acc = acc * w + c
        r0 = (-acc) ** (1.0 / 3.0) if acc != 0 else 0j
        rts = (r0, r0 * OMEGA, r0 * OMEGA * OMEGA)
        j, best = 0, abs(r0 - x)
        d = abs(rts[1] - x)
        if d < best:
            j, best = 1, d
        if abs(rts[2] - x) < best:
            j = 2
        u = rts[j] - rts[(j + k) % 3]
        au = abs(u)
        if au == 0.0:
            raise SheetAmbiguity(f"RK stage on a zero of P0 at z = {w}")
        return eith * u.conjugate() / au, au

    f1, g1 = rhs(z)
    points = [z]
    xs = [x]
    chain = [0.0]
    s_total = 0.0
    dz = [abs(z - z0) for z0 in zeros]
    dist = min(dz, default=float("inf"))
    h = max(min(config.h_max, 0.05 * min(dz, default=1.0)), 64 * config.h_min)
    status, hit = "truncated", None
    outward = 0
    # the zero a trajectory starts from does not count as a hit until the
    # trajectory has genuinely left its neighborhood
    arm_radius = 4 * config.delta_hit
    disarmed = {n for n, d in enumerate(dz) if d < arm_radius}

    while True:
        h = min(h, config.h_max, 0.1 * dist + 0.5 * config.delta_hit)
        if h < config.h_min:
            raise SheetAmbiguity(f"step size collapsed at z = {z}")
        # Cash-Karp embedded Runge-Kutta pair (orders 5 and 4)
        try:
            f2, g2 = rhs(z + h * (1 / 5 * f1))
            f3, g3 = rhs(z + h * (3 / 40 * f1 + 9 / 40 * f2))
            f4, g4 = rhs(z + h * (3 / 10 * f1 - 9 / 10 * f2 + 6 / 5 * f3))
            f5, g5 = rhs(z + h * (-11 / 54 * f1 + 5 / 2 * f2 - 70 / 27 * f3
                                  + 35 / 27 * f4))
            f6, g6 = rhs(z + h * (1631 / 55296 * f1 + 175 / 512 * f2
                                  + 575 / 13824 * f3 + 44275 / 110592 * f4
                                  + 253 / 4096 * f5))
        except SheetAmbiguity:
            h *= 0.25
            if h < config.h_min:
                raise
            continue
        z5 = z + h * (37 / 378 * f1 + 250 / 621 * f3 + 125 / 594 * f4
                      + 512 / 1771 * f6)
        z4 = z + h * (2825 / 27648 * f1 + 18575 / 48384 * f3
                      + 13525 / 55296 * f4 + 277 / 14336 * f5 + 1 / 4 * f6)
        T5 = h * (37 / 378 * g1 + 250 / 621 * g3 + 125 / 594 * g4
                  + 512 / 1771 * g6)
        T4 = h * (2825 / 27648 * g1 + 18575 / 48384 * g3
                  + 13525 / 55296 * g4 + 277 / 14336 * g5 + 1 / 4 * g6)
        err = abs(z5 - z4) + abs(T5 - T4)
        # absolute floor keeps tiny steps near zeros feasible at roundoff
        tol = config.rk_tol * h + 4e-15 * (1.0 + abs(z))
        if err > tol:
            h *= max(0.2, 0.9 * (tol / err) ** 0.25)
            continue
        # accept the step if the re-tracked sheet keeps a safe margin
        rts = cube_roots(-curve.polynomial(z5))
        i = nearest_root(rts, x)
        sep = min(abs(rts[0] - rts[1]), abs(rts[1] - rts[2]),
                  abs(rts[0] - rts[2]))
        if abs(rts[i] - x) > sep / 3.0:
            h *= 0.5
            continue
        prev = z
        z, x, xj = z5, rts[i], rts[(i + k) % 3]
        s_total += h
        points.append(z)
        xs.append(x)
        u = x - xj        # the next step's first stage, from these roots
        f1, g1 = eith * u.conjugate() / abs(u), abs(u)
        chain.append(chain[-1] + T5)
        h = min(config.h_max,
                h * min(5.0, 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0))

        dz = [abs(z - z0) for z0 in zeros]
        dist = min(dz, default=float("inf"))
        if disarmed:
            disarmed = {n for n in disarmed if dz[n] < arm_radius}
        if dist < config.delta_hit and dz.index(dist) not in disarmed:
            status, hit = "hit_zero", dz.index(dist)
            break
        if abs(z) > esc:
            outward = outward + 1 if (z.conjugate() * (z - prev)).real > 0 else 0
            if outward >= config.outward_steps:
                status = "escaped"
                break
        if s_total > config.max_arclength or len(points) >= config.max_points:
            status = "truncated"
            break

    return Trajectory(np.array(points), np.array(xs), k, np.array(chain),
                      status, hit, seed, seed.theta)


def _lane_sheet(coeffs, w, x, inv_cube):
    """The cube root of -P0(w) nearest x, per lane, given -1/x^3.

    It is x times the cube root of -P0(w)/x^3 whose argument lies within
    pi/3 of 0, the principal one: the three roots have one modulus, so
    the nearest in angle is the nearest.
    """
    acc = np.full_like(w, coeffs[0])
    for c in coeffs[1:]:
        acc = acc * w + c
    rho = acc * inv_cube
    arg = np.arctan2(rho.imag, rho.real) * (1.0 / 3.0)
    root = np.empty_like(w)
    root.real = np.cos(arg)
    root.imag = np.sin(arg)
    return x * np.cbrt(np.abs(rho)) * root


def trace_lanes(curve, seeds, config=None):
    """trace for many seeds at once: one Cash-Karp loop over numpy lanes.

    Each lane keeps its own step size and runs every test of trace: step
    collapse, the h/4 retry after an RK stage lands on a zero, error
    control, the sheet margin, the disarmed start zero, and the hit,
    outward-escape and truncation tests.  All live lanes attempt a step
    together and a finished lane leaves the arrays, so a lane's trajectory
    does not depend on the rest of its batch.  It follows trace's without
    matching it bit for bit: its cube roots round differently, so the
    accepted steps drift apart slowly.  A seed that trace would reject
    fails the whole batch.  Each Trajectory's arrays are slices of the
    batch's.
    """
    if not seeds:
        return []
    z, x, chain, k, ends, status, hit_zero = _trace_lanes(curve, seeds, config)
    starts = [0] + ends[:-1]
    return [Trajectory(z[a:b], x[a:b], int(kk), chain[a:b], st, hz, seed,
                       seed.theta)
            for a, b, kk, st, hz, seed in zip(starts, ends, k, status,
                                              hit_zero, seeds)]


def _trace_lanes(curve, seeds, config):
    """The lane loop: z, x_i and chain at every lane's points, lane after
    lane in seed order; each lane's partner index k and end index in
    them; statuses; hit zeros."""
    config = config or TraceConfig()
    n = len(seeds)
    esc = config.resolved_escape_radius(curve)
    zeros = np.asarray(curve.ramification_points, dtype=complex)
    coeffs = tuple(reversed(curve.polynomial.coefficients))
    arm_radius = 4 * config.delta_hit

    z, x, k = [], [], []
    for seed in seeds:
        rts = cube_roots(-curve.polynomial(complex(seed.z)))
        i = nearest_root(rts, seed.pair[0])
        kk = (nearest_root(rts, seed.pair[1]) - i) % 3
        if kk == 0:
            raise ValidationError("seed pair selects a single sheet")
        z.append(complex(seed.z))
        x.append(rts[i])
        k.append(kk)
    lane = np.arange(n)
    z, x, k = np.array(z), np.array(x), np.array(k)
    gap = 1 - _ROTATION[k]              # u = x_i - x_j = gap * x_i
    inv_cube = -1 / x ** 3
    eith = np.array([cmath.exp(1j * s.theta) for s in seeds])
    status = ["truncated"] * n
    hit_zero = [None] * n

    def rhs(w):
        u = _lane_sheet(coeffs, w, x, inv_cube) * gap
        au = np.abs(u)
        return eith * u.conjugate() / au, au

    def distances(z):
        if not len(zeros):
            return np.full((len(z), 0), np.inf), np.full(len(z), np.inf)
        dz = np.abs(z[:, None] - zeros[None, :])
        return dz, dz.min(axis=1)

    with np.errstate(all="ignore"):
        # each accepted point as (lanes, index along the lane, z, x, chain)
        records = [(lane, np.zeros(n, np.intp), z, x, np.zeros(n))]
        length = np.ones(n, dtype=np.intp)
        f1, g1 = rhs(z)
        if (g1 == 0).any():
            raise SheetAmbiguity(f"RK stage on a zero of P0 at z = {z[g1 == 0][0]}")
        dz, dist = distances(z)
        h = np.maximum(np.minimum(config.h_max,
                                  0.05 * (dist if len(zeros) else 1.0)),
                       64 * config.h_min)
        disarmed = dz < arm_radius
        chain = np.zeros(n)
        s_total = np.zeros(n)
        npts = np.ones(n, dtype=np.intp)
        outward = np.zeros(n, dtype=np.intp)

        while len(lane):
            h = np.minimum(np.minimum(h, config.h_max),
                           0.1 * dist + 0.5 * config.delta_hit)
            if (h < config.h_min).any():
                raise SheetAmbiguity(
                    f"step size collapsed at z = {z[h < config.h_min][0]}")
            # Cash-Karp embedded Runge-Kutta pair (orders 5 and 4)
            f2, g2 = rhs(z + h * (1 / 5 * f1))
            f3, g3 = rhs(z + h * (3 / 40 * f1 + 9 / 40 * f2))
            f4, g4 = rhs(z + h * (3 / 10 * f1 - 9 / 10 * f2 + 6 / 5 * f3))
            f5, g5 = rhs(z + h * (-11 / 54 * f1 + 5 / 2 * f2 - 70 / 27 * f3
                                  + 35 / 27 * f4))
            f6, g6 = rhs(z + h * (1631 / 55296 * f1 + 175 / 512 * f2
                                  + 575 / 13824 * f3 + 44275 / 110592 * f4
                                  + 253 / 4096 * f5))
            on_zero = (g2 == 0) | (g3 == 0) | (g4 == 0) | (g5 == 0) | (g6 == 0)
            z5 = z + h * (37 / 378 * f1 + 250 / 621 * f3 + 125 / 594 * f4
                          + 512 / 1771 * f6)
            z4 = z + h * (2825 / 27648 * f1 + 18575 / 48384 * f3
                          + 13525 / 55296 * f4 + 277 / 14336 * f5 + 1 / 4 * f6)
            T5 = h * (37 / 378 * g1 + 250 / 621 * g3 + 125 / 594 * g4
                      + 512 / 1771 * g6)
            T4 = h * (2825 / 27648 * g1 + 18575 / 48384 * g3
                      + 13525 / 55296 * g4 + 277 / 14336 * g5 + 1 / 4 * g6)
            err = np.abs(z5 - z4) + np.abs(T5 - T4)
            tol = config.rk_tol * h + 4e-15 * (1.0 + np.abs(z))
            too_big = ~on_zero & (err > tol)
            # the re-tracked sheet must keep a safe margin: a third of the
            # roots' separation sqrt(3) |x|
            x5 = _lane_sheet(coeffs, z5, x, inv_cube)
            unsafe = ~on_zero & ~too_big & (
                np.abs(x5 - x) > np.abs(x5) * (1 / math.sqrt(3)))
            ok = ~(on_zero | too_big | unsafe)

            retry = h * np.where(on_zero, 0.25, np.where(
                too_big, np.maximum(0.2, 0.9 * (tol / err) ** 0.25), 0.5))
            if (on_zero & (retry < config.h_min)).any():
                raise SheetAmbiguity(
                    f"RK stage on a zero of P0 near z = "
                    f"{z[on_zero & (retry < config.h_min)][0]}")
            grown = np.minimum(config.h_max, h * np.where(
                err > 0, np.minimum(5.0, 0.9 * (tol / err) ** 0.2), 5.0))
            prev = z
            s_total = np.where(ok, s_total + h, s_total)
            h = np.where(ok, grown, retry)
            z = np.where(ok, z5, z)
            x = np.where(ok, x5, x)
            inv_cube = np.where(ok, -1 / x5 ** 3, inv_cube)
            u = x5 * gap
            f1 = np.where(ok, eith * u.conjugate() / np.abs(u), f1)
            g1 = np.where(ok, np.abs(u), g1)
            chain = np.where(ok, chain + T5, chain)
            records.append((lane[ok], npts[ok], z5[ok], x5[ok], chain[ok]))
            npts += ok

            dz, dist = distances(z)
            disarmed &= dz < arm_radius
            hit = ok & (dist < config.delta_hit)
            if len(zeros):
                near = dz.argmin(axis=1)
                hit &= ~disarmed[np.arange(len(z)), near]
            outside = ok & (np.abs(z) > esc)
            outward = np.where(outside, np.where(
                (z.conjugate() * (z - prev)).real > 0, outward + 1, 0), outward)
            escaped = ~hit & outside & (outward >= config.outward_steps)
            truncated = ok & ~hit & ~escaped & (
                (s_total > config.max_arclength) | (npts >= config.max_points))
            done = hit | escaped | truncated
            if not done.any():
                continue
            for a in np.nonzero(hit)[0]:
                status[lane[a]], hit_zero[lane[a]] = "hit_zero", int(near[a])
            for a in np.nonzero(escaped)[0]:
                status[lane[a]] = "escaped"
            length[lane[done]] = npts[done]
            keep = ~done
            (lane, z, x, inv_cube, gap, eith, h, f1, g1, dist, disarmed,
             chain, s_total, npts, outward) = (v[keep] for v in (
                 lane, z, x, inv_cube, gap, eith, h, f1, g1, dist, disarmed,
                 chain, s_total, npts, outward))

    ends = np.cumsum(length)
    first = ends - length
    total = int(ends[-1])
    z, x, chain = np.empty(total, complex), np.empty(total, complex), np.empty(total)
    while records:
        lanes, at, zr, xr, cr = records.pop()
        idx = first[lanes] + at
        z[idx], x[idx], chain[idx] = zr, xr, cr
    return z, x, chain, k, ends.tolist(), status, hit_zero


# ----------------------------------------------------------------------
# polyline intersections
# ----------------------------------------------------------------------

# segments per bounding box in the crossing searches
SEGMENT_CHUNK = 64


def _segment_crossings(pA, b0, b1):
    """The transversal crossings (z, ia, ta, ib, tb) of polyline pA's
    segments with the segments b0[ib] -> b1[ib], in order of (ia, ib):
    z = pA[ia] + ta (pA[ia + 1] - pA[ia]) = b0[ib] + tb (b1[ib] - b0[ib])
    with ta and tb in [0, 1)."""
    d1 = (pA[1:] - pA[:-1])[:, None]
    d2 = (b1 - b0)[None, :]
    w = b0[None, :] - pA[:-1, None]
    den = (d1.conjugate() * d2).imag
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w.conjugate() * d2).imag / den
        s = (w.conjugate() * d1).imag / den
    ia, ib = np.nonzero((np.abs(den) > 1e-30) & (t >= 0) & (t < 1)
                        & (s >= 0) & (s < 1))
    ta, tb = t[ia, ib], s[ia, ib]
    z = pA[ia] + (pA[ia + 1] - pA[ia]) * ta
    return list(zip(z.tolist(), ia.tolist(), ta.tolist(), ib.tolist(),
                    tb.tolist()))


def polyline_intersections(pA, pB, chunk=SEGMENT_CHUNK):
    """All transversal crossings of two polylines.

    Returns a list of (z, ia, ta, ib, tb): crossing point, segment index
    and local parameter on each polyline.  Bounding-box pruned on chunks
    of `chunk` segments, exact parametric solve inside.
    """
    nA, nB = len(pA) - 1, len(pB) - 1
    if nA < 1 or nB < 1:
        return []
    out = []
    for sa in range(0, nA, chunk):
        ea = min(nA, sa + chunk)
        segA = pA[sa:ea + 1]
        ax0, ax1 = segA.real.min(), segA.real.max()
        ay0, ay1 = segA.imag.min(), segA.imag.max()
        for sb in range(0, nB, chunk):
            eb = min(nB, sb + chunk)
            segB = pB[sb:eb + 1]
            if (ax0 > segB.real.max() or segB.real.min() > ax1 or
                    ay0 > segB.imag.max() or segB.imag.min() > ay1):
                continue
            out += [(z, sa + ia, ta, sb + ib, tb) for z, ia, ta, ib, tb
                    in _segment_crossings(segA, pB[sb:eb], pB[sb + 1:eb + 1])]
    return out


def later_crossings(polylines):
    """polyline_intersections of each polyline with every later one.

    Returns {(a, b): hits} for a < b, listing only pairs that cross, each
    hits list holding polyline_intersections(polylines[a], polylines[b])'s
    hit tuples in order of (ia, ib).  Polyline a is searched once: each
    chunk of SEGMENT_CHUNK of its segments is solved against the segments
    of all later polylines whose bounding boxes meet the chunk's.
    """
    sizes = [len(p) for p in polylines]
    pts = np.concatenate([np.asarray(p, dtype=complex) for p in polylines])
    starts = np.concatenate(([0], np.cumsum(sizes)))
    owner = np.repeat(np.arange(len(polylines)), sizes)
    # segment g runs from pts[g] to pts[g + 1] inside one polyline
    s0, s1 = pts[:-1], pts[1:]
    joins = owner[:-1] == owner[1:]
    x0, x1 = np.minimum(s0.real, s1.real), np.maximum(s0.real, s1.real)
    y0, y1 = np.minimum(s0.imag, s1.imag), np.maximum(s0.imag, s1.imag)
    out = {}
    for a in range(len(polylines) - 1):
        pA = pts[starts[a]:starts[a + 1]]
        g0 = starts[a + 1]
        for sa in range(0, len(pA) - 1, SEGMENT_CHUNK):
            ea = min(len(pA) - 1, sa + SEGMENT_CHUNK)
            segA = pA[sa:ea + 1]
            g = g0 + np.nonzero(joins[g0:] & ~(
                (segA.real.min() > x1[g0:]) | (x0[g0:] > segA.real.max())
                | (segA.imag.min() > y1[g0:]) | (y0[g0:] > segA.imag.max())))[0]
            # keep the segments whose boxes meet the box of one A segment
            r = slice(starts[a] + sa, starts[a] + ea)
            g = g[(~((x0[r, None] > x1[None, g]) | (x0[None, g] > x1[r, None])
                     | (y0[r, None] > y1[None, g]) | (y0[None, g] > y1[r, None]))
                   ).any(axis=0)]
            if not len(g):
                continue
            for z, ia, ta, ib, tb in _segment_crossings(segA, s0[g], s1[g]):
                b = int(owner[g[ib]])
                out.setdefault((a, b), []).append(
                    (z, sa + ia, ta, int(g[ib] - starts[b]), tb))
    return out


def _interp_chain(traj, idx, t):
    return traj.chain[idx] + (traj.chain[idx + 1] - traj.chain[idx]) * t


# ----------------------------------------------------------------------
# the network
# ----------------------------------------------------------------------

@dataclass
class Junction:
    point: complex
    parents: tuple                # (trajectory index, trajectory index)
    child: int
    parent_params: tuple          # ((segment, t), (segment, t))


@dataclass
class MarkedPoint:
    angle: float
    label: tuple                  # ordered sheet pair in the walk frame
    trajectories: list


@dataclass
class SpectralNetwork:
    theta: float
    trajectories: list
    junctions: list
    infinity_marks: list = field(default_factory=list)
    final_arcs: list = field(default_factory=list)    # (mid_angle, fading_sheet)
    initial_arcs: list = field(default_factory=list)
    bps_ful: bool = False
    head_on_points: list = field(default_factory=list)

    @property
    def n_born(self):
        return len(self.junctions)


def _crossings(curve, trajA, trajB, hits, dedup, known):
    """Junction births and head-on collisions where two trajectories cross.

    Yields ("birth", hit, child_pair) and ("head_on", hit, None) in order
    along trajA, for hits as polyline_intersections gives them for the
    two polylines: (z, ia, ta, ib, tb).  A birth is a crossing whose
    labels chain as (i,j),(j,k); its child is labeled (i,k).  Crossings
    within the dedup radius of a point in `known` or of either
    trajectory's first point are skipped (they are re-detections of an
    existing junction or of a child's own birth point), and each crossing
    yielded joins `known`.
    """
    for hit in sorted(hits, key=lambda h: h[1] + h[2]):
        z, ia, ta, ib, tb = hit
        if any(abs(z - zk) < dedup
               for zk in known + [trajA.points[0], trajB.points[0]]):
            continue
        rts = cube_roots(-curve.polynomial(z))
        pairA = [rts[nearest_root(rts, v)] for v in trajA.pair(ia, ta)]
        pairB = [rts[nearest_root(rts, v)] for v in trajB.pair(ib, tb)]
        sep = min(abs(rts[0] - rts[1]), abs(rts[1] - rts[2]),
                  abs(rts[0] - rts[2]))
        tol = max(1e-6 * sep, 1e-12)

        def same(u, v):
            return abs(u - v) <= tol

        if same(pairA[0], pairB[1]) and same(pairA[1], pairB[0]):
            known.append(z)
            yield ("head_on", hit, None)
            continue
        for p1, p2 in ((pairA, pairB), (pairB, pairA)):
            if same(p1[1], p2[0]) and not same(p1[0], p2[1]):
                known.append(z)
                yield ("birth", hit, (p1[0], p2[1]))
                break


def grow_network(curve, theta, config=None, classify=True):
    """Grow the full network at one phase by the junction birth rule."""
    config = config or TraceConfig()
    seeds = seed_critical(curve, theta, config)
    trajectories = [trace(curve, s, config) for s in seeds]
    junctions = []
    head_on = []
    tested = set()
    frontier = list(range(len(trajectories)))
    generation = 0
    while frontier:
        generation += 1
        if generation > config.generation_cap:
            raise GenerationCapExceeded(
                f"network still growing after {config.generation_cap} generations")
        known = [j.point for j in junctions] + head_on
        births = []
        for i in frontier:
            for j in range(len(trajectories)):
                key = (min(i, j), max(i, j))
                if i == j or key in tested:
                    continue
                tested.add(key)
                a, b = key
                for kind, hit, child_pair in _crossings(
                        curve, trajectories[a], trajectories[b],
                        polyline_intersections(trajectories[a].points,
                                               trajectories[b].points),
                        config.dedup_radius, known):
                    if kind == "head_on":
                        head_on.append(hit[0])
                    else:
                        births.append((key, hit, child_pair))
        frontier = []
        for (key, hit, child_pair) in births:
            seed = TrajectorySeed(z=hit[0], pair=child_pair,
                                  origin=("junction", key[0], key[1]),
                                  theta=theta)
            child = trace(curve, seed, config)
            idx = len(trajectories)
            trajectories.append(child)
            frontier.append(idx)
            junctions.append(Junction(point=hit[0], parents=key, child=idx,
                                      parent_params=((hit[1], hit[2]),
                                                     (hit[3], hit[4]))))

    net = SpectralNetwork(
        theta=theta,
        trajectories=trajectories,
        junctions=junctions,
        head_on_points=head_on,
        bps_ful=bool(head_on) or any(t.status == "hit_zero" for t in trajectories),
    )
    if classify and all(t.status == "escaped" for t in trajectories):
        classify_infinity(curve, net)
    return net


# ----------------------------------------------------------------------
# the circle at infinity
# ----------------------------------------------------------------------

def direction_grid(curve, theta):
    """The 2n+6 exact asymptotic directions at phase theta.

    Escape directions solve ((n+3)/3) * angle = theta - arg(root difference
    constant) mod 2pi; the root-difference arguments are pi/2 + k*pi/3, so
    the directions form a uniform grid of spacing pi/(n+3).
    """
    n = curve.polynomial.degree
    mu = curve.polynomial.leading_coefficient
    step = math.pi / (n + 3)
    base = ((3.0 * theta - cmath.phase(-mu) - 1.5 * math.pi) / (n + 3)) % step
    return [base + k * step for k in range(2 * n + 6)], step


def classify_infinity(curve, net):
    """Snap escape directions onto the exact grid and label the marks.

    Sheet labels live in a frame transported continuously around a circle
    at the escape radius starting from the first mark; the first/last
    alternation of consecutive labels is validated (up to the sheet
    permutation picked up by going once around infinity), and the final
    arcs with their fading sheets are recorded on the network.
    """
    if not all(t.status == "escaped" for t in net.trajectories):
        raise ValidationError("classify_infinity needs every trajectory escaped")
    n = curve.polynomial.degree
    grid, step = direction_grid(curve, net.theta)
    ends = [complex(t.points[-1]) for t in net.trajectories]
    occupied = {}
    for ti, zf in enumerate(ends):
        ang = cmath.phase(zf) % TWO_PI
        k = min(range(len(grid)), key=lambda i: abs(_wrap(ang - grid[i])))
        err = abs(_wrap(ang - grid[k]))
        if err > 0.4 * step:
            raise PatternViolation(
                f"trajectory {ti} escapes {err:.3f} rad off the direction grid")
        occupied.setdefault(k, []).append(ti)
    if len(occupied) != 2 * n + 6:
        raise PatternViolation(
            f"{len(occupied)} asymptotic directions occupied, expected {2 * n + 6}")

    R = max(abs(zf) for zf in ends)
    ks = sorted(occupied)
    ang0 = grid[ks[0]]
    x_start = cube_roots(-curve.polynomial(R * cmath.exp(1j * ang0)))[0]
    x_frame = x_start
    frame_angle = ang0
    marks = []

    def walk_to(target):
        nonlocal x_frame, frame_angle
        nsub = max(2, int(abs(target - frame_angle) / 0.02) + 1)
        for m in range(1, nsub + 1):
            a = frame_angle + (target - frame_angle) * m / nsub
            rts = cube_roots(-curve.polynomial(R * cmath.exp(1j * a)))
            x_frame = rts[nearest_root(rts, x_frame)]
        frame_angle = target

    for k in ks:
        walk_to(grid[k])
        labels = set()
        for ti in occupied[k]:
            zf = ends[ti]
            xf = x_frame
            zc = R * cmath.exp(1j * cmath.phase(zf))
            for m in range(1, 5):
                rts = cube_roots(-curve.polynomial(zc + (zf - zc) * m / 4.0))
                xf = rts[nearest_root(rts, xf)]
            fr = (xf, xf * OMEGA, xf * OMEGA * OMEGA)
            labels.add(tuple(nearest_root(fr, v)
                             for v in net.trajectories[ti].pair(-1)))
        if len(labels) != 1:
            raise PatternViolation(
                f"conflicting labels {sorted(labels)} at direction {grid[k]:.4f}")
        marks.append(MarkedPoint(angle=grid[k], label=labels.pop(),
                                 trajectories=sorted(occupied[k])))

    # transport the frame the rest of the way around to get the wrap shift
    walk_to(ang0 + TWO_PI)
    shift = nearest_root([x_start * OMEGA ** s for s in range(3)], x_frame)
    _validate_alternation(curve, marks, shift, net)
    net.infinity_marks = marks
    return marks


def _validate_alternation(curve, marks, wrap_shift, net):
    """Consecutive labels share one index in alternating position."""
    n = curve.polynomial.degree
    m = len(marks)
    shared_pos = []
    for a in range(m):
        la = marks[a].label
        if a < m - 1:
            lb = marks[a + 1].label
        else:
            # first mark's label seen in the end-of-walk frame
            lb = tuple((s - wrap_shift) % 3 for s in marks[0].label)
        if la[0] == lb[0] and la[1] != lb[1]:
            shared_pos.append(0)
        elif la[1] == lb[1] and la[0] != lb[0]:
            shared_pos.append(1)
        else:
            raise PatternViolation(
                f"labels {la} -> {lb} between marks {a} and {(a + 1) % m} "
                f"do not chain")
    for a in range(m):
        if shared_pos[a] == shared_pos[(a + 1) % m]:
            raise PatternViolation("alternation of shared label positions broken")
    net.final_arcs = []
    net.initial_arcs = []
    for a in range(m):
        b = (a + 1) % m
        mid = (marks[a].angle +
               0.5 * ((marks[b].angle - marks[a].angle) % TWO_PI)) % TWO_PI
        if shared_pos[a] == 1:
            net.final_arcs.append((mid, marks[a].label[1]))
        else:
            net.initial_arcs.append((mid, marks[a].label[0]))
    if len(net.final_arcs) != n + 3 or len(net.initial_arcs) != n + 3:
        raise PatternViolation(
            f"{len(net.final_arcs)} final / {len(net.initial_arcs)} initial "
            f"arcs, expected {n + 3} of each")


# ----------------------------------------------------------------------
# finite webs / BPS detection
# ----------------------------------------------------------------------

@dataclass
class FiniteWeb:
    theta_star: float
    charge: Charge
    topology: str                 # "single_string" | "three_string_junction"
    period: complex
    residual: float
    zeros: tuple                  # indices of the zeroes involved
    segments: list = field(default_factory=list)   # constituent polylines
    detail: dict = field(default_factory=dict)


# a web's charge matches its period to RESIDUAL_REL relative, with
# coefficients in [-CHARGE_BOX, CHARGE_BOX]
RESIDUAL_REL = 1e-4
CHARGE_BOX = 4


def identify_charge(Z_web, period_map, residual_rel=RESIDUAL_REL,
                    max_coeff=CHARGE_BOX):
    """Integer charge whose period matches Z_web, by bounded enumeration.

    The match must be unique inside the coefficient box; a second candidate
    within tolerance, or none at all, raises ChargeIdentificationFailed.
    """
    rank = period_map.rank
    rng = np.arange(-max_coeff, max_coeff + 1)
    grids = np.meshgrid(*([rng] * rank), indexing="ij")
    combos = np.stack([g.ravel() for g in grids], axis=1)
    vals = combos @ period_map.basis_values
    d = np.abs(vals - Z_web)
    tol = residual_rel * max(abs(Z_web), 1e-12)
    inside = np.nonzero(d <= tol)[0]
    if len(inside) == 0:
        raise ChargeIdentificationFailed(
            f"no charge within {tol:.2e} of Z = {Z_web:.6f} "
            f"(closest residual {d.min():.2e})")
    if len(inside) > 1:
        raise ChargeIdentificationFailed(f"ambiguous charge for Z = {Z_web:.6f}")
    ch = Charge(combos[inside[0]])
    if ch.is_zero():
        raise ChargeIdentificationFailed("web period matches the zero charge")
    return ch, float(d[inside[0]])


def _nearest(points, z0):
    """(index, distance) of the point nearest z0, the distance by Python's
    abs, which can round differently from numpy's in the last bit."""
    k = int(np.abs(points - z0).argmin())
    return k, abs(complex(points[k]) - z0)


def _signed_miss(traj, z0, window):
    """Signed closest approach of a trajectory to the zero z0.

    Positive when the zero lies to the left of the travel direction;
    exactly 0.0 for a recorded hit.  None when the approach is farther
    than the window or happens at the very start of the polyline.
    """
    pts = traj.points
    k, dk = _nearest(pts, z0)
    if traj.status == "hit_zero" and dk < window:
        return 0.0
    if dk > window or k == 0:
        return None
    v = pts[k + 1] - pts[k] if k < len(pts) - 1 else pts[k] - pts[k - 1]
    sgn = (v.conjugate() * (z0 - pts[k])).imag
    return dk if sgn >= 0 else -dk


def _births(curve, theta, critical, config):
    """[(pair key, hit, child seed)] of one phase's critical trajectories
    {(zero, m): trajectory}, in key order: a pair of rays has at most one
    child, born at its first birth crossing along the lower-keyed ray.
    One crossing search per ray against all later rays."""
    keys = sorted(critical)
    hits = later_crossings([critical[k].points for k in keys])
    out = []
    for (a, b), pair_hits in sorted(hits.items()):
        ka, kb = keys[a], keys[b]
        for kind, hit, child_pair in _crossings(
                curve, critical[ka], critical[kb], pair_hits,
                config.dedup_radius, []):
            if kind == "birth":
                out.append(((ka, kb), hit, TrajectorySeed(
                    z=hit[0], pair=child_pair, origin=("junction", ka, kb),
                    theta=theta)))
                break
    return out


def _scan_points(curve, thetas, tables, config, generations, tracer):
    """The scan point (critical, children) of each phase, from its table
    of labelled rays: critical is {(zero, m): trajectory}, and children is
    {pair key: (birth hit, child)} for generations = 1, {} for 0.
    tracer(curve, seeds, config) traces every critical ray of every phase
    in one call, then every child in a second."""
    seeds = [_critical_seeds(curve, th, config.delta0, rays)
             for th, rays in zip(thetas, tables)]
    trajs = iter(tracer(curve, [s for ss in seeds for s in ss], config))
    critical = [{s.origin[1:3]: next(trajs) for s in ss} for ss in seeds]
    births = [_births(curve, th, crit, config) if generations else []
              for th, crit in zip(thetas, critical)]
    children = iter(tracer(curve, [seed for bs in births for _, _, seed in bs],
                           config))
    return [(crit, {key: (hit, next(children)) for key, hit, _ in bs})
            for crit, bs in zip(critical, births)]


def _trace_each(curve, seeds, config):
    """trace for each seed: event refinement traces 1-3 rays at a phase,
    far below the 32 lanes from which trace_lanes is faster."""
    return [trace(curve, s, config) for s in seeds]


def _scan_events(curve, thetas, tables, config, window):
    """The events {("c"|"j", key, target_zero): signed miss} at each phase
    of a block: the zeros that its critical rays ("c", leaving out a ray's
    own zero) and then its junction children ("j") pass within the
    window, in key order.  The block's critical rays are traced as one
    batch of lanes and its children as a second, however few: a lane does
    not depend on its batch, so neither do a phase's events.
    """
    events = []
    for critical, children in _scan_points(curve, thetas, tables, config, 1,
                                           trace_lanes):
        legs = [("c", key, traj) for key, traj in critical.items()]
        legs += [("j", key, child) for key, (_, child) in children.items()]
        events.append({})
        for kind, key, traj in legs:
            for zi, z0 in enumerate(curve.ramification_points):
                if kind == "c" and zi == key[0]:
                    continue
                miss = _signed_miss(traj, z0, window)
                if miss is not None:
                    events[-1][(kind, key, zi)] = miss
    return events


class _EventTracer:
    """Traces one event's own rays at phases near its scan bracket.

    A "c" event needs its critical ray; a "j" event its two parent rays,
    whose first birth crossing seeds the child.  Each ray is re-found by
    its label with _critical_rays at the scan's seeding radius, so the
    rays at a phase depend on that phase alone.
    """

    def __init__(self, curve, event, delta0, window):
        self.curve, self.event = curve, event
        self.delta0, self.window = delta0, window

    def point(self, theta, config):
        """The event's scan point (critical, children) at theta."""
        kind, key, _ = self.event
        keys = [key] if kind == "c" else list(key)
        rays = {}
        for (zi, m), ray in zip(keys, _critical_rays(
                self.curve, [(theta, zi, m) for zi, m in keys], self.delta0)):
            rays.setdefault(zi, []).append((m,) + ray)
        point, = _scan_points(self.curve, [theta], [rays], config,
                              1 if kind == "j" else 0, _trace_each)
        return point

    def miss(self, theta, config):
        kind, key, zi = self.event
        critical, children = self.point(theta, config)
        if kind == "j" and key not in children:
            return None
        traj = critical[key] if kind == "c" else children[key][1]
        return _signed_miss(traj, self.curve.ramification_points[zi],
                            self.window)


def _web_trace_config(base, curve, fine):
    """Trace settings for finite-web work: the scan's (fine=False) or the
    assembly's (fine=True); both escape at 2.5 max|z0| + 3."""
    return TraceConfig(
        escape_radius=2.5 * max(abs(z) for z in curve.ramification_points) + 3.0,
        delta0=1e-5 if fine else base.delta0,
        delta_hit=1e-5 if fine else base.delta_hit,
        rk_tol=1e-10 if fine else max(base.rk_tol, 1e-7),
        h_max=min(base.h_max, 0.25) if fine else base.h_max,
        dedup_radius=base.dedup_radius, generation_cap=base.generation_cap)


def _endpoint_chain_correction(traj, idx, zero):
    """Missing chain piece between a truncated endpoint and the zero itself.

    Near a simple zero |u| grows like c * r^(1/3), so the missing integral
    of |u| over the last stretch of length r is (3/4) |u(endpoint)| * r.
    """
    x_i, x_j = traj.pair(idx)
    return 0.75 * abs(x_i - x_j) * abs(traj.points[idx] - zero)


def _assemble_web(curve, tracer, theta, config, period_map, residual_rel):
    """Trace an event's rays once at theta and assemble the web they form.

    The period is the chain integral of every leg up to the target zero,
    plus the missing end piece at each zero; the leg into the target must
    pass within 100 delta_hit of it.  The charge is the one that period
    matches to residual_rel.
    """
    kind, key, zi_target = tracer.event
    critical, children = tracer.point(theta, config)
    zeros = curve.ramification_points
    if kind == "c":
        end = critical[key]
        T = _endpoint_chain_correction(end, 0, zeros[key[0]])
    else:
        if key not in children:
            raise NumericalError("lost the junction child during web assembly")
        (zJ, ia, ta, ib, tb), end = children[key]
        trajA, trajB = critical[key[0]], critical[key[1]]
        T = (_interp_chain(trajA, ia, ta) + _interp_chain(trajB, ib, tb)
             + _endpoint_chain_correction(trajA, 0, zeros[key[0][0]])
             + _endpoint_chain_correction(trajB, 0, zeros[key[1][0]]))
    kmin, miss = _nearest(end.points, zeros[zi_target])
    if miss > 100 * config.delta_hit:
        raise NumericalError(
            f"assembled {'trajectory' if kind == 'c' else 'child'} misses "
            f"the zero by {miss:.2e}")
    T += end.chain[kmin] + _endpoint_chain_correction(end, kmin, zeros[zi_target])
    Z = cmath.exp(1j * theta) * T
    charge, res = identify_charge(Z, period_map, residual_rel)
    if kind == "c":
        return FiniteWeb(theta_star=theta, charge=charge,
                         topology="single_string", period=Z, residual=res,
                         zeros=(key[0], zi_target),
                         segments=[end.points[:kmin + 1]],
                         detail={"miss": miss})
    return FiniteWeb(theta_star=theta, charge=charge,
                     topology="three_string_junction", period=Z, residual=res,
                     zeros=(key[0][0], key[1][0], zi_target),
                     segments=[np.append(trajA.points[:ia + 1], zJ),
                               np.append(trajB.points[:ib + 1], zJ),
                               end.points[:kmin + 1]],
                     detail={"miss": miss, "junction": zJ})


# phases per scan block: about this many critical lanes in one batch.  On
# the full pentagon and hexagon sweeps, blocks of 256 lanes ran about 20%
# slower and blocks of 1000 or 2000 only 5-8% faster, while a block's
# arrays take 10-13 kB of peak memory per lane
SCAN_BLOCK_LANES = 500
# an event's bisection stops at a theta bracket narrower than this
THETA_TOL = 1e-6
# a web's phase arg Z_gamma may lie this far outside the grid or bisection
# bracket of an event that sees it
THETA_SLACK = 2.5e-4


def detect_bps(curve, lattice, theta_range, config=None, period_map=None,
               scan_step=math.pi / 300):
    """Scan a phase interval for finite webs and identify their charges.

    The grid phases are traced in blocks (see _scan_events), each block's
    critical rays found by one RayBook.rays_at call, and their events
    compared at consecutive phases.  A sign change of the signed miss
    distance between a trajectory and a zero of P0 is first traced once,
    with the scan config, at the theta* of each web already found within
    THETA_SLACK of its grid bracket; if it forms a web of that charge
    there, it is another leg of that web and ends.  Otherwise it is
    bisected at scan quality, to a bracket narrower than THETA_TOL, and
    its charge gamma identified there at 10 * RESIDUAL_REL; a charge
    already found ends it.  Otherwise the web's phase is theta* =
    arg Z_gamma from the period map, which must lie within THETA_SLACK of
    the bracket, and the event's rays are traced once at theta* with the
    assembly config for the web's period and residual, at RESIDUAL_REL.
    Supported topologies are single strings (a critical trajectory hits
    another zero) and three-string junctions (a first-generation child
    hits a zero); the scan looks no deeper.  A sign change that does not
    give a web is reported as a WebEventDropped warning.  Returns
    FiniteWeb records sorted by phase.
    """
    base = config or TraceConfig()
    cfg = _web_trace_config(base, curve, fine=False)
    fine = _web_trace_config(base, curve, fine=True)
    pm = period_map or PeriodMap.compute(curve, lattice)
    lo, hi = theta_range
    n_steps = max(2, int(math.ceil((hi - lo) / scan_step)))
    thetas = [lo + (hi - lo) * k / n_steps for k in range(n_steps + 1)]
    sep = min(abs(a - b)
              for i, a in enumerate(curve.ramification_points)
              for b in curve.ramification_points[i + 1:])
    window = 0.35 * sep

    ray_book = RayBook(curve, cfg.delta0)
    block = max(1, SCAN_BLOCK_LANES // (8 * len(curve.ramification_points)))
    scan = []
    for start in range(0, len(thetas), block):
        phases = thetas[start:start + block]
        scan += _scan_events(curve, phases, ray_book.rays_at(phases), cfg,
                             window)
    webs = []
    points = list(zip(thetas, scan))
    for (th_prev, prev_events), (th, events) in zip(points, points[1:]):
        for ev, m1 in events.items():
            m0 = prev_events.get(ev)
            if m0 is None or not ((m0 < 0) != (m1 < 0) or m0 == 0.0
                                  or m1 == 0.0):
                continue
            tracer = _EventTracer(curve, ev, cfg.delta0, window)
            if any(_is_leg_of(curve, tracer, web, cfg, pm) for web in webs
                   if th_prev - THETA_SLACK <= web.theta_star
                   <= th + THETA_SLACK):
                continue
            try:
                th_a, th_b = _bisect_event(
                    lambda t: tracer.miss(t, cfg), th_prev, th, m0, m1,
                    THETA_TOL, 80)
                estimate = 0.5 * (th_a + th_b)
                charge = _assemble_web(curve, tracer, estimate, cfg, pm,
                                       10 * RESIDUAL_REL).charge
                if any(w.charge == charge for w in webs):
                    continue
                # the web's mass exp(-i theta) Z is real and positive
                th_star = estimate + _wrap(cmath.phase(pm.Z(charge))
                                           - estimate)
                if not th_a - THETA_SLACK <= th_star <= th_b + THETA_SLACK:
                    raise NumericalError(
                        f"arg Z{charge.components} = {th_star!r} lies "
                        "outside the scan bracket")
                web = _assemble_web(curve, tracer, th_star, fine, pm,
                                    RESIDUAL_REL)
                if web.charge.components != charge.components:
                    raise ChargeIdentificationFailed(
                        f"the web at arg Z{charge.components} matches "
                        f"{web.charge.components}")
            except NumericalError as exc:
                _warn_dropped(ev, (th_prev, th), exc)
                continue
            webs.append(web)
    webs.sort(key=lambda w: w.theta_star)
    return webs


def _is_leg_of(curve, tracer, web, config, period_map):
    """Whether an event's rays, traced at a found web's phase, form a web
    of its charge at 10 * RESIDUAL_REL: the event is another leg of it."""
    try:
        charge = _assemble_web(curve, tracer, web.theta_star, config,
                               period_map, 10 * RESIDUAL_REL).charge
    except NumericalError:
        return False
    return charge == web.charge


def _warn_dropped(event, bracket, reason):
    kind, key, zi = event
    warnings.warn(
        f"finite-web event ({kind!r}, {key}, zero {zi}) in theta bracket "
        f"[{bracket[0]!r}, {bracket[1]!r}] dropped: {reason}",
        WebEventDropped, stacklevel=3)


def _bisect_event(miss_at, th_a, th_b, m_a, m_b, tol, max_iter):
    """Bisect a sign change of miss_at(theta) on [th_a, th_b], whose ends
    miss by m_a and m_b, down to a bracket narrower than tol.  A miss of
    exactly 0.0 is a recorded hit, and the bracket closes onto its phase."""
    for _ in range(max_iter):
        if m_a == 0.0 or m_b == 0.0:
            th_a = th_b = th_a if m_a == 0.0 else th_b
            break
        if th_b - th_a < tol:
            break
        mid = 0.5 * (th_a + th_b)
        m_mid = miss_at(mid)
        if m_mid is None:
            raise NumericalError(
                f"lost the event's trajectory at theta = {mid!r}: no birth "
                "crossing, or no approach within the window")
        if (m_mid < 0) == (m_a < 0):
            th_a, m_a = mid, m_mid
        else:
            th_b, m_b = mid, m_mid
    return th_a, th_b
