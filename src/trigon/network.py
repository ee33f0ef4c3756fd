"""WKB trajectory tracing, network growth, and finite-web detection.

A trajectory with ordered sheet pair (x_i, x_j) solves

    (x_i(t) - x_j(t)) dz/dt = exp(i*theta),

integrated here in arclength form dz/ds = exp(i*theta) * conj(u)/|u|.
The sheets over z are x, omega*x and omega^2*x, so x_j = omega^k x_i with
k fixed at the seed: only x_i is tracked, one nearest cube root per RK
stage, and u = x_i - x_j.  Networks start from the 8
critical trajectories emanating from each simple zero of P0, then grow by
the junction birth rule: at every crossing whose labels chain as
(i,j),(j,k) a new trajectory labeled (i,k) is seeded at the crossing.
Each critical ray carries a label (zero, m), m = 0..7, from the local
model x^3 ~ -P0'(z0) (z - z0); the label is continuous in theta, so rays
at different phases match by label.

Finite webs (a trajectory running into a zero, or a junction child doing
so) are bracketed by bisecting the signed miss distance in theta, and
their charge is read off by matching the chain integral of x dz against
integer combinations of the basis periods.  A web of charge gamma exists
only at theta = arg Z_gamma, where its mass exp(-i*theta) Z_gamma is real
and positive, so the web's phase comes from the period map: each new
charge is traced once more, at arg Z_gamma and assembly quality, and an
event whose charge is already known stops at its scan-quality
identification.  The scan runs over blocks of grid phases holding about
SCAN_BLOCK_LANES critical rays.  A block's critical rays, from the
RayBook's table of labelled rays at each phase, are traced as one batch
of numpy lanes (trace_lanes); each phase's first-generation births are
found with one crossing search per ray against its later rays
(later_crossings); and the block's children are traced as a second batch
of lanes, however few, so a phase's events do not depend on its block.
Refining an event traces only that event's own rays with the scalar
trace: one critical ray, or two parents and their child, each re-found
by its label at the phase asked for.  An event that cannot be refined is
dropped with a WebEventDropped warning that says why.
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
    UnsupportedWebTopology,
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


def _ray_W(curve, z0, theta, delta0, phi, x_ref, p, q):
    z = z0 + delta0 * cmath.exp(1j * phi)
    rts = cube_roots(-curve.polynomial(z))
    x = rts[nearest_root(rts, x_ref)]
    triple = (x, x * OMEGA, x * OMEGA * OMEGA)
    W = cmath.exp(-1j * theta) * (triple[p] - triple[q]) * cmath.exp(1j * phi)
    return W, x, triple


def _bisect_ray(curve, z0, theta, delta0, phi_a, phi_b, x_ref, p, q):
    Wa, xa, _ = _ray_W(curve, z0, theta, delta0, phi_a, x_ref, p, q)
    Wb, _, _ = _ray_W(curve, z0, theta, delta0, phi_b, xa, p, q)
    if (Wa.imag < 0) == (Wb.imag < 0):
        return None
    for _ in range(60):
        mid = 0.5 * (phi_a + phi_b)
        Wm, xm, _ = _ray_W(curve, z0, theta, delta0, mid, xa, p, q)
        if (Wm.imag < 0) == (Wa.imag < 0):
            phi_a, Wa, xa = mid, Wm, xm
        else:
            phi_b, Wb = mid, Wm
        if abs(phi_b - phi_a) < 1e-13:
            break
    phi = 0.5 * (phi_a + phi_b)
    Wm, _, triple = _ray_W(curve, z0, theta, delta0, phi, xa, p, q)
    if Wm.real <= 0:
        return None
    return (phi % TWO_PI, (triple[p], triple[q]))


def _refine_ray(curve, z0, theta, delta0, phi0):
    """The critical direction within pi/8, half the rays' spacing, of phi0."""
    z = z0 + delta0 * cmath.exp(1j * phi0)
    x_ref = cube_roots(-curve.polynomial(z))[0]
    for p in range(3):
        for q in range(3):
            if p == q:
                continue
            r = _bisect_ray(curve, z0, theta, delta0, phi0 - math.pi / 8,
                            phi0 + math.pi / 8, x_ref, p, q)
            if r is not None:
                return r
    return None


def _critical_ray(curve, zi, m, theta, delta0):
    """The critical ray labelled m = 0..7 at zero zi: (phi, (x_p, x_q)).

    A direction phi is critical for the ordered pair (p, q) when
    W = exp(-i*theta) * (x_p - x_q) * exp(i*phi) at z0 + delta0 e^(i phi)
    lands on the positive real axis: the trajectory through that point
    then moves radially outward.  Near a simple zero z0 the local model
    x^3 ~ -P0'(z0) (z - z0) puts the 8 of them at

        phi_m = (3/4) (theta - arg(-P0'(z0))/3 - pi/6 - m pi/3)  mod 2 pi,

    continuous in theta for each label m.  The model direction is refined
    by bisecting W within pi/8 of it.
    """
    z0 = curve.ramification_points[zi]
    a = -curve.polynomial.derivative()(z0)
    phi0 = 0.75 * (theta - cmath.phase(a) / 3 - math.pi / 6
                   - m * math.pi / 3) % TWO_PI
    r = _refine_ray(curve, z0, theta, delta0, phi0)
    if r is None:
        raise NumericalError(f"lost critical ray {(zi, m)} at theta = {theta!r}")
    return r


class RayBook:
    """The labelled critical rays of every zero of P0 at one phase.

    rays_at(theta) is {zero: [(m, phi, pair)]} for m = 0..7.  A label
    names the same ray at every phase, so tables at different phases match
    by label and the book keeps no state between calls.  It stays a class
    because perfbench/tracing.py wraps RayBook.rays_at to count scan points.
    """

    def __init__(self, curve, delta0):
        self.curve = curve
        self.delta0 = delta0

    def rays_at(self, theta):
        return {zi: [(m,) + _critical_ray(self.curve, zi, m, theta, self.delta0)
                     for m in range(8)]
                for zi in range(len(self.curve.ramification_points))}


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
                           RayBook(curve, config.delta0).rays_at(theta))


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

class Trajectory:
    """A traced WKB trajectory: polyline, sheet pairs, chain integral.

    pairs[m] is (x_i, x_j) at point m: the tracked sheet and its partner
    omega^k x_i, with k in {1, 2} fixed along the trajectory.  chain[m] is
    the accumulated integral of |x_i - x_j| over arclength up to point m;
    the complex integral of (x_i - x_j) dz along the curve is
    exp(i*theta) * chain[m], a consequence of the trajectory equation.
    """

    __slots__ = ("points", "pairs", "chain", "status", "hit_zero", "seed", "theta")

    def __init__(self, points, pairs, chain, status, hit_zero, seed, theta):
        self.points = points
        self.pairs = pairs
        self.chain = chain
        self.status = status          # "escaped" | "hit_zero" | "truncated"
        self.hit_zero = hit_zero
        self.seed = seed
        self.theta = theta

    def __len__(self):
        return len(self.points)

    @property
    def origin_kind(self):
        return self.seed.origin[0]

    def points_array(self):
        return np.asarray(self.points, dtype=complex)

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
    pairs = [(x, rts[(i + k) % 3])]
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
        pairs.append((x, xj))
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

    return Trajectory(points, pairs, chain, status, hit, seed, seed.theta)


_ROTATION = np.array([1, OMEGA, OMEGA * OMEGA])


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
    fails the whole batch.
    """
    return list(_lane_trajectories(curve, seeds, config))


def _lane_trajectories(curve, seeds, config):
    """trace_lanes as an iterator: each lane's Trajectory is built only
    when it is reached, as a lane in list form takes about five times the
    memory of its arrays."""
    if not seeds:
        return
    z, x, chain, k, ends, status, hit_zero = _trace_lanes(curve, seeds, config)
    start = 0
    for a, seed in enumerate(seeds):
        end = ends[a]
        xs = x[start:end]
        yield Trajectory(z[start:end].tolist(),
                         list(zip(xs.tolist(), (xs * _ROTATION[k[a]]).tolist())),
                         chain[start:end].tolist(), status[a], hit_zero[a],
                         seed, seed.theta)
        start = end


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
            a0 = pA[sa:ea][:, None]
            d1 = (pA[sa + 1:ea + 1] - pA[sa:ea])[:, None]
            b0 = pB[sb:eb][None, :]
            d2 = (pB[sb + 1:eb + 1] - pB[sb:eb])[None, :]
            w = b0 - a0
            den = (d1.conjugate() * d2).imag
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (w.conjugate() * d2).imag / den
                s = (w.conjugate() * d1).imag / den
            mask = (np.abs(den) > 1e-30) & (t >= 0) & (t < 1) & (s >= 0) & (s < 1)
            for ia_loc, ib_loc in zip(*np.nonzero(mask)):
                ia, ib = sa + int(ia_loc), sb + int(ib_loc)
                tt = float(t[ia_loc, ib_loc])
                ss = float(s[ia_loc, ib_loc])
                zc = pA[ia] + (pA[ia + 1] - pA[ia]) * tt
                out.append((complex(zc), ia, tt, ib, ss))
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
            a0 = pA[sa:ea][:, None]
            d1 = (pA[sa + 1:ea + 1] - pA[sa:ea])[:, None]
            b0 = s0[g][None, :]
            d2 = (s1[g] - s0[g])[None, :]
            w = b0 - a0
            den = (d1.conjugate() * d2).imag
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (w.conjugate() * d2).imag / den
                s = (w.conjugate() * d1).imag / den
            mask = (np.abs(den) > 1e-30) & (t >= 0) & (t < 1) & (s >= 0) & (s < 1)
            for ia_loc, ib_loc in zip(*np.nonzero(mask)):
                ia, gb = sa + int(ia_loc), int(g[ib_loc])
                b = int(owner[gb])
                tt = float(t[ia_loc, ib_loc])
                ss = float(s[ia_loc, ib_loc])
                zc = pA[ia] + (pA[ia + 1] - pA[ia]) * tt
                out.setdefault((a, b), []).append(
                    (complex(zc), ia, tt, gb - int(starts[b]), ss))
    return out


def _interp_pair(traj, idx, t):
    a0, b0 = traj.pairs[idx]
    a1, b1 = traj.pairs[idx + 1]
    return (a0 + (a1 - a0) * t, b0 + (b1 - b0) * t)


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
        pairA = [rts[nearest_root(rts, v)] for v in _interp_pair(trajA, ia, ta)]
        pairB = [rts[nearest_root(rts, v)] for v in _interp_pair(trajB, ib, tb)]
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
        arrays = [t.points_array() for t in trajectories]
        for i in frontier:
            for j in range(len(trajectories)):
                key = (min(i, j), max(i, j))
                if i == j or key in tested:
                    continue
                tested.add(key)
                a, b = key
                for kind, hit, child_pair in _crossings(
                        curve, trajectories[a], trajectories[b],
                        polyline_intersections(arrays[a], arrays[b]),
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
    occupied = {}
    for ti, traj in enumerate(net.trajectories):
        ang = cmath.phase(traj.points[-1]) % TWO_PI
        k = min(range(len(grid)), key=lambda i: abs(_wrap(ang - grid[i])))
        err = abs(_wrap(ang - grid[k]))
        if err > 0.4 * step:
            raise PatternViolation(
                f"trajectory {ti} escapes {err:.3f} rad off the direction grid")
        occupied.setdefault(k, []).append(ti)
    if len(occupied) != 2 * n + 6:
        raise PatternViolation(
            f"{len(occupied)} asymptotic directions occupied, expected {2 * n + 6}")

    R = max(abs(t.points[-1]) for t in net.trajectories)
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
            traj = net.trajectories[ti]
            zf = traj.points[-1]
            xf = x_frame
            zc = R * cmath.exp(1j * cmath.phase(zf))
            for m in range(1, 5):
                rts = cube_roots(-curve.polynomial(zc + (zf - zc) * m / 4.0))
                xf = rts[nearest_root(rts, xf)]
            fr = (xf, xf * OMEGA, xf * OMEGA * OMEGA)
            labels.add(tuple(nearest_root(fr, v) for v in traj.pairs[-1]))
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


def identify_charge(Z_web, period_map, residual_rel=1e-4, max_coeff=4):
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


def _signed_miss(traj, z0, window):
    """Signed closest approach of a trajectory to the zero z0.

    Positive when the zero lies to the left of the travel direction;
    exactly 0.0 for a recorded hit.  None when the approach is farther
    than the window or happens at the very start of the polyline.
    """
    pts = traj.points
    d = [abs(p - z0) for p in pts]
    k = d.index(min(d))
    if traj.status == "hit_zero" and d[k] < window:
        return 0.0
    if d[k] > window or k == 0:
        return None
    v = pts[k + 1] - pts[k] if k < len(pts) - 1 else pts[k] - pts[k - 1]
    sgn = (v.conjugate() * (z0 - pts[k])).imag
    return d[k] if sgn >= 0 else -d[k]


class _ScanPoint:
    """Sweep state at one phase: the critical trajectories {(zero, m):
    trajectory} of a ray table plus their first-generation junction
    children, one per pair of rays, born at the pair's first birth
    crossing along the lower-keyed ray."""

    def __init__(self, theta, critical):
        self.theta = theta
        self.critical = critical
        self.children = {}
        self.child_meta = {}

    def births(self, curve, config):
        """[(pair key, hit, child seed)] in key order: one crossing search
        per ray against all later rays."""
        keys = sorted(self.critical)
        hits = later_crossings([self.critical[k].points_array() for k in keys])
        out = []
        for (a, b), pair_hits in sorted(hits.items()):
            ka, kb = keys[a], keys[b]
            for kind, hit, child_pair in _crossings(
                    curve, self.critical[ka], self.critical[kb], pair_hits,
                    config.dedup_radius, []):
                if kind == "birth":
                    out.append(((ka, kb), hit, TrajectorySeed(
                        z=hit[0], pair=child_pair, origin=("junction", ka, kb),
                        theta=self.theta)))
                    break
        return out


def _misses(curve, kind, key, traj, window):
    """{(kind, key, zero): signed miss} for the zeros a trajectory passes
    within the window, leaving out a critical ray's own zero.  kind is "c"
    for a critical ray and "j" for a junction child: together they are a
    scan point's events."""
    out = {}
    for zi, z0 in enumerate(curve.ramification_points):
        if kind == "c" and zi == key[0]:
            continue
        miss = _signed_miss(traj, z0, window)
        if miss is not None:
            out[(kind, key, zi)] = miss
    return out


def _scan_point(curve, theta, rays, config, generations):
    """The scan point of one ray table, traced in full with trace."""
    seeds = _critical_seeds(curve, theta, config.delta0, rays)
    point = _ScanPoint(theta, {s.origin[1:3]: trace(curve, s, config)
                               for s in seeds})
    if generations >= 1:
        for key, hit, seed in point.births(curve, config):
            point.children[key] = trace(curve, seed, config)
            point.child_meta[key] = hit
    return point


def _scan_events(curve, thetas, tables, config, window, generations):
    """The events {("c"|"j", key, target_zero): signed miss} at each phase
    of a block, critical rays first, in key order.

    Every critical ray of the block is traced in one batch of lanes, then
    every first-generation child in a second, however few: a lane does
    not depend on its batch, so neither do a phase's events.  A phase's
    critical trajectories are dropped once its births and misses are
    known, so the block is held in list form one phase at a time.
    """
    seeds = [_critical_seeds(curve, th, config.delta0, rays)
             for th, rays in zip(thetas, tables)]
    trajs = _lane_trajectories(curve, [s for ss in seeds for s in ss], config)
    events, births = [], []
    for th, ss in zip(thetas, seeds):
        point = _ScanPoint(th, {s.origin[1:3]: next(trajs) for s in ss})
        births.append(point.births(curve, config) if generations >= 1 else [])
        events.append({})
        for key, traj in point.critical.items():
            events[-1].update(_misses(curve, "c", key, traj, window))
    del trajs
    children = _lane_trajectories(curve, [b[2] for bs in births for b in bs],
                                  config)
    for ev, bs in zip(events, births):
        for key, _, _ in bs:
            ev.update(_misses(curve, "j", key, next(children), window))
    return events


def _ray_keys(event):
    """The (zero, label) keys of the critical rays an event is about."""
    kind, key, _ = event
    return [key] if kind == "c" else list(key)


class _EventTracer:
    """Traces one event's own rays at phases near its scan bracket.

    A "c" event needs its critical ray; a "j" event its two parent rays,
    whose first birth crossing seeds the child.  Each ray is re-found by
    its label with _critical_ray at the scan's seeding radius, not through
    RayBook.rays_at, so the rays at a phase depend on that phase alone.
    """

    def __init__(self, curve, event, delta0, window):
        self.curve, self.event = curve, event
        self.delta0, self.window = delta0, window

    def point(self, theta, config):
        rays = {}
        for zi, m in _ray_keys(self.event):
            rays.setdefault(zi, []).append(
                (m,) + _critical_ray(self.curve, zi, m, theta, self.delta0))
        return _scan_point(self.curve, theta, rays, config,
                           generations=1 if self.event[0] == "j" else 0)

    def miss(self, theta, config):
        kind, key, zi = self.event
        point = self.point(theta, config)
        traj = (point.critical if kind == "c" else point.children).get(key)
        if traj is None:
            return None
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
    r = abs(traj.points[idx] - zero)
    u = abs(traj.pairs[idx][0] - traj.pairs[idx][1])
    return 0.75 * u * r


def _assemble_web(curve, tracer, theta, config, period_map, residual_rel,
                  charge_box):
    """Trace an event's rays once at theta and assemble the web they form.

    The period is the chain integral of every leg up to the target zero,
    plus the missing end piece at each zero; the leg into the target must
    pass within 100 delta_hit of it.  The charge is the one that period
    matches to residual_rel.
    """
    kind, key, zi_target = tracer.event
    point = tracer.point(theta, config)
    zeros = curve.ramification_points
    if kind == "c":
        end = point.critical[key]
        T = _endpoint_chain_correction(end, 0, zeros[key[0]])
    else:
        end = point.children.get(key)
        if end is None:
            raise NumericalError("lost the junction child during web assembly")
        zJ, ia, ta, ib, tb = point.child_meta[key]
        trajA, trajB = point.critical[key[0]], point.critical[key[1]]
        T = (_interp_chain(trajA, ia, ta) + _interp_chain(trajB, ib, tb)
             + _endpoint_chain_correction(trajA, 0, zeros[key[0][0]])
             + _endpoint_chain_correction(trajB, 0, zeros[key[1][0]]))
    d = [abs(p - zeros[zi_target]) for p in end.points]
    kmin = d.index(min(d))
    if d[kmin] > 100 * config.delta_hit:
        raise NumericalError(
            f"assembled {'trajectory' if kind == 'c' else 'child'} misses "
            f"the zero by {d[kmin]:.2e}")
    T += end.chain[kmin] + _endpoint_chain_correction(end, kmin, zeros[zi_target])
    Z = cmath.exp(1j * theta) * T
    charge, res = identify_charge(Z, period_map, residual_rel, charge_box)
    if kind == "c":
        return FiniteWeb(theta_star=theta, charge=charge,
                         topology="single_string", period=Z, residual=res,
                         zeros=(key[0], zi_target),
                         segments=[end.points[:kmin + 1]],
                         detail={"miss": d[kmin]})
    return FiniteWeb(theta_star=theta, charge=charge,
                     topology="three_string_junction", period=Z, residual=res,
                     zeros=(key[0][0], key[1][0], zi_target),
                     segments=[trajA.points[:ia + 1] + [zJ],
                               trajB.points[:ib + 1] + [zJ],
                               end.points[:kmin + 1]],
                     detail={"miss": d[kmin], "junction": zJ})


# phases per scan block: about this many critical lanes in one batch.  On
# the full pentagon and hexagon sweeps, blocks of 256 lanes ran about 20%
# slower and blocks of 1000 or 2000 only 5-8% faster, while a block's
# arrays take 10-13 kB of peak memory per lane
SCAN_BLOCK_LANES = 500


def detect_bps(curve, lattice, theta_range, config=None, period_map=None,
               scan_step=math.pi / 300, residual_rel=1e-4, charge_box=4,
               theta_tol=1e-6, scan_generations=1):
    """Scan a phase interval for finite webs and identify their charges.

    The grid phases are traced in blocks (see _scan_events) and their
    events compared at consecutive phases.  Each sign change of the signed miss distance between a trajectory and
    a zero of P0 is bisected at scan quality, and the charge gamma is
    identified there at 10 * residual_rel.  An event of a charge already
    found ends there.  Otherwise the web's phase is theta* = arg Z_gamma
    from the period map, which must lie within 2.5e-4 of the bracket, and
    the event's rays are traced once at theta* with the assembly config
    for the web's period and residual.  Supported topologies are single
    strings (a critical trajectory hits another zero) and three-string
    junctions (a first-generation child hits a zero); deeper-generation
    webs are outside the supported set.  A sign change that does not give
    a web is reported as a WebEventDropped warning.  Returns FiniteWeb
    records sorted by phase.
    """
    if scan_generations > 1:
        raise UnsupportedWebTopology(
            "only single strings and three-string junctions are supported; "
            "scan_generations must be 1")
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
        scan += _scan_events(curve, phases,
                             [ray_book.rays_at(th) for th in phases], cfg,
                             window, scan_generations)
    webs = []
    seen = set()
    prev = None
    for th, events in zip(thetas, scan):
        if prev is not None:
            th_prev, prev_events = prev
            bracket = (th_prev, th)
            for ev, m1 in events.items():
                m0 = prev_events.get(ev)
                if m0 is None:
                    continue
                if not ((m0 < 0) != (m1 < 0) or m0 == 0.0 or m1 == 0.0):
                    continue
                tracer = _EventTracer(curve, ev, cfg.delta0, window)
                try:
                    th_a, th_b = _bisect_event(
                        lambda t: tracer.miss(t, cfg), th_prev, th, m0, m1,
                        theta_tol, 80)
                    estimate = 0.5 * (th_a + th_b)
                    charge = _assemble_web(curve, tracer, estimate, cfg, pm,
                                           10 * residual_rel,
                                           charge_box).charge
                    if charge.components in seen:
                        continue
                    # the web's mass exp(-i theta) Z is real and positive
                    th_star = estimate + _wrap(cmath.phase(pm.Z(charge))
                                               - estimate)
                    if not th_a - 2.5e-4 <= th_star <= th_b + 2.5e-4:
                        raise NumericalError(
                            f"arg Z{charge.components} = {th_star!r} lies "
                            "outside the scan bracket")
                    web = _assemble_web(curve, tracer, th_star, fine, pm,
                                        residual_rel, charge_box)
                    if web.charge.components != charge.components:
                        raise ChargeIdentificationFailed(
                            f"the web at arg Z{charge.components} matches "
                            f"{web.charge.components}")
                except NumericalError as exc:
                    _warn_dropped(ev, bracket, exc)
                    continue
                seen.add(charge.components)
                webs.append(web)
        prev = (th, events)
    webs.sort(key=lambda w: w.theta_star)
    return webs


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
