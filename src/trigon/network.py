"""WKB trajectory tracing, network growth, and finite-web detection.

A trajectory labelled by a sheet x_i and its partner x_j solves

    (x_i(t) - x_j(t)) dz/dt = exp(i*theta),

integrated here in arclength form dz/ds = exp(i*theta) * conj(u)/|u|.
The sheets over z are x, omega*x and omega^2*x, so x_j = omega^k x_i with
k in {1, 2}: the label (x_i, k) is what a ray, a seed and a trajectory
carry.  Only x_i is tracked, and u = x_i - x_j; a Trajectory holds
arrays of its points and x_i, and the index k.  One Cash-Karp step
(_cash_karp), which integrates and error-controls z alone, has two
drivers with one stage rule: trace for one seed on Python complex
numbers, and trace_lanes for a batch as numpy lanes.  An RK stage needs
only the phase of rho = -P0/x_i^3, which turns the direction at the last
accepted point, and x_i is continued by the one sheet rule
curve.continue_root only at a step's end (in trace_lanes by its array
form _lane_sheet).
Networks start from the 8 critical trajectories emanating
from each simple zero of P0, then grow by the junction birth rule: at
every crossing whose labels chain as (i,j),(j,l) a new trajectory
labeled (i,l) is seeded at the crossing, refined from the polyline
chords onto the parents' cubic Hermite segments (_refine_crossing).
Each critical ray carries a label (zero, m), m = 0..7, from the local
model x^3 ~ -P0'(z0) (z - z0), continuous in theta; _critical_rays finds
any list of labelled rays in one array bisection.

Finite webs (a trajectory running into a zero, or a junction child doing
so) are bracketed by the sign changes of the signed miss distance in
theta on a scan grid.  _scan_points builds the scan points of a list of
phases: their critical rays traced as one batch, each phase's
first-generation births found with one crossing search over all its
rays (later_crossings, one sort-and-sweep over every segment by left x),
and the children traced as a second batch.  The grid
runs it on blocks of about SCAN_BLOCK_LANES critical rays, found by one
RayBook.rays_at call and traced as numpy lanes (trace_lanes); no phase's
result depends on its block.  Each event's charge is read from the scan
point at the end of its grid bracket that passes nearer the zero, by
matching the web's period against integer combinations of the basis
periods.  The period is the integral of the holomorphic form u dz along
the web's legs (_leg_period), by a fixed Gauss-Legendre rule on each
chord and on the stretch into a zero, so a leg's integral depends on its
ends alone, however near the zero the trajectory passes; at a junction
the parents' u add up to the child's, and where the junction point lies
drops out.  A web of charge gamma exists only at theta = arg Z_gamma,
where its mass exp(-i*theta) Z_gamma is real and positive, so a charge
whose arg Z_gamma lies in the event's grid bracket settles it, and each
new charge is traced once more, at arg Z_gamma and assembly quality, on
the event's own rays with the scalar trace (_event_point).  An event
that gives no web is dropped with a WebEventDropped warning that says
why.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curve import (Charge, OMEGA, OMEGA_POWERS, PeriodMap, continue_root,
                    cube_roots, nearest_root, within_margin)
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
    """Wrap an angle difference into [-pi, pi)."""
    return (a + math.pi) % TWO_PI - math.pi


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass
class TraceConfig:
    """The tracing settings that differ between uses: the defaults grow
    networks, and _web_trace_config sets the finite-web scan's and
    assembly's escape_radius, delta0, delta_hit, rk_tol, h_max and
    zero_step.  Both tracers cap a step at zero_step * dist + delta_hit/2,
    dist being the distance to the nearest zero of P0."""

    escape_radius: float = None      # default: 4 * max |ramification| + 10
    delta0: float = 1e-4             # seed offset from a zero
    delta_hit: float = 1e-3          # "ran into a zero" radius
    rk_tol: float = 1e-9             # local error target per unit arclength
    h_max: float = 0.5
    zero_step: float = 0.1           # step cap per unit distance to a zero

    def resolved_escape_radius(self, curve):
        if self.escape_radius is not None:
            return self.escape_radius
        zs = curve.ramification_points
        return 4.0 * max((abs(z) for z in zs), default=0.0) + 10.0


# a step below H_MIN raises SheetAmbiguity
H_MIN = 1e-12
# a trace ends truncated past this arclength or at this many points
MAX_ARCLENGTH = 400.0
MAX_POINTS = 200000
# a trace ends escaped after this many consecutive outward steps past the
# escape radius
OUTWARD_STEPS = 20
# a crossing this close to a known junction or to either trajectory's
# first point is not a new one
DEDUP_RADIUS = 1e-4
# grow_network gives up after this many generations of junction children
GENERATION_CAP = 10


# ----------------------------------------------------------------------
# critical seeds
# ----------------------------------------------------------------------

@dataclass
class TrajectorySeed:
    z: complex
    x: complex                    # the sheet x_i at z
    k: int                        # its partner is x_j = omega^k x_i
    origin: tuple                 # ("critical", zero_idx, label m, phi)
                                  # or ("junction", parent_key_a, parent_key_b)
    theta: float


# halvings that take a critical ray's pi/4 bracket below 1e-13
_RAY_STEPS = math.ceil(math.log2(math.pi / 4 / 1e-13))
_PAIRS = np.array([(p, q) for p in range(3) for q in range(3) if p != q])


def _critical_rays(curve, rays, delta0):
    """The critical rays [(phi, x_p, k)] of a list of (theta, zero, m),
    k = (q - p) mod 3 indexing the partner x_q = omega^k x_p.

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
    diffs = OMEGA_POWERS[_PAIRS[:, 0]] - OMEGA_POWERS[_PAIRS[:, 1]]
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
    return list(zip((phi % TWO_PI).tolist(), (x * OMEGA_POWERS[p]).tolist(),
                    ((q - p) % 3).tolist()))


class RayBook:
    """The labelled critical rays of every zero of P0 at a block of phases.

    rays_at(thetas) is one table {zero: [(m, phi, x, k)]}, m = 0..7, per
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
                           x=x, k=k, origin=("critical", zi, m, phi),
                           theta=theta)
            for zi, entries in rays.items() for m, phi, x, k in entries]


def seed_critical(curve, theta):
    """All critical-trajectory seeds at one phase: 8 per zero of P0,
    TraceConfig().delta0 out from it."""
    delta0 = TraceConfig().delta0
    return _critical_seeds(curve, theta, delta0,
                           RayBook(curve, delta0).rays_at([theta])[0])


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

@dataclass(eq=False, slots=True)
class Trajectory:
    """A traced WKB trajectory: polyline and tracked sheet.

    points and x are arrays over the polyline's points: x[m] is the
    tracked sheet x_i at points[m], whose partner is omega^k x_i with k in
    {1, 2} fixed along the trajectory.  The sheet also gives the direction
    of travel, exp(i*theta) * conj(u)/|u| with u = x_i - x_j, and the
    period integrand u dz, which _leg_period integrates on the chords.
    """

    points: np.ndarray
    x: np.ndarray
    k: int
    status: str                   # "escaped" | "hit_zero" | "truncated"
    hit_zero: int
    seed: TrajectorySeed

    def __len__(self):
        return len(self.points)

    def sheet(self, m, t):
        """x_i a fraction t along segment m (at point m for t = 0)."""
        x = self.x[m]
        if t:
            x = x + (self.x[m + 1] - x) * t
        return x


def _seed_sheet(curve, seed):
    """(z, x_i, k) of a seed: its point, the root of -P0 there nearest its
    sheet, and its partner index k, which must be 1 or 2."""
    z = complex(seed.z)
    rts = cube_roots(-curve.polynomial(z))
    # on a zero of P0 the three roots coincide, whatever k says
    if seed.k not in (1, 2) or rts[0] == 0:
        raise ValidationError(f"seed label (k = {seed.k!r} at z = {z}) "
                              "selects a single sheet")
    return z, rts[nearest_root(rts, seed.x)], seed.k


def _cash_karp(rhs, z, h, f1):
    """One Cash-Karp step (orders 5 and 4) of dz/ds = f, with rhs(w) =
    (f, flag) and f1 = f(z), on Python complex numbers or on numpy lanes:
    (z5, |z5 - z4|, (flag at stages 2, ..., 6)).  Only z is integrated and
    error-controlled; a flag of 0 marks a stage on a zero of P0, the lanes'
    on-zero test (the scalar rhs raises there instead)."""
    f2, a2 = rhs(z + h * (1 / 5 * f1))
    f3, a3 = rhs(z + h * (3 / 40 * f1 + 9 / 40 * f2))
    f4, a4 = rhs(z + h * (3 / 10 * f1 - 9 / 10 * f2 + 6 / 5 * f3))
    f5, a5 = rhs(z + h * (-11 / 54 * f1 + 5 / 2 * f2 - 70 / 27 * f3
                          + 35 / 27 * f4))
    f6, a6 = rhs(z + h * (1631 / 55296 * f1 + 175 / 512 * f2
                          + 575 / 13824 * f3 + 44275 / 110592 * f4
                          + 253 / 4096 * f5))
    z5 = z + h * (37 / 378 * f1 + 250 / 621 * f3 + 125 / 594 * f4
                  + 512 / 1771 * f6)
    z4 = z + h * (2825 / 27648 * f1 + 18575 / 48384 * f3
                  + 13525 / 55296 * f4 + 277 / 14336 * f5 + 1 / 4 * f6)
    return z5, abs(z5 - z4), (a2, a3, a4, a5, a6)


def trace(curve, seed, config=None):
    """Integrate one trajectory until escape, a zero hit, or truncation.

    The scalar driver of _cash_karp, which integrates and error-controls
    the point z alone, with trace_lanes' stage rule on Python complex
    numbers: an RK stage at w turns f1 = exp(i*theta) conj(u)/|u|, the
    direction at the last accepted point, by exp(-i arg(rho)/3), rho =
    -P0(w)/x_i^3 with -1/x_i^3 taken once per accepted step, and rho == 0
    (a stage on a zero of P0) retries at h/4.  The sheet is continued by
    the rule of continue_root, x_i rho^(1/3), only at the step's end, and
    a step whose end sheet is not within_margin is halved.  The two
    tracers round differently (numpy's functions and _lane_sheet against
    cmath's and the complex power), so their accepted steps can drift
    apart slowly.
    """
    config = config or TraceConfig()
    eith = cmath.exp(1j * seed.theta)
    esc = config.resolved_escape_radius(curve)
    zeros = curve.ramification_points
    coeffs = tuple(reversed(curve.polynomial.coefficients))
    z, x, k = _seed_sheet(curve, seed)
    inv_cube = -1 / (x * x * x)
    gap = 1 - complex(OMEGA_POWERS[k])     # u = x_i - x_j = gap * x_i
    h_max, delta_hit, rk_tol = config.h_max, config.delta_hit, config.rk_tol
    zero_step = config.zero_step

    def rho_at(w):
        acc = 0j
        for c in coeffs:
            acc = acc * w + c
        return acc * inv_cube

    def rhs(w):
        # rho_at inlined: a call per stage slows trace by about 2%
        acc = 0j
        for c in coeffs:
            acc = acc * w + c
        rho = acc * inv_cube
        if rho == 0:
            raise SheetAmbiguity(f"RK stage on a zero of P0 at z = {w}")
        return f1 * cmath.rect(1.0, cmath.phase(rho) * (-1.0 / 3.0)), rho

    u = x * gap
    f1 = eith * u.conjugate() / abs(u)
    points = [z]
    xs = [x]
    s_total = 0.0
    dz = [abs(z - z0) for z0 in zeros]
    dist = min(dz, default=float("inf"))
    h = max(min(h_max, 0.05 * min(dz, default=1.0)), 64 * H_MIN)
    status, hit = "truncated", None
    outward = 0
    # the zero a trajectory starts from does not count as a hit until the
    # trajectory has genuinely left its neighborhood
    arm_radius = 4 * delta_hit
    disarmed = {n for n, d in enumerate(dz) if d < arm_radius}

    while True:
        h = min(h, h_max, zero_step * dist + 0.5 * delta_hit)
        if h < H_MIN:
            raise SheetAmbiguity(f"step size collapsed at z = {z}")
        try:
            z5, err, _ = _cash_karp(rhs, z, h, f1)
        except SheetAmbiguity:
            h *= 0.25
            if h < H_MIN:
                raise
            continue
        # absolute floor keeps tiny steps near zeros feasible at roundoff;
        # an error below it is rounding noise, which does not set the
        # next step: it differs between trace and trace_lanes
        floor = 4e-15 * (1.0 + abs(z))
        tol = rk_tol * h + floor
        if err > tol:
            h *= max(0.2, 0.9 * (tol / err) ** 0.25)
            continue
        x5 = x * rho_at(z5) ** (1.0 / 3.0)
        if not within_margin(x5, x):
            h *= 0.5
            continue
        prev = z
        z, x = z5, x5
        inv_cube = -1 / (x * x * x)
        s_total += h
        points.append(z)
        xs.append(x)
        u = x * gap       # the next step's first stage
        f1 = eith * u.conjugate() / abs(u)
        h = min(h_max,
                h * min(5.0, 0.9 * (tol / err) ** 0.2 if err > floor else 5.0))

        dz = [abs(z - z0) for z0 in zeros]
        dist = min(dz, default=float("inf"))
        if disarmed:
            disarmed = {n for n in disarmed if dz[n] < arm_radius}
        if dist < delta_hit and dz.index(dist) not in disarmed:
            status, hit = "hit_zero", dz.index(dist)
            break
        if abs(z) > esc:
            outward = outward + 1 if (z.conjugate() * (z - prev)).real > 0 else 0
            if outward >= OUTWARD_STEPS:
                status = "escaped"
                break
        if s_total > MAX_ARCLENGTH or len(points) >= MAX_POINTS:
            status = "truncated"
            break

    return Trajectory(np.array(points), np.array(xs), k, status, hit, seed)


def _lane_rho(coeffs, w, inv_cube):
    """rho = -P0(w)/x^3 per lane, given inv_cube = -1/x^3."""
    acc = np.full_like(w, coeffs[0])
    for c in coeffs[1:]:
        acc = acc * w + c
    return acc * inv_cube


def _unit(arg):
    """exp(i*arg) of a real array."""
    out = np.empty(arg.shape, complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _lane_sheet(coeffs, w, x, inv_cube):
    """continue_root(-P0(w), x) per lane, given -1/x^3: the array form of
    the one sheet rule, with the principal cube root spelled out (numpy's
    complex power is slower on lanes)."""
    rho = _lane_rho(coeffs, w, inv_cube)
    return (x * np.cbrt(np.abs(rho))
            * _unit(np.arctan2(rho.imag, rho.real) * (1.0 / 3.0)))


def trace_lanes(curve, seeds, config):
    """trace for many seeds at once: one Cash-Karp loop over numpy lanes.

    Each lane keeps its own step size and runs every test of trace: step
    collapse, the h/4 retry after an RK stage lands on a zero, error
    control, the sheet margin, the disarmed start zero, and the hit,
    outward-escape and truncation tests.  All live lanes attempt a step
    together and a finished lane leaves the arrays, so a lane's trajectory
    does not depend on the rest of its batch.  Its stage and sheet rules
    are trace's in array form: an RK stage at w needs only the direction,
    which depends on the phase of rho = -P0(w)/x_i^3 alone: the stage's
    sheet is x_i rho^(1/3), so f = f1 exp(-i arg(rho)/3), with f1 =
    exp(i*theta) conj(u)/|u| at the lane's last accepted point, and rho
    == 0 flags a stage on a zero of P0.  A stage takes no cube-root
    modulus, |u| or division; the sheet itself is continued only to the
    step's end, by _lane_sheet, for the margin test.  numpy and cmath
    round differently, so the two tracers' accepted steps can drift
    apart slowly.  A seed that trace would reject fails the whole batch.
    Each Trajectory's arrays are slices of the batch's.
    """
    if not seeds:
        return []
    n = len(seeds)
    esc = config.resolved_escape_radius(curve)
    zeros = np.asarray(curve.ramification_points, dtype=complex)
    coeffs = tuple(reversed(curve.polynomial.coefficients))
    arm_radius = 4 * config.delta_hit

    z, x, k = (np.array(v) for v in zip(*[_seed_sheet(curve, s)
                                          for s in seeds]))
    lane = np.arange(n)
    gap = 1 - OMEGA_POWERS[k]              # u = x_i - x_j = gap * x_i
    inv_cube = -1 / (x * x * x)     # x ** 3 takes numpy's slower complex power
    eith = np.array([cmath.exp(1j * s.theta) for s in seeds])
    status = ["truncated"] * n
    hit_zero = [None] * n

    def rhs(w):
        rho = _lane_rho(coeffs, w, inv_cube)
        return f1 * _unit(np.arctan2(rho.imag, rho.real) * (-1.0 / 3.0)), rho

    def distances(z):
        if not len(zeros):
            return np.full((len(z), 0), np.inf), np.full(len(z), np.inf)
        dz = np.abs(z[:, None] - zeros[None, :])
        return dz, dz.min(axis=1)

    with np.errstate(all="ignore"):
        # each accepted point as (lanes, index along the lane, z, x)
        records = [(lane, np.zeros(n, np.intp), z, x)]
        length = np.ones(n, dtype=np.intp)
        u = x * gap
        f1 = eith * u.conjugate() / np.abs(u)
        dz, dist = distances(z)
        h = np.maximum(np.minimum(config.h_max,
                                  0.05 * (dist if len(zeros) else 1.0)),
                       64 * H_MIN)
        disarmed = dz < arm_radius
        s_total = np.zeros(n)
        npts = np.ones(n, dtype=np.intp)
        outward = np.zeros(n, dtype=np.intp)

        while len(lane):
            h = np.minimum(np.minimum(h, config.h_max),
                           config.zero_step * dist + 0.5 * config.delta_hit)
            if (h < H_MIN).any():
                raise SheetAmbiguity(
                    f"step size collapsed at z = {z[h < H_MIN][0]}")
            z5, err, stages = _cash_karp(rhs, z, h, f1)
            on_zero = (np.array(stages) == 0).any(axis=0)
            floor = 4e-15 * (1.0 + np.abs(z))
            tol = config.rk_tol * h + floor
            too_big = ~on_zero & (err > tol)
            x5 = _lane_sheet(coeffs, z5, x, inv_cube)
            ok = ~on_zero & ~too_big & within_margin(x5, x)

            retry = h * np.where(on_zero, 0.25, np.where(
                too_big, np.maximum(0.2, 0.9 * (tol / err) ** 0.25), 0.5))
            if (on_zero & (retry < H_MIN)).any():
                raise SheetAmbiguity(
                    f"RK stage on a zero of P0 near z = "
                    f"{z[on_zero & (retry < H_MIN)][0]}")
            grown = np.minimum(config.h_max, h * np.where(
                err > floor, np.minimum(5.0, 0.9 * (tol / err) ** 0.2), 5.0))
            prev = z
            s_total = np.where(ok, s_total + h, s_total)
            h = np.where(ok, grown, retry)
            z = np.where(ok, z5, z)
            x = np.where(ok, x5, x)
            inv_cube = np.where(ok, -1 / (x5 * x5 * x5), inv_cube)
            u = x5 * gap
            f1 = np.where(ok, eith * u.conjugate() / np.abs(u), f1)
            records.append((lane[ok], npts[ok], z5[ok], x5[ok]))
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
            escaped = ~hit & outside & (outward >= OUTWARD_STEPS)
            truncated = ok & ~hit & ~escaped & (
                (s_total > MAX_ARCLENGTH) | (npts >= MAX_POINTS))
            done = hit | escaped | truncated
            if not done.any():
                continue
            for a in np.nonzero(hit)[0]:
                status[lane[a]], hit_zero[lane[a]] = "hit_zero", int(near[a])
            for a in np.nonzero(escaped)[0]:
                status[lane[a]] = "escaped"
            length[lane[done]] = npts[done]
            keep = ~done
            (lane, z, x, inv_cube, gap, eith, h, f1, dist, disarmed,
             s_total, npts, outward) = (v[keep] for v in (
                 lane, z, x, inv_cube, gap, eith, h, f1, dist, disarmed,
                 s_total, npts, outward))

    ends = np.cumsum(length)
    first = ends - length
    total = int(ends[-1])
    z, x = np.empty(total, complex), np.empty(total, complex)
    while records:
        lanes, at, zr, xr = records.pop()
        idx = first[lanes] + at
        z[idx], x[idx] = zr, xr
    return [Trajectory(z[a:b], x[a:b], int(kk), st, hz, seed)
            for a, b, kk, st, hz, seed in zip(first.tolist(), ends.tolist(),
                                              k, status, hit_zero, seeds)]


# ----------------------------------------------------------------------
# polyline intersections
# ----------------------------------------------------------------------

# candidate segment pairs the crossing search expands at once, which bounds
# its memory: on the hexagon census's largest call (theta = -0.5, 4524
# points, 55670 pairs) the tracemalloc peak is 0.64 MB, against 3.3 MB
# with every pair expanded at once
CROSSING_PAIRS = 2048


def polyline_intersections(pA, pB):
    """All transversal crossings (z, ia, ta, ib, tb) of two polylines, as
    later_crossings finds them, in order of (ia, ib)."""
    return later_crossings([pA, pB]).get((0, 1), [])


def _sorted_segments(polylines):
    """The segments of a list of polylines, sorted by left x: arrays of
    their polyline, their index along it, their start point and chord,
    and their x- and y-ranges [x0, x1] and [y0, y1]."""
    sizes = [len(p) for p in polylines]
    pts = np.concatenate([np.asarray(p, dtype=complex) for p in polylines]
                         + [np.empty(0, complex)])
    owner = np.repeat(np.arange(len(polylines)), sizes)
    # segment g runs from pts[g] to pts[g + 1] inside one polyline
    g = np.nonzero(owner[:-1] == owner[1:])[0]
    g = g[np.argsort(np.minimum(pts.real[g], pts.real[g + 1]), kind="stable")]
    s0, s1 = pts[g], pts[g + 1]
    owner = owner[g]
    first = np.cumsum(sizes, dtype=np.intp) - sizes
    return (owner, g - first[owner], s0, s1 - s0,
            np.minimum(s0.real, s1.real), np.maximum(s0.real, s1.real),
            np.minimum(s0.imag, s1.imag), np.maximum(s0.imag, s1.imag))


def _solve_pairs(owner, s0, d, i, j):
    """The pairs of segments (i, j) of _sorted_segments that cross, as
    arrays (ia, ib, ta, tb) with segment ia on the earlier polyline:
    z = s0[ia] + ta d[ia] = s0[ib] + tb d[ib] with ta and tb in [0, 1)
    and the chords not parallel."""
    swap = owner[i] > owner[j]
    ia, ib = np.where(swap, j, i), np.where(swap, i, j)
    d1, d2, w = d[ia], d[ib], s0[ib] - s0[ia]
    den = (d1.conjugate() * d2).imag
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w.conjugate() * d2).imag / den
        s = (w.conjugate() * d1).imag / den
    hit = (np.abs(den) > 1e-30) & (t >= 0) & (t < 1) & (s >= 0) & (s < 1)
    return ia[hit], ib[hit], t[hit], s[hit]


def later_crossings(polylines, new=0):
    """The transversal crossings of each polyline with every later one,
    for the pairs whose later polyline has index new or more.

    Returns {(a, b): hits} for a < b and b >= new, listing only pairs that
    cross, each hits list holding tuples (z, ia, ta, ib, tb), the crossing
    point and the segment and local parameter on a and on b, in order of
    (ia, ib).  One sort-and-sweep covers every segment of the call: sorted
    by left x, a segment's candidates are the segments after it whose left
    x is at most its right x.  The candidate pairs are expanded
    CROSSING_PAIRS at a time, and a pair on two polylines, the later of
    index new or more, whose y-ranges meet, is solved exactly:
    z = A0 + ta (A1 - A0) = B0 + tb (B1 - B0), a crossing when ta and tb
    lie in [0, 1) and the segments are not parallel.
    """
    owner, index, s0, d, x0, x1, y0, y1 = _sorted_segments(polylines)
    # segment i's candidates are the count[i] segments after it: pairs
    # begin[i], ..., begin[i] + count[i] - 1, and pair p is (i, p - base[i])
    seg = np.arange(len(x0))
    count = np.searchsorted(x0, x1, side="right") - seg - 1
    begin = np.cumsum(count) - count
    base = begin - seg - 1
    total = int(begin[-1] + count[-1]) if len(seg) else 0
    found, held, n_held = [], [], 0
    for lo in range(0, total, CROSSING_PAIRS):
        hi = min(lo + CROSSING_PAIRS, total)
        first, last = np.searchsorted(begin, (lo, hi), side="right") - 1
        span = slice(first, last + 1)
        take = (np.minimum(begin[span] + count[span], hi)
                - np.maximum(begin[span], lo))
        i = np.repeat(seg[span], take)
        j = np.arange(lo, hi) - np.repeat(base[span], take)
        oi, oj = owner[i], owner[j]
        keep = ((oi != oj) & (np.maximum(oi, oj) >= new)
                & (y0[i] <= y1[j]) & (y0[j] <= y1[i]))
        held.append((i[keep], j[keep]))
        n_held += len(held[-1][0])
        # kept pairs are solved together once they fill a slice
        if n_held >= CROSSING_PAIRS or hi == total:
            found.append(_solve_pairs(owner, s0, d,
                                      *map(np.concatenate, zip(*held))))
            held, n_held = [], 0
    if not found:
        return {}
    ia, ib, ta, tb = (np.concatenate(v) for v in zip(*found))
    z = s0[ia] + d[ia] * ta
    a, b, ia, ib = owner[ia], owner[ib], index[ia], index[ib]
    order = np.lexsort((ib, ia, b, a))
    out = {}
    for key, hit in zip(
            zip(a[order].tolist(), b[order].tolist()),
            zip(z[order].tolist(), ia[order].tolist(), ta[order].tolist(),
                ib[order].tolist(), tb[order].tolist())):
        out.setdefault(key, []).append(hit)
    return out


# Newton steps that move a chord crossing onto the Hermite segments
NEWTON_STEPS = 3


def _hermite(traj, m):
    """The cubic Hermite segment m of a trajectory, as a function of t in
    [0, 1] that returns (H(t), H'(t)).  It runs from points[m] to
    points[m + 1] with end tangents L f, where f = exp(i*theta) conj(u)/|u|
    is the unit direction read from the stored sheet and L the chord
    length, written as H(t) = p + t (d + (1 - t) ((1 - t) e0 + t e1)) with
    d the chord, e0 = L f(0) - d and e1 = d - L f(1)."""
    p = complex(traj.points[m])
    d = complex(traj.points[m + 1]) - p
    u = traj.x[m:m + 2] * (1 - OMEGA_POWERS[traj.k])
    f0, f1 = (cmath.exp(1j * traj.seed.theta) * u.conjugate()
              / np.abs(u)).tolist()
    e0, e1 = abs(d) * f0 - d, d - abs(d) * f1

    def at(t):
        s = 1 - t
        return (p + t * (d + s * (s * e0 + t * e1)),
                d + s * (1 - 3 * t) * e0 + t * (2 - 3 * t) * e1)
    return at


def _refine_crossing(trajA, trajB, hit):
    """A chord crossing (z, ia, ta, ib, tb) moved to where the two Hermite
    segments ia and ib cross, by NEWTON_STEPS Newton steps on
    H_A(ta) = H_B(tb) from the chord parameters.  The chord crossing is
    kept when Newton leaves either segment or meets parallel tangents."""
    _, ia, ta, ib, tb = hit
    A, B = _hermite(trajA, ia), _hermite(trajB, ib)
    for _ in range(NEWTON_STEPS):
        (za, da), (zb, db) = A(ta), B(tb)
        # da dta - db dtb = zb - za, solved for the real dta and dtb
        den = (db.conjugate() * da).imag
        if den == 0.0:
            return hit
        r = zb - za
        ta += (db.conjugate() * r).imag / den
        tb += (da.conjugate() * r).imag / den
    if not (0.0 <= ta <= 1.0 and 0.0 <= tb <= 1.0):
        return hit
    return (A(ta)[0], ia, ta, ib, tb)


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
    label: tuple                  # ordered sheet pair in the frame at infinity
    trajectories: list


@dataclass
class SpectralNetwork:
    theta: float
    trajectories: list
    junctions: list
    infinity_marks: list = field(default_factory=list)
    final_arcs: list = field(default_factory=list)    # (mid_angle, fading_sheet)
    bps_ful: bool = False

    @property
    def n_born(self):
        return len(self.junctions)


def _crossings(curve, trajA, trajB, hits, known):
    """Junction births and head-on collisions where two trajectories cross.

    Yields ("birth", hit, (x, k)) and ("head_on", hit, None) in order
    along trajA, for hits as polyline_intersections gives them for the
    two polylines: (z, ia, ta, ib, tb).  Both tracked sheets are
    continued to the chord crossing, where x_B = omega^r x_A.  Labels A =
    (x_A, omega^kA x_A) and B = (x_B, omega^kB x_B) chain when A's
    partner is x_B (r = kA) or B's partner is x_A (r = -kB): with
    kA + kB = 0 mod 3 the two run head-on, and otherwise the child is
    labeled (x_A, kA + kB mod 3) when r = kA and (x_B, kA + kB mod 3)
    when r = -kB.
    Crossings within DEDUP_RADIUS of a point in `known` or of
    either trajectory's first point are skipped (they are re-detections
    of an existing junction or of a child's own birth point), and each
    crossing yielded joins `known`.  A yielded crossing is refined onto
    the two Hermite segments (_refine_crossing), and the child's sheet is
    continued there.
    """
    kA, kB = trajA.k, trajB.k
    for hit in sorted(hits, key=lambda h: h[1] + h[2]):
        z, ia, ta, ib, tb = hit
        if any(abs(z - zk) < DEDUP_RADIUS
               for zk in known + [trajA.points[0], trajB.points[0]]):
            continue
        v = -curve.polynomial(z)
        xA = continue_root(v, trajA.sheet(ia, ta))
        xB = continue_root(v, trajB.sheet(ib, tb))
        r = nearest_root((xA, xA * OMEGA, xA * OMEGA * OMEGA), xB)
        if r not in (kA, -kB % 3):
            continue
        hit = _refine_crossing(trajA, trajB, hit)
        known.append(hit[0])
        if (kA + kB) % 3 == 0:
            yield ("head_on", hit, None)
        else:
            yield ("birth", hit, (continue_root(-curve.polynomial(hit[0]),
                                                xA if r == kA else xB),
                                  (kA + kB) % 3))


def grow_network(curve, theta, classify=True):
    """Grow the full network at one phase by the junction birth rule,
    every trajectory traced with the default TraceConfig.

    Each generation tests the pairs that hold a trajectory born in the
    last one, at the end of the list, with one later_crossings call: a
    pair (a, b) with a newborn a is tested before the pairs of a later
    newborn, and one with only b newborn at b's turn, so children are
    numbered in that order.  A network still growing after
    GENERATION_CAP generations raises GenerationCapExceeded, and a
    non-finite theta ValidationError."""
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    seeds = seed_critical(curve, theta)
    trajectories = [trace(curve, s) for s in seeds]
    junctions = []
    head_on = []
    new = 0
    generation = 0
    while new < len(trajectories):
        generation += 1
        if generation > GENERATION_CAP:
            raise GenerationCapExceeded(
                f"network still growing after {GENERATION_CAP} generations")
        known = [j.point for j in junctions] + head_on
        hits = later_crossings([t.points for t in trajectories], new)
        births = []
        for a, b in sorted(hits, key=lambda ab: ab if ab[0] >= new
                           else ab[::-1]):
            for kind, hit, label in _crossings(
                    curve, trajectories[a], trajectories[b], hits[a, b], known):
                if kind == "head_on":
                    head_on.append(hit[0])
                else:
                    births.append(((a, b), hit, label))
        new = len(trajectories)
        for key, hit, (x, k) in births:
            seed = TrajectorySeed(z=hit[0], x=x, k=k,
                                  origin=("junction", key[0], key[1]),
                                  theta=theta)
            trajectories.append(trace(curve, seed))
            junctions.append(Junction(point=hit[0], parents=key,
                                      child=len(trajectories) - 1,
                                      parent_params=((hit[1], hit[2]),
                                                     (hit[3], hit[4]))))

    net = SpectralNetwork(
        theta=theta,
        trajectories=trajectories,
        junctions=junctions,
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


def _outer_sheet(curve, z, phi):
    """The sheet (-a_n)^(1/3) |z|^(n/3) e^(i n phi/3) prod_k (1 - z_k/z)^(1/3)
    of x^3 + P0(z) = 0 at |z| > max|z_k| (z_k the zeros of P0), phi an
    argument of z.  Each 1 - z_k/z has a positive real part there, so the
    value is continuous in z and phi: one sheet with no tracking, which
    one turn (phi + 2 pi) multiplies by omega^n."""
    n = curve.polynomial.degree
    x = ((-curve.polynomial.leading_coefficient) ** (1.0 / 3.0)
         * abs(z) ** (n / 3.0) * cmath.exp(1j * n * phi / 3.0))
    for zk in curve.ramification_points:
        x *= (1 - zk / z) ** (1.0 / 3.0)
    return x


def classify_infinity(curve, net):
    """Snap escape directions onto the exact grid and label the marks.

    Labels are in one frame: sheet 0 is the principal cube root of -P0 at
    R e^(i ang0), R the largest |escape point| and ang0 the first mark's
    direction, carried by _outer_sheet, its argument lifted from ang0, to
    each escape point, which must lie outside the zeros (ValidationError).
    The first/last alternation of consecutive labels is validated, up to
    the shift n mod 3 of one turn around infinity, and the final arcs
    with their fading sheets are recorded on the network.
    """
    if not all(t.status == "escaped" for t in net.trajectories):
        raise ValidationError("classify_infinity needs every trajectory escaped")
    n = curve.polynomial.degree
    grid, step = direction_grid(curve, net.theta)
    ends = [complex(t.points[-1]) for t in net.trajectories]
    r_zeros = max((abs(zk) for zk in curve.ramification_points), default=0.0)
    occupied = {}
    for ti, zf in enumerate(ends):
        if abs(zf) <= r_zeros:
            raise ValidationError(
                f"trajectory {ti} ends at {zf:.3f}, not outside the zeros")
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

    ks = sorted(occupied)
    ang0 = grid[ks[0]]
    z0 = max(map(abs, ends)) * cmath.exp(1j * ang0)
    x0 = _outer_sheet(curve, z0, ang0)
    shift = OMEGA ** nearest_root((x0, x0 * OMEGA, x0 * OMEGA * OMEGA),
                                  cube_roots(-curve.polynomial(z0))[0])
    marks = []
    for k in ks:
        labels = set()
        for ti in occupied[k]:
            zf = ends[ti]
            xf = shift * _outer_sheet(curve, zf,
                                      grid[k] + _wrap(cmath.phase(zf) - grid[k]))
            traj = net.trajectories[ti]
            i = nearest_root((xf, xf * OMEGA, xf * OMEGA * OMEGA), traj.x[-1])
            labels.add((i, (i + traj.k) % 3))
        if len(labels) != 1:
            raise PatternViolation(
                f"conflicting labels {sorted(labels)} at direction {grid[k]:.4f}")
        marks.append(MarkedPoint(angle=grid[k], label=labels.pop(),
                                 trajectories=sorted(occupied[k])))

    _validate_alternation(curve, marks, net)
    net.infinity_marks = marks
    return marks


def _validate_alternation(curve, marks, net):
    """Consecutive labels share one index in alternating position."""
    n = curve.polynomial.degree
    m = len(marks)
    shared_pos = []
    for a in range(m):
        la = marks[a].label
        if a < m - 1:
            lb = marks[a + 1].label
        else:
            # first mark's label seen one turn on
            lb = tuple((s - n) % 3 for s in marks[0].label)
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
    for a in range(m):
        if shared_pos[a] == 1:
            b = (a + 1) % m
            mid = (marks[a].angle +
                   0.5 * ((marks[b].angle - marks[a].angle) % TWO_PI)) % TWO_PI
            net.final_arcs.append((mid, marks[a].label[1]))
    n_initial = m - len(net.final_arcs)
    if len(net.final_arcs) != n + 3 or n_initial != n + 3:
        raise PatternViolation(
            f"{len(net.final_arcs)} final / {n_initial} initial "
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


# a web's charge matches its period to RESIDUAL_REL relative, with
# coefficients in [-CHARGE_BOX, CHARGE_BOX]
RESIDUAL_REL = 1e-4
CHARGE_BOX = 4
# the box holds (2 CHARGE_BOX + 1)^rank candidates, which take 105 MB at
# rank 6 and nine times as much per further rank
MAX_CHARGE_RANK = 6


def _check_charge_rank(rank):
    if rank > MAX_CHARGE_RANK:
        raise ValidationError(
            f"charges of rank {rank} are not searched; the largest rank is "
            f"{MAX_CHARGE_RANK}")


def identify_charge(Z_web, period_map, residual_rel=RESIDUAL_REL):
    """Integer charge whose period matches Z_web, by bounded enumeration.

    The match must be unique inside the coefficient box; a second candidate
    within tolerance, or none at all, raises ChargeIdentificationFailed.  A
    rank above MAX_CHARGE_RANK raises ValidationError.
    """
    rank = period_map.rank
    _check_charge_rank(rank)
    rng = np.arange(-CHARGE_BOX, CHARGE_BOX + 1)
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


def _signed_miss(traj, zeros, zi, window):
    """Signed closest approach of a trajectory to the zero zeros[zi].

    Positive when the zero lies to the left of the travel direction;
    exactly 0.0 when the trajectory's recorded hit is this zero.  None
    when the approach is farther than the window or happens at the very
    start of the polyline.
    """
    if traj.hit_zero == zi:
        return 0.0
    pts, z0 = traj.points, zeros[zi]
    k, dk = _nearest(pts, z0)
    if dk > window or k == 0:
        return None
    v = pts[k + 1] - pts[k] if k < len(pts) - 1 else pts[k] - pts[k - 1]
    sgn = (v.conjugate() * (z0 - pts[k])).imag
    return dk if sgn >= 0 else -dk


def _births(curve, theta, critical):
    """[(pair key, hit, child seed)] of one phase's critical trajectories
    {(zero, m): trajectory}, in key order: a pair of rays has at most one
    child, born at its first birth crossing along the lower-keyed ray.
    One crossing search covers all the rays."""
    keys = sorted(critical)
    hits = later_crossings([critical[k].points for k in keys])
    out = []
    for (a, b), pair_hits in sorted(hits.items()):
        ka, kb = keys[a], keys[b]
        for kind, hit, label in _crossings(
                curve, critical[ka], critical[kb], pair_hits, []):
            if kind == "birth":
                out.append(((ka, kb), hit, TrajectorySeed(
                    z=hit[0], x=label[0], k=label[1],
                    origin=("junction", ka, kb), theta=theta)))
                break
    return out


def _scan_points(curve, thetas, tables, config, tracer):
    """The scan point (critical, children) of each phase, from its table
    of labelled rays: critical is {(zero, m): trajectory}, and children is
    {pair key: (birth hit, child)}, empty for a table of one ray.
    tracer(curve, seeds, config) traces every critical ray of every phase
    in one call, then every child in a second."""
    seeds = [_critical_seeds(curve, th, config.delta0, rays)
             for th, rays in zip(thetas, tables)]
    trajs = iter(tracer(curve, [s for ss in seeds for s in ss], config))
    critical = [{s.origin[1:3]: next(trajs) for s in ss} for ss in seeds]
    births = [_births(curve, th, crit) for th, crit in zip(thetas, critical)]
    children = iter(tracer(curve, [seed for bs in births for _, _, seed in bs],
                           config))
    return [(crit, {key: (hit, next(children)) for key, hit, _ in bs})
            for crit, bs in zip(critical, births)]


def _scan_events(curve, thetas, tables, config, window):
    """(events, scan point) at each phase of a block, the events
    {("c"|"j", key, target_zero): signed miss} being the zeros that its
    critical rays ("c", leaving out a ray's own zero) and then its
    junction children ("j") pass within the window, in key order.  The
    block's critical rays are traced as one batch of lanes and its
    children as a second, however few: a lane does not depend on its
    batch, so neither do a phase's events.
    """
    zeros = curve.ramification_points
    out = []
    for point in _scan_points(curve, thetas, tables, config, trace_lanes):
        critical, children = point
        legs = [("c", key, traj) for key, traj in critical.items()]
        legs += [("j", key, child) for key, (_, child) in children.items()]
        events = {}
        for kind, key, traj in legs:
            for zi in range(len(zeros)):
                if kind == "c" and zi == key[0]:
                    continue
                miss = _signed_miss(traj, zeros, zi, window)
                if miss is not None:
                    events[(kind, key, zi)] = miss
        out.append((events, point))
    return out


def _event_point(curve, event, theta, config):
    """The scan point (critical, children) of one event's own rays at
    theta, for the web's assembly.

    A "c" event needs its critical ray; a "j" event its two parent rays,
    whose first birth crossing seeds the child.  Each ray is re-found by
    its label with _critical_rays at the config's seeding radius delta0,
    so the rays at a phase depend on that phase alone.
    """
    kind, key, _ = event
    keys = [key] if kind == "c" else list(key)
    rays = {}
    for (zi, m), ray in zip(keys, _critical_rays(
            curve, [(theta, zi, m) for zi, m in keys], config.delta0)):
        rays.setdefault(zi, []).append((m,) + ray)
    # the scalar trace: 1-3 rays, far below the about 24 lanes from which
    # trace_lanes is faster (24-32 with either config, pentagon and
    # hexagon, best of 7 on a shared 2-vCPU machine)
    point, = _scan_points(curve, [theta], [rays], config,
                          lambda c, seeds, cf: [trace(c, s, cf) for s in seeds])
    return point


def _web_trace_config(curve, fine):
    """Trace settings for finite-web work: the scan's (fine=False), which
    loosens rk_tol to 1e-7 and zero_step to 0.125, or the assembly's
    (fine=True), which seeds and hits at 1e-5 with rk_tol 1e-10 and h_max
    0.25; both escape at 2.5 max|z0| + 3 and keep the other defaults.

    Near the zeros the scan's steps are set by the zero_step cap, not by
    rk_tol.  At 0.125 trace and trace_lanes stay within rounding of each
    other on the scan grid (3e-14 on the window_lanes test windows, 4e-11
    at 0.15); at 0.2 and above error control rejects some steps, and the
    two drift up to 4e-8 apart.  Growth and the assembly keep 0.1.
    """
    escape_radius = 2.5 * max(abs(z) for z in curve.ramification_points) + 3.0
    if fine:
        return TraceConfig(escape_radius=escape_radius, delta0=1e-5,
                           delta_hit=1e-5, rk_tol=1e-10, h_max=0.25)
    return TraceConfig(escape_radius=escape_radius, rk_tol=1e-7,
                       zero_step=0.125)


# Gauss-Legendre nodes per chord in a web leg's period
CHORD_NODES = 5
# the rule as numpy's leggauss(CHORD_NODES) returns it, bit for bit (a
# test checks it), so that importing trigon does not load numpy.polynomial
_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                   0.5384693101056831, 0.906179845938664])
_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663,
                     0.5688888888888887, 0.4786286704993663,
                     0.23692688505618928])


def _leg_period(curve, traj, polyline, start=None, end=None):
    """The integral of u dz = (x_i - x_j) dz along one leg of a web.

    The leg is a polyline whose chord m starts at traj.points[m] on the
    sheet traj.x[m]; each chord is integrated by the CHORD_NODES-point
    Gauss-Legendre rule, vectorised over the chords, with x_i continued
    to the nodes by _lane_sheet.  The form is holomorphic, so the result
    depends on the polyline's ends alone.  A leg that leaves the zero
    `start` or enters the zero `end` adds the straight stretch between it
    and the polyline's end (_from_zero).
    """
    coeffs = tuple(reversed(curve.polynomial.coefficients))
    gap = 1 - OMEGA_POWERS[traj.k]
    n = len(polyline) - 1
    a = polyline[:-1, None]
    half = 0.5 * (polyline[1:, None] - a)
    x = traj.x[:n, None]
    u = _lane_sheet(coeffs, a + half * (1 + _NODES), x, -1 / x ** 3) * gap
    Z = complex(np.sum(half[:, 0] * (u @ _WEIGHTS)))
    zeros = curve.ramification_points
    if start is not None:
        Z += _from_zero(coeffs, zeros[start], polyline[0], traj.x[0]) * gap
    if end is not None:
        Z -= _from_zero(coeffs, zeros[end], polyline[-1], traj.x[n]) * gap
    return complex(Z)


def _from_zero(coeffs, z0, p, x):
    """The integral of x_i dz from the simple zero z0 straight to p, where
    x_i = x: x_i grows like (z - z0)^(1/3), so on z = z0 + (p - z0) s^3 the
    integrand is smooth in s, and the Gauss-Legendre rule takes it."""
    s = 0.5 * (1 + _NODES)
    d = p - z0
    xs = _lane_sheet(coeffs, z0 + d * s ** 3, x, -1 / x ** 3)
    return 1.5 * d * np.sum(_WEIGHTS * s * s * xs)


def _web_legs(curve, event, point):
    """The legs [(trajectory, polyline, start zero, end zero)] of the web
    that an event's scan point forms, and the zeros it joins: a single
    string's from its zero up to its point nearest the target zero, a
    junction web's two parents from their zeros up to the junction point
    J, and the child from J up to its point nearest the target."""
    kind, key, zi_target = event
    critical, children = point
    if kind == "c":
        end = critical[key]
    elif key not in children:
        raise NumericalError("lost the junction child during web assembly")
    else:
        (zJ, ia, _, ib, _), end = children[key]
    kmin, _ = _nearest(end.points, curve.ramification_points[zi_target])
    if kind == "c":
        return ([(end, end.points[:kmin + 1], key[0], zi_target)],
                (key[0], zi_target))
    trajA, trajB = critical[key[0]], critical[key[1]]
    return ([(trajA, np.append(trajA.points[:ia + 1], zJ), key[0][0], None),
             (trajB, np.append(trajB.points[:ib + 1], zJ), key[1][0], None),
             (end, end.points[:kmin + 1], None, zi_target)],
            (key[0][0], key[1][0], zi_target))


def _assemble_web(curve, event, point, theta, config, period_map):
    """Assemble the web that an event's scan point, built at theta with
    config, forms: its legs (_web_legs), whose last must end within
    100 delta_hit of the target zero, and the charge that the sum of
    their periods matches to RESIDUAL_REL.
    """
    kind, _, zi_target = event
    legs, zeros = _web_legs(curve, event, point)
    miss = abs(complex(legs[-1][1][-1]) - curve.ramification_points[zi_target])
    if miss > 100 * config.delta_hit:
        raise NumericalError(
            f"assembled {'trajectory' if kind == 'c' else 'child'} misses "
            f"the zero by {miss:.2e}")
    Z = sum(_leg_period(curve, *leg) for leg in legs)
    charge, res = identify_charge(Z, period_map)
    return FiniteWeb(theta_star=theta, charge=charge,
                     topology=("single_string" if kind == "c"
                               else "three_string_junction"),
                     period=Z, residual=res, zeros=zeros,
                     segments=[polyline for _, polyline, _, _ in legs])


def _read_charge(Z, bracket, theta, period_map):
    """(charge, theta*) of the web whose period Z an event's scan point at
    theta, one end of its grid bracket, gives: the charge gamma that Z
    matches at 10 * RESIDUAL_REL, and theta* = arg Z_gamma on the branch
    nearest theta, which must lie within THETA_SLACK of the bracket."""
    charge, _ = identify_charge(Z, period_map, 10 * RESIDUAL_REL)
    arg = cmath.phase(period_map.Z(charge))
    th_star = arg + TWO_PI * round((theta - arg) / TWO_PI)
    if not bracket[0] - THETA_SLACK <= th_star <= bracket[1] + THETA_SLACK:
        raise NumericalError(f"arg Z{charge.components} = {th_star!r} "
                             "lies outside the grid bracket")
    return charge, th_star


# phases per scan block: about this many critical lanes in one batch.  On
# the full pentagon and hexagon sweeps (best of two runs on a shared
# 2-vCPU machine), blocks of 256 lanes ran 5-20% slower, and blocks of
# 1000 or 2000 from 15% slower to 20% faster, while a block's scan takes
# 7-8.5 kB of peak memory per lane (tracemalloc, full blocks of either
# example)
SCAN_BLOCK_LANES = 500
# a web's phase arg Z_gamma may lie this far outside the grid bracket of
# an event whose read gives its charge
THETA_SLACK = 2.5e-4
# a scan grid of more phase steps than this is refused: a full sweep
# takes 600, and each phase traces every critical ray
MAX_SCAN_PHASES = 100000


def _event_periods(curve, thetas, config, window):
    """[(event, bracket, theta, period)] for each event whose signed miss
    changes sign, or is a recorded hit (0.0), between consecutive grid
    phases: the period of its web's legs (_web_legs) at theta, the
    bracket end with the smaller |miss|.  The grid is traced in blocks
    (_scan_events), each block's rays found by one RayBook.rays_at call.
    The scan points are released on return, before any charge is read."""
    ray_book = RayBook(curve, config.delta0)
    block = max(1, SCAN_BLOCK_LANES // (8 * len(curve.ramification_points)))
    scan = itertools.chain.from_iterable(
        zip(phases, _scan_events(curve, phases, ray_book.rays_at(phases),
                                 config, window))
        for phases in (thetas[i:i + block]
                       for i in range(0, len(thetas), block)))
    out = []
    for (th0, (events0, point0)), (th1, (events1, point1)) in \
            itertools.pairwise(scan):
        for ev, m1 in events1.items():
            m0 = events0.get(ev)
            if m0 is None or not ((m0 < 0) != (m1 < 0) or m0 == 0.0
                                  or m1 == 0.0):
                continue
            theta, point = ((th0, point0) if abs(m0) <= abs(m1)
                            else (th1, point1))
            legs, _ = _web_legs(curve, ev, point)
            out.append((ev, (th0, th1), theta,
                        sum(_leg_period(curve, *leg) for leg in legs)))
    return out


def detect_bps(curve, lattice, theta_range, period_map=None,
               scan_step=math.pi / 300):
    """Scan a phase interval for finite webs and identify their charges.

    The grid phases are traced in blocks, and their events compared at
    consecutive phases, across blocks too.  At each sign
    change of the signed miss distance between a trajectory and a zero of
    P0, the period of the web's legs at the bracket end whose miss is
    smaller (_event_periods) gives the charge gamma (_read_charge), which
    settles the event when theta* = arg Z_gamma lies in the grid bracket.
    Once every event is read, they are taken in phase order: a charge
    already found
    ends its event, and a new one is traced once more, at theta* with the
    assembly config, for the web's period and residual at RESIDUAL_REL,
    and must still pass within 100 delta_hit of the zero and give gamma.
    Supported topologies are single strings (a critical trajectory hits
    another zero) and three-string junctions (a first-generation child
    hits a zero).  An event that gives no web is reported as a
    WebEventDropped warning.  A scan_step that is not positive and finite,
    a theta_range (lo, hi) that is not finite with lo < hi, a grid of
    more than MAX_SCAN_PHASES steps, or a lattice of rank above
    MAX_CHARGE_RANK raises ValidationError; a curve with fewer than two
    zeros has no finite web.  The scan and assembly trace settings are
    fixed, by _web_trace_config.  Returns FiniteWeb records sorted by
    phase.
    """
    lo, hi = theta_range
    if not (math.isfinite(scan_step) and scan_step > 0):
        raise ValidationError(f"scan step {scan_step!r} is not positive and finite")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"theta range ({lo!r}, {hi!r}) is not finite with lo < hi")
    # compared before ceil, which overflows on an infinite quotient
    if (hi - lo) / scan_step > MAX_SCAN_PHASES:
        raise ValidationError(
            f"scan step {scan_step!r} over ({lo!r}, {hi!r}) needs more than "
            f"{MAX_SCAN_PHASES} phase steps")
    if len(curve.ramification_points) < 2:
        return []
    pm = period_map or PeriodMap.compute(curve, lattice)
    _check_charge_rank(pm.rank)
    cfg = _web_trace_config(curve, fine=False)
    fine = _web_trace_config(curve, fine=True)
    n_steps = max(2, int(math.ceil((hi - lo) / scan_step)))
    thetas = [lo + (hi - lo) * k / n_steps for k in range(n_steps + 1)]
    sep = min(abs(a - b)
              for i, a in enumerate(curve.ramification_points)
              for b in curve.ramification_points[i + 1:])
    window = 0.35 * sep

    reads = []
    for ev, bracket, theta, Z in _event_periods(curve, thetas, cfg, window):
        try:
            reads.append((ev, bracket) + _read_charge(Z, bracket, theta, pm))
        except NumericalError as exc:
            _warn_dropped(ev, bracket, exc)
    webs = []
    for ev, bracket, charge, th_star in reads:
        if any(w.charge == charge for w in webs):
            continue
        try:
            web = _assemble_web(curve, ev,
                                _event_point(curve, ev, th_star, fine),
                                th_star, fine, pm)
            if web.charge.components != charge.components:
                raise ChargeIdentificationFailed(
                    f"the web at arg Z{charge.components} matches "
                    f"{web.charge.components}")
        except NumericalError as exc:
            _warn_dropped(ev, bracket, exc)
            continue
        webs.append(web)
    webs.sort(key=lambda w: w.theta_star)
    return webs


def _warn_dropped(event, bracket, reason):
    kind, key, zi = event
    warnings.warn(
        f"finite-web event ({kind!r}, {key}, zero {zi}) in theta bracket "
        f"[{bracket[0]!r}, {bracket[1]!r}] dropped: {reason}",
        WebEventDropped, stacklevel=3)
