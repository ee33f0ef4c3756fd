"""Spectral curves of polynomial cubic differentials and their periods.

The geometry underneath everything in this package: a polynomial P0(z)
with simple zeroes defines the 3-sheeted branched cover

    Sigma = { (x, z) : x^3 + P0(z) = 0 },

ramified with index 3 over each zero of P0.  Closed contours on Sigma
carry periods  Z = contour integral of x dz, which form a homomorphism
from the integer charge lattice to the complex numbers.  The lattice
basis (one lifted contour per generator) and its antisymmetric
intersection pairing are *input data*; this module computes everything
that follows from them numerically: sheet continuation, closure checks,
and the basis periods.

Conventions: the three sheets over the basepoint z* are ordered
x_k = omega^k * x_0 with omega = exp(2*pi*i/3) and x_0 the principal
cube root of -P0(z*).  Sheet identity along any path is defined by
continuous tracking, never by a global branch choice.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import (
    AtRamificationPoint,
    NonSimpleRoots,
    OpenContour,
    SheetAmbiguity,
    ValidationError,
)

OMEGA = cmath.exp(2j * cmath.pi / 3)

#: default tolerance for root simplicity (pairwise distance)
EPS_ROOT = 1e-8
#: default keep-out radius around ramification points for paths
EPS_RAM = 1e-6


def cube_roots(v):
    """The three cube roots of v, principal one first."""
    r = v ** (1.0 / 3.0) if v != 0 else 0j
    return (r, r * OMEGA, r * OMEGA * OMEGA)


def nearest_root(rts, x):
    """Index of the entry of the triple rts nearest to x; the first wins a tie."""
    d = [abs(r - x) for r in rts]
    return d.index(min(d))


class Polynomial:
    """Dense polynomial with complex coefficients, lowest degree first."""

    def __init__(self, coefficients, eps_root=EPS_ROOT):
        coeffs = [complex(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            raise ValidationError("empty coefficient list")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise ValidationError("leading coefficient is zero")
        self.coefficients = coeffs
        self.degree = len(coeffs) - 1
        self.eps_root = eps_root

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def derivative(self):
        return Polynomial(
            [k * c for k, c in enumerate(self.coefficients)][1:] or [0j],
            eps_root=self.eps_root,
        )

    @property
    def leading_coefficient(self):
        return self.coefficients[-1]

    def coefficient_scale(self):
        return max(abs(c) for c in self.coefficients)

    def roots(self):
        """All roots, via companion-matrix eigenvalues polished by Newton.

        Raises NonSimpleRoots if any two roots are closer than eps_root.
        """
        if self.degree < 1:
            raise ValidationError("roots() needs degree >= 1")
        rts = np.roots(list(reversed(self.coefficients)))
        dp = self.derivative()
        polished = []
        for r in rts:
            r = complex(r)
            for _ in range(3):
                d = dp(r)
                if d != 0:
                    r = r - self(r) / d
            polished.append(r)
        scale = self.coefficient_scale()
        for r in polished:
            if abs(self(r)) > 1e-10 * scale * max(1.0, abs(r)) ** self.degree:
                raise ValidationError(
                    f"root residual too large at {r}: {abs(self(r)):.3e}")
        for i in range(len(polished)):
            for j in range(i + 1, len(polished)):
                if abs(polished[i] - polished[j]) < self.eps_root:
                    raise NonSimpleRoots(
                        f"roots {polished[i]} and {polished[j]} closer than "
                        f"{self.eps_root}")
        return polished


@dataclass
class LiftedPath:
    """A piecewise-linear base path with a chosen starting sheet.

    waypoints: complex z-values; consecutive points are joined by straight
    segments.  starting_sheet_value: x with x^3 + P0(z0) = 0 at the first
    waypoint, selecting the sheet on which the lift begins.
    """

    waypoints: list
    starting_sheet_value: complex

    def __post_init__(self):
        self.waypoints = [complex(w) for w in self.waypoints]
        self.starting_sheet_value = complex(self.starting_sheet_value)
        if len(self.waypoints) < 2:
            raise ValidationError("a lifted path needs at least two waypoints")

    def is_closed(self, tol=1e-12):
        return abs(self.waypoints[0] - self.waypoints[-1]) <= tol

    def validate(self, curve, eps_ram=None, sheet_tol=1e-8):
        """Check the keep-out radius and the on-curve start condition."""
        eps = curve.eps_ram if eps_ram is None else eps_ram
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            for zr in curve.ramification_points:
                if _point_segment_distance(zr, a, b) < eps:
                    raise ValidationError(
                        f"path segment {a} -> {b} passes within {eps} of "
                        f"ramification point {zr}")
        z0 = self.waypoints[0]
        res = abs(self.starting_sheet_value ** 3 + curve.polynomial(z0))
        if res > sheet_tol * max(1.0, curve.polynomial.coefficient_scale()):
            raise ValidationError(
                f"starting sheet value is off the curve (residual {res:.3e})")


def _point_segment_distance(p, a, b):
    d = b - a
    L2 = (d * d.conjugate()).real
    if L2 == 0:
        return abs(p - a)
    t = ((p - a) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


class SpectralCurve:
    """The 3-sheeted cover x^3 + P0(z) = 0 with a fixed basepoint frame."""

    def __init__(self, polynomial, basepoint=None, eps_ram=EPS_RAM):
        self.polynomial = polynomial
        self.eps_ram = eps_ram
        # a constant P0 has an unramified cover; useful for flow tests
        self.ramification_points = polynomial.roots() if polynomial.degree else []
        if basepoint is None:
            basepoint = self._pick_basepoint()
        basepoint = complex(basepoint)
        if abs(self.polynomial(basepoint)) == 0:
            raise ValidationError("basepoint sits on a zero of P0")
        self.basepoint = basepoint
        self.base_sheets = cube_roots(-self.polynomial(basepoint))

    def _pick_basepoint(self):
        if not self.ramification_points:
            return 0j
        center = sum(self.ramification_points) / len(self.ramification_points)
        spread = max(abs(z - center) for z in self.ramification_points)
        spread = max(spread, 1.0)
        cand = center + spread * (1.7 + 0.9j)
        while min(abs(cand - z) for z in self.ramification_points) < 100 * self.eps_ram:
            cand += spread * 0.3j
        return cand

    # --- sheet tracking ---

    def nearest_zero_distance(self, z):
        if not self.ramification_points:
            return float("inf")
        return min(abs(z - zr) for zr in self.ramification_points)

    def _track_step(self, x_prev, z_new, depth=0, z_prev=None):
        """One tracking step: nearest root at z_new, with margin control.

        Subdivides the step (straight in z) whenever the jump |x_new - x_prev|
        exceeds a third of the separation between sheets at the new point.
        """
        rts = cube_roots(-self.polynomial(z_new))
        i = nearest_root(rts, x_prev)
        x_new = rts[i]
        sep = min(abs(x_new - rts[(i + 1) % 3]), abs(x_new - rts[(i + 2) % 3]))
        if abs(x_new - x_prev) <= sep / 3.0:
            return x_new
        if depth >= 48 or z_prev is None:
            raise SheetAmbiguity(
                f"sheet tracking margin lost near z = {z_new}")
        mid = 0.5 * (z_prev + z_new)
        x_mid = self._track_step(x_prev, mid, depth + 1, z_prev)
        return self._track_step(x_mid, z_new, depth + 1, mid)

    def track_along(self, points, x_start):
        """Continue x_start through a chain of z points; returns the final x."""
        x = complex(x_start)
        for zp, zn in zip(points, points[1:]):
            x = self._track_step(x, zn, 0, zp)
        return x

    def continue_sheet(self, path: LiftedPath):
        """x-value at the end of a lifted path, by continuous tracking."""
        path.validate(self)
        x = path.starting_sheet_value
        for a, b in zip(path.waypoints, path.waypoints[1:]):
            x = self._segment_track(a, b, x)
        return x

    def _segment_track(self, a, b, x):
        # walk the segment with steps bounded by distance to ramification
        t = 0.0
        z = a
        while t < 1.0:
            dist = self.nearest_zero_distance(z)
            h = max(min(0.5 * dist / max(abs(b - a), 1e-300), 0.25), 1e-6)
            t_new = min(1.0, t + h)
            z_new = a + (b - a) * t_new
            x = self._track_step(x, z_new, 0, z)
            z, t = z_new, t_new
        return x

    def sheets_at(self, z, via=None):
        """Ordered sheet triple at z, continued from the basepoint.

        The default path is the straight segment from the basepoint,
        rerouted around any ramification point it passes too close to by
        a small polygonal arc of radius 10*eps_ram.  An explicit chain of
        intermediate z-values can be supplied instead (via).
        """
        z = complex(z)
        if self.nearest_zero_distance(z) < self.eps_ram:
            raise AtRamificationPoint(
                f"z = {z} is within {self.eps_ram} of a ramification point")
        if via is None:
            points = self._default_route(self.basepoint, z)
        else:
            points = [self.basepoint] + [complex(w) for w in via] + [z]
        x0 = self.track_along(points, self.base_sheets[0])
        return (x0, x0 * OMEGA, x0 * OMEGA * OMEGA)

    def _default_route(self, a, b):
        """Straight segment a -> b with detours around ramification points."""
        route = [a]
        blockers = []
        r_det = 10 * self.eps_ram
        for zr in self.ramification_points:
            if _point_segment_distance(zr, a, b) < r_det and abs(zr - a) > r_det and abs(zr - b) > r_det:
                d = b - a
                t = ((zr - a) * d.conjugate()).real / (d * d.conjugate()).real
                blockers.append((t, zr))
        for t, zr in sorted(blockers):
            d = (b - a) / abs(b - a)
            # half-turn polygonal arc on one fixed side of the travel line
            for k in range(7):
                ang = cmath.pi * k / 6.0
                route.append(zr - d * r_det * cmath.exp(-1j * ang))
        route.append(b)
        return route

    def label_of(self, z, x, frame=None):
        """Index k such that x is sheet k in the given frame triple at z."""
        return nearest_root(frame if frame is not None else self.sheets_at(z), x)


# --- charges and the lattice ---

@dataclass(frozen=True)
class Charge:
    """Integer vector in the fixed lattice basis."""

    components: tuple

    def __init__(self, components):
        object.__setattr__(self, "components", tuple(int(c) for c in components))

    def __add__(self, other):
        return Charge([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return Charge([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return Charge([-a for a in self.components])

    def __mul__(self, k):
        return Charge([int(k) * a for a in self.components])

    __rmul__ = __mul__

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def is_zero(self):
        return all(c == 0 for c in self.components)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.components) + ")"


class ChargeLattice:
    """Charge lattice data: rank, pairing matrix, basis contours."""

    def __init__(self, pairing, basis_contours, names=None):
        self.pairing_matrix = np.asarray(pairing, dtype=int)
        self.rank = self.pairing_matrix.shape[0]
        if self.pairing_matrix.shape != (self.rank, self.rank):
            raise ValidationError("pairing matrix must be square")
        if np.any(self.pairing_matrix + self.pairing_matrix.T != 0):
            raise ValidationError("pairing matrix must be antisymmetric")
        if len(basis_contours) != self.rank:
            raise ValidationError("need one basis contour per generator")
        self.basis_contours = list(basis_contours)
        self.names = list(names) if names else [f"gamma{i+1}" for i in range(self.rank)]

    def basis_charge(self, i):
        return Charge([1 if j == i else 0 for j in range(self.rank)])

    def charge(self, components):
        ch = Charge(components)
        if len(ch) != self.rank:
            raise ValidationError(
                f"charge has {len(ch)} components, lattice rank is {self.rank}")
        return ch

    def pairing(self, gamma: Charge, mu: Charge):
        g = np.asarray(gamma.components)
        m = np.asarray(mu.components)
        return int(g @ self.pairing_matrix @ m)

    def in_pairing_kernel(self, gamma: Charge):
        g = np.asarray(gamma.components)
        return bool(np.all(self.pairing_matrix @ g == 0))

    def validate(self, curve, closure_tol=1e-8):
        """Closure check for every basis contour (base point and sheet)."""
        for name, path in zip(self.names, self.basis_contours):
            if not path.is_closed(tol=1e-10):
                raise OpenContour(f"contour {name} does not close in the base")
            x_end = curve.continue_sheet(path)
            scale = max(1.0, abs(path.starting_sheet_value))
            if abs(x_end - path.starting_sheet_value) > closure_tol * scale:
                raise OpenContour(
                    f"contour {name} returns on the wrong sheet "
                    f"(|dx| = {abs(x_end - path.starting_sheet_value):.3e})")


# --- periods ---

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _segment_period(curve, a, b, x_start, rel_tol=1e-9):
    """integral of x dz over the segment a -> b with tracked sheet.

    Composite Gauss panels, doubled until the relative change drops below
    rel_tol.  Returns (integral, x at b).
    """
    prev = None
    panels = 1
    while panels <= 1024:
        total = 0j
        x = x_start
        z_run = a
        for p in range(panels):
            za = a + (b - a) * (p / panels)
            zb = a + (b - a) * ((p + 1) / panels)
            mid = 0.5 * (za + zb)
            half = 0.5 * (zb - za)
            acc = 0j
            for t, w in zip(_GL_NODES, _GL_WEIGHTS):
                zz = mid + half * t
                x = curve._track_step(x, zz, 0, z_run)
                z_run = zz
                acc += w * x
            total += half * acc
            x = curve._track_step(x, zb, 0, z_run)
            z_run = zb
        if prev is not None and abs(total - prev) <= rel_tol * max(1.0, abs(total)):
            return total, x
        prev = total
        panels *= 2
    raise SheetAmbiguity(f"quadrature on segment {a} -> {b} did not settle")


def contour_period(curve: SpectralCurve, path: LiftedPath, rel_tol=1e-9):
    """Period of x dz along one lifted contour."""
    path.validate(curve)
    total = 0j
    x = path.starting_sheet_value
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        val, x = _segment_period(curve, a, b, x, rel_tol)
        total += val
    return total


class PeriodMap:
    """Basis periods frozen into a linear map Charge -> complex."""

    def __init__(self, basis_values):
        self.basis_values = np.asarray(basis_values, dtype=complex)
        self.rank = len(self.basis_values)

    @classmethod
    def compute(cls, curve, lattice, rel_tol=1e-9, validate=True):
        if validate:
            lattice.validate(curve)
        vals = [contour_period(curve, c, rel_tol) for c in lattice.basis_contours]
        return cls(vals)

    def Z(self, gamma: Charge):
        if len(gamma) != self.rank:
            raise ValidationError(
                f"charge has {len(gamma)} components, period map rank is "
                f"{self.rank}")
        return complex(np.dot(gamma.components, self.basis_values))

    def __call__(self, gamma):
        return self.Z(gamma)


# --- example definitions on disk ---

@dataclass
class CurveDefinition:
    """A curve + lattice bundle as loaded from a JSON definition."""

    name: str
    curve: SpectralCurve
    lattice: ChargeLattice
    meta: dict = field(default_factory=dict)


def _c2pair(c):
    return [c.real, c.imag]


def _pair2c(p):
    return complex(p[0], p[1])


def curve_to_json(defn: CurveDefinition):
    return {
        "schema_version": 1,
        "name": defn.name,
        "polynomial": {
            "coefficients": [_c2pair(c) for c in defn.curve.polynomial.coefficients],
        },
        "basepoint": _c2pair(defn.curve.basepoint),
        "lattice": {
            "pairing": defn.lattice.pairing_matrix.tolist(),
            "charges": defn.lattice.names,
            "contours": [
                {
                    "waypoints": [_c2pair(w) for w in path.waypoints],
                    "starting_sheet": _c2pair(path.starting_sheet_value),
                }
                for path in defn.lattice.basis_contours
            ],
        },
        "meta": defn.meta,
    }


def curve_from_json(doc) -> CurveDefinition:
    if doc.get("schema_version") != 1:
        raise ValidationError("unsupported curve schema_version")
    poly = Polynomial([_pair2c(p) for p in doc["polynomial"]["coefficients"]])
    curve = SpectralCurve(poly, basepoint=_pair2c(doc["basepoint"]))
    lat = doc["lattice"]
    contours = [
        LiftedPath([_pair2c(w) for w in c["waypoints"]], _pair2c(c["starting_sheet"]))
        for c in lat["contours"]
    ]
    lattice = ChargeLattice(lat["pairing"], contours, names=lat.get("charges"))
    return CurveDefinition(
        name=doc.get("name", "unnamed"),
        curve=curve,
        lattice=lattice,
        meta=doc.get("meta", {}),
    )


def load_curve_file(path) -> CurveDefinition:
    with open(path) as fh:
        return curve_from_json(json.load(fh))


EXAMPLE_NAMES = ("pentagon", "hexagon")


def load_example(name) -> CurveDefinition:
    """One of the two shipped example definitions: pentagon or hexagon."""
    if name not in EXAMPLE_NAMES:
        raise ValidationError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    ref = resources.files("trigon").joinpath(f"data/{name}.json")
    return curve_from_json(json.loads(ref.read_text()))
