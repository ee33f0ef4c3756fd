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

Conventions: there is no global sheet frame.  A sheet is named by a
starting value x with x^3 + P0(z) = 0 at some point z, and its identity
along a path is defined by continuous tracking from there.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NoConvergence, NonSimpleRoots, OpenContour, SheetAmbiguity,
                     ValidationError)

OMEGA = cmath.exp(2j * cmath.pi / 3)
OMEGA_POWERS = np.array([1.0, OMEGA, OMEGA * OMEGA])

#: roots of P0 closer than this (pairwise distance) are not simple
EPS_ROOT = 1e-8
#: keep-out radius around ramification points for paths
EPS_RAM = 1e-6
#: a lifted path's starting sheet value solves x^3 + P0 = 0 to this,
#: relative to max(1, the largest coefficient, |P0| at the start)
SHEET_TOL = 1e-8
#: a basis contour closes in the base to this distance, and its lift
#: returns to its starting sheet to this, relative to max(1, |x|)
BASE_CLOSURE_TOL = 1e-10
SHEET_CLOSURE_TOL = 1e-8
#: Gauss panels are doubled until a period changes by less than this,
#: relative to max(1, |period|)
PERIOD_REL_TOL = 1e-9


def cube_roots(v):
    """The three cube roots of v, principal one first."""
    r = v ** (1.0 / 3.0) if v != 0 else 0j
    return (r, r * OMEGA, r * OMEGA * OMEGA)


def nearest_root(rts, x):
    """Index of the entry of the triple rts nearest to x; the first wins a tie."""
    d = [abs(r - x) for r in rts]
    return d.index(min(d))


def continue_root(v, x):
    """The cube root of v nearest x, the rule that continues a sheet.

    It is x times the principal cube root of v/x^3, whose argument lies
    within pi/3 of 0: the three roots share one modulus and lie
    sqrt(3) |root| apart, so the nearest in angle is the nearest.
    """
    return x * (v / x ** 3) ** (1.0 / 3.0)


def within_margin(x_new, x):
    """Whether x_new, continued from x, is safely the root nearest x: within
    a third of the roots' separation sqrt(3) |x_new|.  Works on arrays."""
    return abs(x_new - x) <= abs(x_new) * (1 / math.sqrt(3))


class Polynomial:
    """Dense polynomial with complex coefficients, lowest degree first."""

    def __init__(self, coefficients):
        coeffs = [complex(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            raise ValidationError("empty coefficient list")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise ValidationError("leading coefficient is zero")
        self.coefficients = coeffs
        self.degree = len(coeffs) - 1

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def derivative(self):
        return Polynomial(
            [k * c for k, c in enumerate(self.coefficients)][1:] or [0j])

    @property
    def leading_coefficient(self):
        return self.coefficients[-1]

    def coefficient_scale(self):
        return max(abs(c) for c in self.coefficients)

    def roots(self):
        """All roots, via companion-matrix eigenvalues polished by Newton.

        Raises NonSimpleRoots if any two roots are closer than EPS_ROOT.
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
                if abs(polished[i] - polished[j]) < EPS_ROOT:
                    raise NonSimpleRoots(
                        f"roots {polished[i]} and {polished[j]} closer than "
                        f"{EPS_ROOT}")
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

    def validate(self, curve):
        """Check that every value is finite, the keep-out radius EPS_RAM
        and the on-curve start condition to SHEET_TOL."""
        if not all(map(cmath.isfinite,
                       self.waypoints + [self.starting_sheet_value])):
            raise ValidationError(
                "a lifted path's waypoints and starting sheet must be finite")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            for zr in curve.ramification_points:
                if _point_segment_distance(zr, a, b) < EPS_RAM:
                    raise ValidationError(
                        f"path segment {a} -> {b} passes within {EPS_RAM} of "
                        f"ramification point {zr}")
        z0 = self.waypoints[0]
        p0 = curve.polynomial(z0)
        res = abs(self.starting_sheet_value ** 3 + p0)
        if res > SHEET_TOL * max(1.0, curve.polynomial.coefficient_scale(),
                                 abs(p0)):
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
    """The 3-sheeted cover x^3 + P0(z) = 0."""

    def __init__(self, polynomial):
        self.polynomial = polynomial
        # a constant P0 has an unramified cover; useful for flow tests
        self.ramification_points = polynomial.roots() if polynomial.degree else []

    # --- sheet tracking ---

    def principal_root(self, z):
        """(c, arg c): the principal cube root of -P0 at z, and its
        argument, a third of arg(-P0) in (-pi/3, pi/3].  Works on arrays."""
        v = -self.polynomial(z)
        arg = np.angle(v) / 3.0
        return np.cbrt(np.abs(v)) * np.exp(1j * arg), arg

    def continue_sheet(self, z, x_start, depth=0):
        """The sheets x_start (one per row, at z[:, 0]) continued along the
        rows of the 2-d array z; returns x at z[:, 1:].

        The nearest-root rule of continue_root in array form: with c_k the
        principal cube root of -P0 at node k and c_k omega^j_k the root
        nearest the previous node's, x_k = c_k omega^s_k with
        s_k = s_(k-1) + j_k (mod 3); the first node is compared with
        x_start.  A step whose root is not within_margin of the previous
        one is bisected (straight in z) and tracked again, 48 levels deep
        at most, then SheetAmbiguity is raised.
        """
        x_start = np.asarray(x_start, dtype=complex)
        c, arg = self.principal_root(z[:, 1:])
        prev = np.concatenate((x_start[:, None], c[:, :-1]), axis=1)
        j = _turns(np.angle(prev), arg)
        for r, k in zip(*np.nonzero(~within_margin(c * OMEGA_POWERS[j], prev))):
            if depth >= 48:
                raise SheetAmbiguity(
                    f"sheet tracking margin lost near z = {z[r, k + 1]}")
            za, zb = z[r, k], z[r, k + 1]
            x_end = self.continue_sheet(np.array([[za, 0.5 * (za + zb), zb]]),
                                        prev[r, k:k + 1], depth + 1)[0, -1]
            j[r, k] = _turns(np.angle(x_end), arg[r, k])
        return c * OMEGA_POWERS[np.cumsum(j, axis=1) % 3]

    def track_along(self, points, x_start):
        """Continue x_start through a chain of z points; returns the final x."""
        x = self.continue_sheet(np.array([points], dtype=complex), [x_start])
        return complex(x[0, -1]) if x.size else complex(x_start)


def _turns(phase_from, phase_to):
    """The power j (mod 3) for which the cube root at phase_to times
    omega^j is nearest in angle (so nearest: the three roots share one
    modulus) to a value at phase_from.  Works on arrays."""
    return np.rint((phase_from - phase_to) * (1.5 / math.pi)).astype(int) % 3


# --- charges and the lattice ---

def as_integer(value, what):
    """value as an int; a bool, or a value that is not an integer (1.5,
    nan, "1"), raises ValidationError naming what it was read as."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if int(value) == value:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{what} must be an integer, not {value!r}")


@dataclass(frozen=True)
class Charge:
    """Integer vector in the fixed lattice basis."""

    components: tuple

    def __init__(self, components):
        object.__setattr__(self, "components", tuple(
            as_integer(c, "a charge component") for c in components))

    def __add__(self, other):
        return Charge([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return Charge([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return Charge([-a for a in self.components])

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def is_zero(self):
        return all(c == 0 for c in self.components)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.components) + ")"


class ChargeLattice:
    """Charge lattice data: rank, pairing matrix, basis contours, and one
    distinct name per generator (gamma1, gamma2, ... by default)."""

    def __init__(self, pairing, basis_contours, names=None):
        entries = np.asarray(pairing, dtype=object)
        self.pairing_matrix = np.array(
            [as_integer(v, "a pairing entry") for v in entries.flat],
            dtype=int).reshape(entries.shape)
        self.rank = self.pairing_matrix.shape[0]
        if self.pairing_matrix.shape != (self.rank, self.rank):
            raise ValidationError("pairing matrix must be square")
        if np.any(self.pairing_matrix + self.pairing_matrix.T != 0):
            raise ValidationError("pairing matrix must be antisymmetric")
        if len(basis_contours) != self.rank:
            raise ValidationError("need one basis contour per generator")
        self.basis_contours = list(basis_contours)
        if names is None:
            names = [f"gamma{i+1}" for i in range(self.rank)]
        if not (isinstance(names, (list, tuple)) and len(names) == self.rank
                and all(isinstance(n, str) for n in names)
                and len(set(names)) == self.rank):
            raise ValidationError(
                f"need one distinct string name per generator, not {names!r}")
        self.names = list(names)

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


# --- periods ---

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
#: a panel's quadrature nodes, then its end, as fractions of the panel
_PANEL_NODES = np.append(0.5 * (1.0 + _GL_NODES), 1.0)


def _lift(curve, path):
    """(period of x dz, end sheet value) of one lifted path, from one
    validation and one array pass per panel level.

    Each segment a -> b is integrated with composite Gauss panels, doubled
    until its integral changes by less than PERIOD_REL_TOL relative to
    max(1, |integral|); all segments not yet settled are tracked together,
    each on the principal cube root at its a.  A segment starts on the
    sheet where the one before it ends, so it is then turned onto that
    sheet: the root at a nearest the previous end, or the starting sheet.
    """
    path.validate(curve)
    w = np.array(path.waypoints)
    a, b = w[:-1], w[1:]
    frame, frame_arg = curve.principal_root(a)
    periods = np.full(len(a), np.nan, dtype=complex)    # no level yet
    ends = np.empty(len(a), dtype=complex)
    live = np.arange(len(a))
    panels = 1
    while live.size:
        if panels > 1024:
            raise NoConvergence(
                f"quadrature on segment {a[live[0]]} -> {b[live[0]]} did not "
                f"settle within 1024 panels")
        u = (np.arange(panels)[:, None] + _PANEL_NODES).ravel() / panels
        d = (b - a)[live, None]
        z = np.concatenate((a[live, None], a[live, None] + d * u), axis=1)
        x = curve.continue_sheet(z, frame[live])
        nodes = x.reshape(len(live), panels, -1)[:, :, :-1]
        total = (nodes @ _GL_WEIGHTS).sum(axis=1) * (0.5 * d[:, 0] / panels)
        done = abs(total - periods[live]) <= PERIOD_REL_TOL * np.maximum(
            1.0, abs(total))
        periods[live] = total
        ends[live[done]] = x[done, -1]
        live = live[~done]
        panels *= 2
    turns = np.cumsum(np.append(
        _turns(cmath.phase(path.starting_sheet_value), frame_arg[0]),
        _turns(np.angle(ends[:-1]), frame_arg[1:]))) % 3
    return (complex(OMEGA_POWERS[turns] @ periods),
            complex(OMEGA_POWERS[turns[-1]] * ends[-1]))


class PeriodMap:
    """Basis periods frozen into a linear map Charge -> complex."""

    def __init__(self, basis_values):
        self.basis_values = np.asarray(basis_values, dtype=complex)
        self.rank = len(self.basis_values)

    @classmethod
    def compute(cls, curve, lattice):
        """The basis periods of a lattice.  Each contour must close in the
        base to BASE_CLOSURE_TOL and its lift must end on its starting
        sheet to SHEET_CLOSURE_TOL, or OpenContour is raised."""
        vals = []
        for name, path in zip(lattice.names, lattice.basis_contours):
            gap = abs(path.waypoints[0] - path.waypoints[-1])
            if not gap <= BASE_CLOSURE_TOL:
                raise OpenContour(f"contour {name} does not close in the base")
            period, x_end = _lift(curve, path)
            scale = max(1.0, abs(path.starting_sheet_value))
            dx = abs(x_end - path.starting_sheet_value)
            if dx > SHEET_CLOSURE_TOL * scale:
                raise OpenContour(
                    f"contour {name} returns on the wrong sheet "
                    f"(|dx| = {dx:.3e})")
            vals.append(period)
        return cls(vals)

    def Z(self, gamma: Charge):
        if len(gamma) != self.rank:
            raise ValidationError(
                f"charge has {len(gamma)} components, period map rank is "
                f"{self.rank}")
        return complex(np.dot(gamma.components, self.basis_values))


# --- curve definitions ---

@dataclass
class CurveDefinition:
    """A named curve and its charge lattice."""

    name: str
    curve: SpectralCurve
    lattice: ChargeLattice


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
    }


def curve_from_json(doc) -> CurveDefinition:
    """The curve definition in a JSON document; a document of the wrong
    shape raises ValidationError."""
    if not isinstance(doc, dict):
        raise ValidationError("a curve document is a JSON object")
    if doc.get("schema_version") != 1:
        raise ValidationError("unsupported curve schema_version")
    try:
        poly = Polynomial([_pair2c(p) for p in doc["polynomial"]["coefficients"]])
        curve = SpectralCurve(poly)
        lat = doc["lattice"]
        contours = [
            LiftedPath([_pair2c(w) for w in c["waypoints"]], _pair2c(c["starting_sheet"]))
            for c in lat["contours"]
        ]
        lattice = ChargeLattice(lat["pairing"], contours, names=lat.get("charges"))
    except KeyError as exc:
        raise ValidationError(f"curve document lacks the key {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed curve document: {exc}") from None
    return CurveDefinition(doc.get("name", "unnamed"), curve, lattice)


def read_json(path):
    """The JSON document in the file at path; a file that is missing,
    unreadable or not JSON raises ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from None


def load_curve_file(path) -> CurveDefinition:
    return curve_from_json(read_json(path))


# --- the shipped examples ---
#
# Each basis contour is a hairpin between two zeros or a large circle.
# Loop radii and vertex counts only keep the polylines away from the
# zeros: the periods are homotopy invariants.

def _hairpin(z1, z2, r):
    """Closed hairpin threading z1 and z2, avoiding both by radius r.

    Traversal: start near z1, run to z2, a full counterclockwise loop
    around z2, run back, a full clockwise loop around z1, each loop a
    16-gon.  The ccw/cw combination makes the lift close on any starting
    sheet.
    """
    u = (z2 - z1) / abs(z2 - z1)
    A = z1 + r * u
    B = z2 - r * u
    ang_B = cmath.phase(B - z2)
    ang_A = cmath.phase(A - z1)
    pts = [A, B]
    for k in range(1, 17):
        pts.append(z2 + r * cmath.exp(1j * (ang_B + 2 * cmath.pi * k / 16)))
    pts.append(A)
    for k in range(1, 17):
        pts.append(z1 + r * cmath.exp(1j * (ang_A - 2 * cmath.pi * k / 16)))
    return pts


def _circle(center, radius):
    """Closed 64-gon on a circle; a large one picks up the residue of a
    single sheet at infinity."""
    return [center + radius * cmath.exp(2j * cmath.pi * k / 64) for k in range(65)]


def _pentagon():
    """Degree 2, P0 = (1 - z^2)/2: one hairpin between the zeros, lifted
    on the real sheet and on its deck image; rank 2."""
    curve = SpectralCurve(Polynomial([0.5, 0.0, -0.5]))
    wps = _hairpin(-1.0 + 0j, 1.0 + 0j, 0.35)
    x_real = min(cube_roots(-curve.polynomial(wps[0])), key=lambda r: abs(r.imag))
    lattice = ChargeLattice([[0, 1], [-1, 0]],
                            [LiftedPath(wps, x_real), LiftedPath(wps, x_real * OMEGA)])
    return CurveDefinition("pentagon", curve, lattice)


def _hexagon():
    """Degree 3, P0 = (2 + 3 z^2 - z^3)/2: hairpins from the lower left
    zero to the upper left and to the right one, and a circle of radius 6
    on two sheets; rank 4, generators 3 and 4 in the pairing kernel."""
    poly = Polynomial([1.0, 0.0, 1.5, -0.5])
    curve = SpectralCurve(poly)
    zs = sorted(curve.ramification_points, key=lambda z: z.real)
    lower, upper = sorted(zs[:2], key=lambda z: z.imag)
    w1 = _hairpin(lower, upper, 0.3)
    w2 = _hairpin(lower, zs[2], 0.3)
    wc = _circle(0.0, 6.0)
    x_inf = cube_roots(-poly(wc[0]))[0]         # the positive real root at z = 6
    contours = [LiftedPath(w1, cube_roots(-poly(w1[0]))[0]),
                LiftedPath(w2, cube_roots(-poly(w2[0]))[0]),
                LiftedPath(wc, x_inf * OMEGA * OMEGA),
                LiftedPath(wc, x_inf)]
    pairing = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    return CurveDefinition("hexagon", curve, ChargeLattice(pairing, contours))


_EXAMPLES = {"pentagon": _pentagon, "hexagon": _hexagon}
EXAMPLE_NAMES = tuple(_EXAMPLES)


def load_example(name) -> CurveDefinition:
    """One of the two shipped example definitions: pentagon or hexagon."""
    if name not in EXAMPLE_NAMES:
        raise ValidationError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    return _EXAMPLES[name]()
