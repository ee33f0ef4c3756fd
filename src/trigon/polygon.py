"""Projective polygon invariants: Plucker determinants, the hexapod
invariant, and monomial cross-ratio expressions built from them.

Vertices are raw homogeneous representatives in R^3, indexed 1..n+3
counterclockwise.  p(a,b,c) = det(v_a, v_b, v_c);
q(a,b,c,d,e,f) = det(v_a x v_b, v_c x v_d, v_e x v_f).  A monomial in
such factors descends to a projective invariant exactly when the
per-vertex scaling weights cancel, which cross_ratio() enforces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, UnbalancedExpression, ValidationError


class ProjectivePolygon:
    """Vertex list in homogeneous coordinates, 1-indexed access."""

    def __init__(self, vertices):
        try:
            v = np.asarray(vertices, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError("vertices must be an (m, 3) array of numbers") from None
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValidationError("vertices must be an (m, 3) array")
        if v.shape[0] < 3:
            raise ValidationError("need at least three vertices")
        if not np.all(np.isfinite(v)):
            raise ValidationError("vertex coordinates must be finite")
        norms = np.linalg.norm(v, axis=1)
        if np.any(norms == 0):
            raise ValidationError("zero vector is not a projective point")
        self.vertices = v
        m = len(v)
        for r in range(m):
            d = np.linalg.det(np.stack([v[r], v[(r + 1) % m], v[(r + 2) % m]]))
            if d == 0:
                warnings.warn(
                    f"consecutive vertices {r+1},{r+2 if r+2<=m else r+2-m},"
                    f"{(r+2)%m+1} are projectively collinear", stacklevel=2)

    def __len__(self):
        return len(self.vertices)

    def vertex(self, index):
        if not 1 <= index <= len(self.vertices):
            raise ValidationError(
                f"vertex index {index} out of range 1..{len(self.vertices)}")
        return self.vertices[index - 1]


def plucker(poly, a, b, c):
    """det(v_a, v_b, v_c) on homogeneous representatives."""
    return float(np.linalg.det(
        np.stack([poly.vertex(a), poly.vertex(b), poly.vertex(c)])))


def hexapod(poly, a, b, c, d, e, f):
    """det(v_a x v_b, v_c x v_d, v_e x v_f)."""
    m = np.stack([
        np.cross(poly.vertex(a), poly.vertex(b)),
        np.cross(poly.vertex(c), poly.vertex(d)),
        np.cross(poly.vertex(e), poly.vertex(f)),
    ])
    return float(np.linalg.det(m))


@dataclass(frozen=True)
class Factor:
    kind: str          # "p" | "q"
    indices: tuple
    exponent: int

    def __post_init__(self):
        if self.kind not in ("p", "q"):
            raise ValidationError(f"unknown factor kind {self.kind!r}")
        want = 3 if self.kind == "p" else 6
        if len(self.indices) != want:
            raise ValidationError(
                f"{self.kind}-factor needs {want} indices, got {len(self.indices)}")

    def evaluate(self, poly):
        if self.kind == "p":
            return plucker(poly, *self.indices)
        return hexapod(poly, *self.indices)

    def __str__(self):
        body = f"{self.kind}({','.join(map(str, self.indices))})"
        return body if self.exponent == 1 else f"{body}^{self.exponent}"


class InvariantExpression:
    """Monomial in Plucker / hexapod factors with integer exponents."""

    def __init__(self, factors, name=None):
        self.factors = [f if isinstance(f, Factor) else Factor(*f)
                        for f in factors]
        self.name = name

    def __str__(self):
        return " ".join(str(f) for f in self.factors)

    def vertex_weights(self):
        """Net scaling weight per vertex index (must vanish to descend)."""
        w = {}
        for f in self.factors:
            for idx in f.indices:
                w[idx] = w.get(idx, 0) + f.exponent
        return w

    def check_balanced(self):
        bad = {i: wt for i, wt in self.vertex_weights().items() if wt != 0}
        if bad:
            raise UnbalancedExpression(
                f"nonzero scaling weights {bad}; the monomial does not "
                f"descend to a projective invariant")

    def inverse(self):
        return InvariantExpression(
            [Factor(f.kind, f.indices, -f.exponent) for f in self.factors],
            name=f"({self.name})^-1" if self.name else None)

    def __mul__(self, other):
        return InvariantExpression(self.factors + other.factors)


def cross_ratio(poly, expr):
    """Value of a weight-balanced invariant monomial on the polygon."""
    expr.check_balanced()
    values = [(f, f.evaluate(poly)) for f in expr.factors]
    for f, base in values:
        if base == 0.0 and f.exponent < 0:
            raise DegenerateConfiguration(
                f"denominator factor {f} vanishes on this polygon")
    result = 1.0
    for f, base in values:
        if base == 0.0:
            return 0.0
        result *= base ** f.exponent
    return result


# built-in coordinate expressions for the two shipped examples
_BUILTIN = {
    ("pentagon", "gamma1"): InvariantExpression([
        ("p", (1, 2, 3), 1), ("p", (3, 4, 5), 1),
        ("p", (1, 3, 5), -1), ("p", (2, 3, 4), -1),
    ], name="pentagon:gamma1"),
    ("pentagon", "gamma2"): InvariantExpression([
        ("p", (1, 3, 5), 1), ("p", (2, 3, 4), 1), ("p", (1, 2, 5), 1),
        ("p", (1, 2, 3), -1), ("p", (2, 3, 5), -1), ("p", (1, 4, 5), -1),
    ], name="pentagon:gamma2"),
    ("hexagon", "gamma1"): InvariantExpression([
        ("q", (2, 3, 4, 5, 6, 1), 1),
        ("p", (1, 5, 6), -1), ("p", (2, 3, 4), -1),
    ], name="hexagon:gamma1"),
    ("hexagon", "gamma2"): InvariantExpression([
        ("p", (1, 5, 6), 1), ("p", (2, 3, 6), 1), ("p", (1, 4, 6), 1),
        ("p", (1, 2, 6), -1), ("p", (1, 3, 6), -1), ("p", (4, 5, 6), -1),
    ], name="hexagon:gamma2"),
    ("hexagon", "gamma3"): InvariantExpression([
        ("p", (1, 2, 3), 1), ("p", (4, 5, 6), 1),
        ("p", (2, 3, 4), -1), ("p", (1, 5, 6), -1),
    ], name="hexagon:gamma3"),
    ("hexagon", "gamma4"): InvariantExpression([
        ("p", (1, 2, 6), 1), ("p", (3, 4, 5), 1),
        ("p", (1, 2, 3), -1), ("p", (4, 5, 6), -1),
    ], name="hexagon:gamma4"),
}


def builtin_expression(example, charge_name):
    """Coordinate expression X_gamma for a shipped example's generator."""
    try:
        return _BUILTIN[(example, charge_name)]
    except KeyError:
        raise ValidationError(
            f"no built-in expression for {example}:{charge_name}") from None


def builtin_expression_names(example=None):
    return sorted(k for k in _BUILTIN if example is None or k[0] == example)


def polygon_from_json(doc):
    """The polygon in a vertices document: a bare list of homogeneous
    3-vectors, or an object with schema_version 1 and a "vertices" list."""
    if isinstance(doc, dict):
        if doc.get("schema_version") != 1:
            raise ValidationError("unsupported polygon schema_version")
        if "vertices" not in doc:
            raise ValidationError("polygon document lacks a 'vertices' field")
        doc = doc["vertices"]
    return ProjectivePolygon(doc)
