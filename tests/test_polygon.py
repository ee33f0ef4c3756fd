import numpy as np
import pytest

from trigon.errors import (
    DegenerateConfiguration,
    UnbalancedExpression,
    ValidationError,
)
from trigon.polygon import (
    Factor,
    InvariantExpression,
    ProjectivePolygon,
    builtin_expression,
    builtin_expression_names,
    cross_ratio,
    hexapod,
    plucker,
    polygon_from_json,
)


def regular(n, offset=0.5):
    pts = []
    for k in range(n):
        a = 2 * np.pi * (k + offset) / n
        pts.append([np.cos(a), np.sin(a), 1.0])
    return ProjectivePolygon(pts)


def inverse(expr):
    """expr with every exponent negated: X_-gamma = 1/X_gamma."""
    return InvariantExpression([Factor(f.kind, f.indices, -f.exponent)
                                for f in expr.factors])


def random_convexish(rng, n):
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    radii = rng.uniform(0.8, 1.6, size=n)
    return ProjectivePolygon(
        [[r * np.cos(a), r * np.sin(a), 1.0] for a, r in zip(angles, radii)])


# ---------------- plucker ----------------

def test_plucker_identity_basis():
    poly = ProjectivePolygon([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]])
    assert plucker(poly, 1, 2, 3) == pytest.approx(1.0)


def test_plucker_repeated_index_vanishes():
    poly = regular(5)
    assert plucker(poly, 2, 2, 4) == pytest.approx(0.0)


def test_plucker_antisymmetry():
    poly = regular(5)
    assert plucker(poly, 1, 2, 3) == pytest.approx(-plucker(poly, 2, 1, 3))
    assert plucker(poly, 1, 2, 3) == pytest.approx(plucker(poly, 2, 3, 1))


# ---------------- hexapod ----------------

def test_hexapod_brute_force_value():
    # v = e1, e2, e3, e1+e2, e2+e3, e1+e3; expanding by hand:
    # e1 x e2 = e3;  e3 x (e1+e2) = e2 - e1;  (e2+e3) x (e1+e3) = e1+e2-e3;
    # det = -2
    poly = ProjectivePolygon([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                              [1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert hexapod(poly, 1, 2, 3, 4, 5, 6) == pytest.approx(-2.0)
    # independent recomputation straight from the definition
    v = poly.vertices
    m = np.stack([np.cross(v[0], v[1]), np.cross(v[2], v[3]),
                  np.cross(v[4], v[5])])
    assert hexapod(poly, 1, 2, 3, 4, 5, 6) == pytest.approx(np.linalg.det(m))


def test_hexapod_repeated_vertex_vanishes():
    poly = regular(6)
    assert hexapod(poly, 2, 2, 3, 4, 5, 6) == pytest.approx(0.0)


def test_hexapod_multilinear_in_each_slot():
    rng = np.random.default_rng(5)
    poly = random_convexish(rng, 6)
    v = poly.vertices.copy()
    base = hexapod(poly, 1, 2, 3, 4, 5, 6)
    v2 = v.copy()
    v2[0] *= 3.5
    scaled = hexapod(ProjectivePolygon(v2), 1, 2, 3, 4, 5, 6)
    assert scaled == pytest.approx(3.5 * base)


# ---------------- expressions ----------------

def test_builtin_expressions_balanced():
    for example, name in builtin_expression_names():
        builtin_expression(example, name).check_balanced()


def test_unbalanced_rejected():
    expr = InvariantExpression([("p", (1, 2, 3), 1)])
    with pytest.raises(UnbalancedExpression):
        expr.check_balanced()
    poly = regular(5)
    with pytest.raises(UnbalancedExpression):
        cross_ratio(poly, expr)


def test_expression_times_inverse_is_one():
    rng = np.random.default_rng(1)
    poly = random_convexish(rng, 5)
    expr = builtin_expression("pentagon", "gamma1")
    assert (cross_ratio(poly, expr) * cross_ratio(poly, inverse(expr))
            == pytest.approx(1.0))


def test_reflection_symmetric_pentagon_gamma2_is_one():
    # vertices symmetric under y -> -y with vertex 4 on the axis, so the
    # index pattern swaps 1<->2 and 3<->5: that reflection maps gamma2's
    # numerator factors exactly onto its denominator factors
    rng = np.random.default_rng(9)
    for _ in range(5):
        x1, y1 = rng.uniform(-1.5, -0.5), rng.uniform(0.3, 1.0)
        x2, y2 = rng.uniform(0.0, 0.8), rng.uniform(0.5, 1.4)
        x3 = rng.uniform(1.0, 2.0)
        poly = ProjectivePolygon([
            [x1, -y1, 1.0], [x1, y1, 1.0], [x2, y2, 1.0],
            [x3, 0.0, 1.0], [x2, -y2, 1.0]])
        val = cross_ratio(poly, builtin_expression("pentagon", "gamma2"))
        assert val == pytest.approx(1.0, abs=1e-12)


def test_hexagon_gamma3_gamma4_product_identity():
    # X3 * X4 collapses to p(1,2,6) p(3,4,5) / (p(2,3,4) p(1,5,6))
    rng = np.random.default_rng(13)
    poly = random_convexish(rng, 6)
    x3 = cross_ratio(poly, builtin_expression("hexagon", "gamma3"))
    x4 = cross_ratio(poly, builtin_expression("hexagon", "gamma4"))
    direct = (plucker(poly, 1, 2, 6) * plucker(poly, 3, 4, 5)
              / (plucker(poly, 2, 3, 4) * plucker(poly, 1, 5, 6)))
    assert x3 * x4 == pytest.approx(direct, rel=1e-12)


def test_sl3_invariance():
    rng = np.random.default_rng(21)
    poly = random_convexish(rng, 6)
    vals = {name: cross_ratio(poly, builtin_expression("hexagon", name))
            for name in ("gamma1", "gamma2", "gamma3", "gamma4")}
    for _ in range(5):
        M = rng.normal(size=(3, 3))
        M /= np.cbrt(np.linalg.det(M))
        moved = ProjectivePolygon(poly.vertices @ M.T)
        for name, ref in vals.items():
            got = cross_ratio(moved, builtin_expression("hexagon", name))
            assert abs(got - ref) <= 1e-10 * abs(ref)


def test_scaling_invariance():
    rng = np.random.default_rng(22)
    poly = random_convexish(rng, 5)
    for name in ("gamma1", "gamma2"):
        ref = cross_ratio(poly, builtin_expression("pentagon", name))
        for _ in range(5):
            scales = rng.uniform(0.2, 5.0, size=5)
            scaled = ProjectivePolygon(poly.vertices * scales[:, None])
            got = cross_ratio(scaled, builtin_expression("pentagon", name))
            assert abs(got - ref) <= 1e-10 * abs(ref)


def test_degenerate_configuration():
    # vertices 1,3,5 collinear: p(1,3,5) = 0 sits in gamma1's denominator
    poly = ProjectivePolygon([[0, 0, 1], [1, 0.5, 1], [1, 0, 1],
                              [1.5, -0.5, 1], [2, 0, 1]])
    with pytest.raises(DegenerateConfiguration):
        cross_ratio(poly, builtin_expression("pentagon", "gamma1"))


def test_zero_numerator_is_zero():
    # vertices 1,3,5 collinear: the inverse of gamma1's expression puts
    # the vanishing factor in the numerator, with nonzero denominators
    poly = ProjectivePolygon([[0, 0, 1], [1, 0.5, 1], [1, 0, 1],
                              [1.5, -0.5, 1], [2, 0, 1]])
    expr = inverse(builtin_expression("pentagon", "gamma1"))
    assert cross_ratio(poly, expr) == 0.0


def test_vertex_validation():
    with pytest.raises(ValidationError):
        ProjectivePolygon([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValidationError):
        ProjectivePolygon([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValidationError):
        ProjectivePolygon([[1, 0, 0], [0, 1, 0]])
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            ProjectivePolygon([[1, 0, 1], [0, 1, 1], [value, -1, 1]])


def test_collinear_consecutive_warns():
    with pytest.warns(UserWarning):
        ProjectivePolygon([[0, 0, 1], [1, 0, 1], [2, 0, 1], [0, 1, 1]])


def test_factor_validation():
    with pytest.raises(ValidationError):
        Factor("p", (1, 2), 1)
    with pytest.raises(ValidationError):
        Factor("q", (1, 2, 3), 1)
    with pytest.raises(ValidationError):
        Factor("r", (1, 2, 3), 1)


def test_unknown_builtin_expression():
    with pytest.raises(ValidationError):
        builtin_expression("pentagon", "gamma9")


def test_polygon_from_json():
    doc = {"schema_version": 1,
           "vertices": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}
    poly = polygon_from_json(doc)
    assert len(poly) == 4
    poly2 = polygon_from_json([[1, 0, 1], [0, 1, 1], [-1, 0, 1]])
    assert len(poly2) == 3


def test_vertex_index_bounds():
    poly = regular(5)
    with pytest.raises(ValidationError):
        plucker(poly, 0, 1, 2)
    with pytest.raises(ValidationError):
        plucker(poly, 1, 2, 6)
