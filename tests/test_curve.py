import cmath
import math

import numpy as np
import pytest

from trigon.curve import (
    Charge,
    ChargeLattice,
    LiftedPath,
    OMEGA,
    PeriodMap,
    Polynomial,
    continue_root,
    cube_roots,
    load_example,
    nearest_root,
    within_margin,
)
from trigon import curve as curve_module
from trigon.curve import _circle, _lift
from trigon.errors import (NoConvergence, NonSimpleRoots, OpenContour,
                           SheetAmbiguity, ValidationError)
from trigon.reference import pentagon_closed_form

W = OMEGA


# ---------------- the sheet rule ----------------

def _sheet_rule_sample():
    """(v, x, j): x lies at an angle under pi/3 from cube root j of v, so
    root j is the nearest.  A quarter of the angles sit within 1e-3 to
    1e-9 of +-pi/3, where v/x^3 lies next to the principal root's cut."""
    rng = np.random.default_rng(20170504)
    out = []
    for n in range(400):
        v = 10.0 ** rng.uniform(-6, 6) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        j = int(rng.integers(3))
        if n % 4:
            phi = rng.uniform(-1, 1) * math.pi / 3
        else:
            phi = rng.choice([-1, 1]) * (math.pi / 3 - 10.0 ** -rng.integers(3, 10))
        x = cube_roots(v)[j] * 10.0 ** rng.uniform(-1, 1) * cmath.exp(1j * phi)
        out.append((v, x, j))
    return out


def test_continue_root_is_the_nearest_cube_root():
    from trigon.network import _lane_sheet

    sample = _sheet_rule_sample()
    v, x, _ = (np.array(c) for c in zip(*sample))
    # _lane_sheet continues -P0(w); P0(w) = w, so w = -v gives the roots of v
    lanes = _lane_sheet((1.0, 0.0), -v, x, -1 / x ** 3)
    for (v, x, j), lane in zip(sample, lanes):
        rts = cube_roots(v)
        assert nearest_root(rts, x) == j
        r = continue_root(v, x)
        assert abs(r - rts[j]) <= 2e-15 * abs(rts[j])
        assert abs(lane - rts[j]) <= 2e-15 * abs(rts[j])


def test_margin_agrees_with_a_third_of_the_root_separation():
    kept = []
    for v, x, j in _sheet_rule_sample():
        rts = cube_roots(v)
        sep = min(abs(rts[0] - rts[1]), abs(rts[1] - rts[2]),
                  abs(rts[0] - rts[2]))
        kept.append(within_margin(continue_root(v, x), x))
        assert kept[-1] == (abs(rts[j] - x) <= sep / 3)
    assert 0 < sum(kept) < len(kept)


# ---------------- roots ----------------

def test_pentagon_roots():
    p = Polynomial([0.5, 0, -0.5])
    r = sorted(p.roots(), key=lambda z: z.real)
    assert abs(r[0] - (-1)) < 1e-12
    assert abs(r[1] - 1) < 1e-12


def test_monomial_root():
    assert Polynomial([0, 1]).roots() == [0j]


def test_cubic_roots_against_evaluation():
    # companion-matrix result cross-checked by direct evaluation
    p = Polynomial([1.0, 0.0, 1.5, -0.5])   # (2 + 3z^2 - z^3)/2
    rts = p.roots()
    assert len(rts) == 3
    for r in rts:
        assert abs(p(r)) < 1e-10 * max(1.0, abs(r)) ** 3
    # and they are exactly the zeroes numpy finds
    ref = sorted(np.roots([-0.5, 1.5, 0, 1.0]), key=lambda z: (z.real, z.imag))
    got = sorted(rts, key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(ref, got)) < 1e-9


def test_non_simple_roots_rejected():
    p = Polynomial([0, 0, 1])      # z^2, double root
    with pytest.raises(NonSimpleRoots):
        p.roots()


def test_constant_rejected_for_roots():
    with pytest.raises(ValidationError):
        Polynomial([2.0]).roots()


# ---------------- sheets ----------------

def _sheets(curve, z):
    """The three sheet values over z, from which tracking starts."""
    return cube_roots(-curve.polynomial(z))


def test_sheets_are_cube_roots_of_unity_when_p_is_minus_one(pentagon):
    # P0(z) = -1 at z = sqrt(3)
    z = math.sqrt(3.0)
    sheets = _sheets(pentagon.curve, z)
    got = sorted(sheets, key=lambda x: cmath.phase(x))
    want = sorted([1, W, W * W], key=lambda x: cmath.phase(x))
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


# ---------------- continuation ----------------

def _loop(center, radius, m=24, turns=1):
    return [center + radius * cmath.exp(2j * cmath.pi * turns * k / (m * turns))
            for k in range(m * turns + 1)]


def test_contractible_loop_is_identity(pentagon):
    curve = pentagon.curve
    wps = _loop(0.2 + 0.1j, 0.3)
    x0 = _sheets(curve, wps[0])[0]
    assert abs(curve.track_along(wps, x0) - x0) < 1e-10


def test_single_zero_monodromy_has_order_three(pentagon):
    curve = pentagon.curve
    wps1 = _loop(1.0, 0.4, turns=1)
    wps3 = _loop(1.0, 0.4, turns=3)
    x0 = _sheets(curve, wps1[0])[0]
    once = curve.track_along(wps1, x0)
    assert abs(once - x0) > 0.1          # nontrivial monodromy
    thrice = curve.track_along(wps3, x0)
    assert abs(thrice - x0) < 1e-8


def _monodromy_permutation(curve, waypoints):
    """Permutation of the base triple induced by the closed base loop."""
    start = _sheets(curve, waypoints[0])
    perm = []
    for x in start:
        x_end = curve.track_along(waypoints, x)
        perm.append(min(range(3), key=lambda k: abs(start[k] - x_end)))
    return tuple(perm)


def test_composite_monodromy_is_composition(pentagon):
    # loop around both zeroes vs the two single-zero loops composed
    curve = pentagon.curve
    big = _monodromy_permutation(curve, _loop(0.0, 2.0, m=48))
    left = _monodromy_permutation(curve, _loop(-1.0, 0.4))
    right = _monodromy_permutation(curve, _loop(1.0, 0.4))
    composed = tuple(left[right[k]] for k in range(3))
    assert big == composed
    assert big != (0, 1, 2)


def _chain(curve, z, x):
    """The oracle: continue_root from node to node, with no margin check."""
    out = []
    for zz in z:
        x = continue_root(-curve.polynomial(zz), x)
        out.append(x)
    return np.array(out)


def _smooth_paths(curve, rng, rows, n=2000):
    """Random closed Fourier curves that keep 0.05 from every zero."""
    out = []
    while len(out) < rows:
        t = np.linspace(0.0, 2 * np.pi, n)
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2) + sum(
            rng.uniform(0, 1.5 / k) * np.exp(1j * (k * t + rng.uniform(0, 6.3)))
            for k in (1, 2, 3))
        if min(np.min(abs(z - z0)) for z0 in curve.ramification_points) > 0.05:
            out.append(z)
    return np.array(out)


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_continue_sheet_matches_a_continue_root_chain(name):
    curve = load_example(name).curve
    rng = np.random.default_rng(2301)
    z = _smooth_paths(curve, rng, 6)
    x0 = np.array([cube_roots(-curve.polynomial(row[0]))[rng.integers(3)]
                   for row in z])
    got = curve.continue_sheet(z, x0)
    for row, x, g in zip(z, x0, got):
        want = _chain(curve, row[1:], x)
        assert all(within_margin(want, np.append(x, want[:-1])))
        assert np.all(abs(g - want) <= 1e-14 * abs(want))


def test_continue_sheet_bisects_a_step_past_a_zero(pentagon, monkeypatch):
    # a straight segment 1e-3 above the zero at 1: in one step the root
    # nearest the start is not within the margin, so the step is bisected
    curve = pentagon.curve
    a, b = 1e-3j, 2 + 1e-3j
    x0 = cube_roots(-curve.polynomial(a))[0]
    depths = []
    real = type(curve).continue_sheet

    def spy(self, z, x_start, depth=0):
        depths.append(depth)
        return real(self, z, x_start, depth)

    monkeypatch.setattr(type(curve), "continue_sheet", spy)
    got = curve.track_along([a, b], x0)
    assert max(depths) > 0
    fine = _chain(curve, a + (b - a) * np.linspace(0, 1, 40001)[1:], x0)[-1]
    assert abs(got - fine) <= 1e-12 * abs(fine)


def test_continue_sheet_through_a_zero_raises(pentagon):
    # the midpoint of 0 -> 2 is the zero at 1, where every root is 0: the
    # steps onto and off it lose the margin at every bisection depth
    curve = pentagon.curve
    x0 = cube_roots(-curve.polynomial(0.0))[0]
    with pytest.raises(SheetAmbiguity):
        curve.track_along([0.0, 2.0], x0)


def test_lifted_path_validation(pentagon):
    curve = pentagon.curve
    # segment through a ramification point
    path = LiftedPath([-2.0, 2.0], _sheets(curve, -2.0)[0])
    with pytest.raises(ValidationError):
        path.validate(curve)
    # starting sheet off the curve
    path2 = LiftedPath([0.0, 0.5j], 1.234 + 0j)
    with pytest.raises(ValidationError):
        path2.validate(curve)
    # a non-finite starting sheet or waypoint
    x0 = _sheets(curve, 0.0)[0]
    for path3 in (LiftedPath([0.0, 0.5j], complex("nan")),
                  LiftedPath([0.0, complex("inf"), 0.5j], x0)):
        with pytest.raises(ValidationError):
            path3.validate(curve)


# ---------------- periods ----------------

PENT_Z = [-2.00324 + 1.15657j, -2.31315j]
HEX_Z = [2.30298, 5.47033 + 4.48792j, -4.31884 + 2.49348j, -4.98697j]


def test_pentagon_periods(pentagon, pentagon_pm):
    for i, ref in enumerate(PENT_Z):
        got = pentagon_pm.Z(pentagon.lattice.basis_charge(i))
        assert abs(got - ref) < 5e-5


def test_pentagon_deck_relation(pentagon_pm):
    z1, z2 = pentagon_pm.basis_values
    assert abs(z2 - W * z1) < 1e-9


def test_hexagon_periods(hexagon, hexagon_pm):
    for i, ref in enumerate(HEX_Z):
        got = hexagon_pm.Z(hexagon.lattice.basis_charge(i))
        assert abs(got - ref) < 5e-5


def test_pentagon_closed_form_matches_scipy_gamma():
    from scipy.special import gamma

    const = (12.0 * 2.0 ** (2.0 / 3.0) * math.pi ** 1.5
             / (5.0 * gamma(-1.0 / 6.0) * gamma(2.0 / 3.0)))
    want = cmath.exp(5j * math.pi / 6.0) * abs(const)
    assert abs(pentagon_closed_form() - want) <= 1e-15 * abs(want)


def test_period_homomorphism(pentagon, pentagon_pm):
    rng = np.random.default_rng(7)
    curve, lat = pentagon.curve, pentagon.lattice
    for _ in range(20):
        m = rng.integers(-5, 6, size=2)
        n = rng.integers(-5, 6, size=2)
        za = pentagon_pm.Z(Charge(m))
        zb = pentagon_pm.Z(Charge(n))
        zab = pentagon_pm.Z(Charge(m + n))
        assert abs(zab - (za + zb)) <= 1e-9 * max(1.0, abs(zab))


def test_open_contour_rejected(pentagon):
    curve = pentagon.curve
    # not closed in the base
    bad = LiftedPath([0.0, 0.5j, 0.5 + 0.5j], _sheets(curve, 0.0)[0])
    lat = ChargeLattice([[0, 1], [-1, 0]],
                        [bad, pentagon.lattice.basis_contours[1]])
    with pytest.raises(OpenContour):
        PeriodMap.compute(curve, lat)
    # closed in the base, open on the cover: single loop around one zero
    wps = _loop(1.0, 0.4)
    loop = LiftedPath(wps, _sheets(curve, wps[0])[0])
    lat2 = ChargeLattice([[0, 1], [-1, 0]],
                         [loop, pentagon.lattice.basis_contours[1]])
    with pytest.raises(OpenContour):
        PeriodMap.compute(curve, lat2)


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_period_map_lifts_each_contour_once(name, monkeypatch):
    defn = load_example(name)
    calls = []
    real_validate = LiftedPath.validate

    def validate(path, curve):
        calls.append(path)
        return real_validate(path, curve)

    monkeypatch.setattr(LiftedPath, "validate", validate)
    pm = PeriodMap.compute(defn.curve, defn.lattice)
    assert pm.rank == defn.lattice.rank
    assert calls == defn.lattice.basis_contours


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_continue_sheet_ends_where_the_lift_ends(name):
    # continuing the starting sheet through the waypoints alone and the
    # period quadrature's pass through its Gauss nodes end alike
    defn = load_example(name)
    for path in defn.lattice.basis_contours:
        _, x_end = _lift(defn.curve, path)
        x = defn.curve.continue_sheet(np.array([path.waypoints]),
                                      [path.starting_sheet_value])[0, -1]
        assert abs(x - x_end) < 1e-12


# the parent implementation's basis periods (one Gauss-node walk per
# segment), to all printed digits
PENT_BASIS = [-2.00324281414015 + 1.1565727779959987j,
              1.1102230246251565e-16 - 2.3131455559919973j]
HEX_BASIS = [2.3029811167798946 + 1.3877787807814457e-16j,
             5.470331086656922 + 4.48792389314925j,
             -4.318840528266982 + 2.4934837415820006j,
             -1.27675647831893e-15 - 4.98696748316402j]


@pytest.mark.parametrize("name, want", [("pentagon", PENT_BASIS),
                                        ("hexagon", HEX_BASIS)])
def test_basis_periods_are_pinned(name, want):
    defn = load_example(name)
    got = PeriodMap.compute(defn.curve, defn.lattice).basis_values
    for g, w in zip(got, want, strict=True):
        assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


def _hexagon_circles(radius):
    """The hexagon's generators 3 and 4: a circle of the given radius,
    lifted on the sheets the shipped example uses at radius 6."""
    defn = load_example("hexagon")
    wc = _circle(0.0, radius)
    x_inf = cube_roots(-defn.curve.polynomial(wc[0]))[0]
    return defn, [LiftedPath(wc, x_inf * W * W), LiftedPath(wc, x_inf)]


def test_starting_sheet_far_out_is_on_the_curve():
    # a correctly rounded cube root leaves a residual of about 1e-15 |P0|,
    # which the on-curve bound scales with
    defn, far = _hexagon_circles(1000.0)
    lattice = ChargeLattice(np.zeros((2, 2), dtype=int), far)
    got = PeriodMap.compute(defn.curve, lattice).basis_values
    want = PeriodMap.compute(defn.curve, defn.lattice).basis_values[2:]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9 * abs(w)
    for radius in (6.0, 1000.0):
        _, paths = _hexagon_circles(radius)
        off = LiftedPath(paths[1].waypoints,
                         paths[1].starting_sheet_value * (1 + 1e-6))
        with pytest.raises(ValidationError, match="off the curve"):
            off.validate(defn.curve)


def test_unsettled_quadrature_raises_no_convergence(pentagon, monkeypatch):
    monkeypatch.setattr(curve_module, "PERIOD_REL_TOL", -1.0)
    with pytest.raises(NoConvergence, match="did not settle within 1024 panels"):
        PeriodMap.compute(pentagon.curve, pentagon.lattice)


# ---------------- pairing ----------------

def test_pentagon_pairing(pentagon):
    lat = pentagon.lattice
    g1, g2 = lat.basis_charge(0), lat.basis_charge(1)
    assert lat.pairing(g1, g2) == 1
    assert lat.pairing(g2, g1) == -1
    assert lat.pairing(g1, g1) == 0


def test_hexagon_kernel_charges(hexagon):
    lat = hexagon.lattice
    for i in (2, 3):
        ker = lat.basis_charge(i)
        for j in range(4):
            assert lat.pairing(ker, lat.basis_charge(j)) == 0
    assert lat.pairing(lat.basis_charge(0), lat.basis_charge(1)) != 0


def test_pairing_matrix_antisymmetric(pentagon, hexagon):
    for defn in (pentagon, hexagon):
        M = defn.lattice.pairing_matrix
        assert np.all(M + M.T == 0)


def test_asymmetric_pairing_rejected():
    with pytest.raises(ValidationError):
        ChargeLattice([[0, 1], [1, 0]], [None, None])


@pytest.mark.parametrize("value", [0.5, True, math.nan])
def test_non_integer_pairing_rejected(value):
    with pytest.raises(ValidationError):
        ChargeLattice([[0, value], [-value, 0]], [None, None])


# ---------------- charges ----------------

def test_charge_arithmetic():
    a = Charge((1, -2))
    b = Charge((0, 5))
    assert (a + b).components == (1, 3)
    assert (a - b).components == (1, -7)
    assert (-a).components == (-1, 2)
    assert Charge((0, 0)).is_zero()
    assert len({a, Charge((1, -2))}) == 1


def test_charges_do_not_multiply():
    # nothing scales a charge; a factor was once truncated to an integer
    with pytest.raises(TypeError):
        Charge((1, 2)) * 2
    with pytest.raises(TypeError):
        2.5 * Charge((1, 2))


def test_lattice_charge_rank_check(pentagon):
    with pytest.raises(ValidationError):
        pentagon.lattice.charge((1, 0, 0))


# ---------------- definitions on disk ----------------

def test_example_roundtrip(tmp_path):
    import json

    from trigon.curve import curve_from_json, curve_to_json

    defn = load_example("pentagon")
    doc = curve_to_json(defn)
    text = json.dumps(doc)
    again = curve_from_json(json.loads(text))
    assert again.name == "pentagon"
    pm0 = PeriodMap.compute(defn.curve, defn.lattice)
    pm1 = PeriodMap.compute(again.curve, again.lattice)
    assert max(abs(a - b) for a, b in zip(pm0.basis_values, pm1.basis_values)) < 1e-12


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_curve_documents_load_with_or_without_a_basepoint(name):
    # curve documents carry no basepoint and no meta; a file written with
    # either key still loads, to the same periods bit for bit
    from trigon.curve import curve_from_json, curve_to_json

    defn = load_example(name)
    doc = curve_to_json(defn)
    assert "basepoint" not in doc and "meta" not in doc
    want = PeriodMap.compute(defn.curve, defn.lattice).basis_values
    for extra in ({}, {"basepoint": [0.0, 0.0]},
                  {"meta": {"description": "an older file's note"}}):
        again = curve_from_json({**doc, **extra})
        got = PeriodMap.compute(again.curve, again.lattice).basis_values
        assert np.array_equal(got, want)


# sha256 of json.dumps(curve_to_json(load_example(name)), sort_keys=True)
EXAMPLE_DIGESTS = {
    "pentagon": "e019c801cfe8b70b92b33bddb56c8354e813c1c603b2fc55469973e90403676d",
    "hexagon": "0bcb5b02ca42dc1c659f9425cf1baaa97b03a302e191cbe7e79aedd71bfdf924",
}


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_examples_build_the_pinned_documents(name):
    import hashlib
    import json

    from trigon.curve import curve_to_json

    text = json.dumps(curve_to_json(load_example(name)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EXAMPLE_DIGESTS[name]


# the CLI's bad-input test covers too few, too many and repeated names
@pytest.mark.parametrize("names", [["g1", 2], [], "ab"])
def test_lattice_names_each_generator_once(names):
    with pytest.raises(ValidationError):
        ChargeLattice([[0, 1], [-1, 0]], [None, None], names=names)
    assert ChargeLattice([[0, 1], [-1, 0]], [None, None],
                         names=["a", "b"]).names == ["a", "b"]


def test_unknown_example_rejected():
    with pytest.raises(ValidationError):
        load_example("heptagon")


def test_unsupported_schema_rejected():
    from trigon.curve import curve_from_json

    with pytest.raises(ValidationError):
        curve_from_json({"schema_version": 2})
