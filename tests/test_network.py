import cmath
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from trigon import network
from trigon.bps import builtin_spectrum, spectrum_from_webs
from trigon.curve import (OMEGA, Charge, PeriodMap, Polynomial, SpectralCurve,
                          continue_root, cube_roots, nearest_root)
from trigon.errors import (
    ChargeIdentificationFailed,
    NumericalError,
    PatternViolation,
    SheetAmbiguity,
    ValidationError,
    WebEventDropped,
)
from trigon.network import (
    TraceConfig,
    TrajectorySeed,
    classify_infinity,
    detect_bps,
    direction_grid,
    grow_network,
    identify_charge,
    later_crossings,
    polyline_intersections,
    seed_critical,
    trace,
    trace_lanes,
)

TWO_PI = 2 * math.pi


# ---------------- seeds ----------------

def _model_phi(curve, zi, m, theta):
    """Critical direction m at zero zi from x^3 ~ -P0'(z0) (z - z0)."""
    a = -curve.polynomial.derivative()(curve.ramification_points[zi])
    return 0.75 * (theta - cmath.phase(a) / 3 - math.pi / 6
                   - m * math.pi / 3) % TWO_PI


def _model_bound(curve, zi, delta0):
    """4 delta0 / (distance to the nearest other zero), plus 1e-9 for the
    round-off of z0 + delta0 exp(i phi) - z0, relative to delta0."""
    zs = curve.ramification_points
    sep = min((abs(z - zs[zi]) for k, z in enumerate(zs) if k != zi),
              default=math.inf)
    return 4 * delta0 / sep + 1e-9


def _check_labelled_seeds(curve, theta):
    seeds = seed_critical(curve, theta)
    per_zero = {}
    for s in seeds:
        kind, zi, m, phi = s.origin
        assert kind == "critical" and m in range(8)
        assert abs(network._wrap(phi - _model_phi(curve, zi, m, theta))) \
            <= _model_bound(curve, zi, 1e-4)
        per_zero.setdefault(zi, []).append(m)
    assert sorted(per_zero) == list(range(len(curve.ramification_points)))
    for labels in per_zero.values():
        assert sorted(labels) == list(range(8))
    return seeds


def test_pentagon_seed_count(pentagon):
    seeds = _check_labelled_seeds(pentagon.curve, 0.0)
    assert len(seeds) == 16
    per_zero = {}
    for s in seeds:
        per_zero.setdefault(s.origin[1], []).append(s.origin[3])
    for phis in per_zero.values():
        assert len(phis) == 8
        phis = sorted(phis)
        gaps = [phis[k + 1] - phis[k] for k in range(7)]
        gaps.append(phis[0] + TWO_PI - phis[7])
        assert abs(sum(gaps) - TWO_PI) < 1e-9


def test_hexagon_seed_count(hexagon):
    assert len(_check_labelled_seeds(hexagon.curve, 0.1)) == 24


def _ray_cases(n, seed):
    """n cases (leading coefficient, roots, theta, eps) from a fixed seed:
    P0 of degree 1-5 with roots in [-2, 2]^2 at least 0.05 apart, a
    leading coefficient of modulus in [0.2, 5], theta in [-pi, pi] and eps
    in [-0.1, 0.1]."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        roots = list(rng.uniform(-2.0, 2.0, size=(rng.integers(1, 6), 2))
                     @ [1, 1j])
        if any(abs(a - b) < 0.05 for i, a in enumerate(roots)
               for b in roots[i + 1:]):
            continue
        lead = cmath.rect(rng.uniform(0.2, 5.0), rng.uniform(-math.pi, math.pi))
        cases.append(pytest.param(lead, roots, rng.uniform(-math.pi, math.pi),
                                  rng.uniform(-0.1, 0.1),
                                  id=f"random{len(cases)}"))
    return cases


@pytest.mark.parametrize("lead, roots, theta, eps", _ray_cases(100, 9) + [
    # the worst case seen: this degree-1 curve sits 1.03e-12 off its exact
    # model at theta = 0, as z0 + delta0 exp(i phi) - z0 loses about 12 digits
    pytest.param(cmath.rect(1.0, 1.5), [2j], 0.0, 0.0, id="degree1-worst")])
def test_labelled_rays_follow_the_local_model(lead, roots, theta, eps):
    curve = SpectralCurve(Polynomial(lead * np.poly(roots)[::-1]))
    delta0 = TraceConfig().delta0
    tables = network.RayBook(curve, delta0).rays_at([theta, theta + eps])
    for zi, z0 in enumerate(curve.ramification_points):
        bound = _model_bound(curve, zi, delta0)
        rays, moved = tables[0][zi], tables[1][zi]
        assert [m for m, _, _, _ in rays] == list(range(8))
        phis = sorted(phi for _, phi, _, _ in rays)
        assert min(b - a for a, b in zip(phis, phis[1:] + [phis[0] + TWO_PI])) \
            > math.pi / 8
        for (m, phi, xp, k), (m1, phi1, _, _) in zip(rays, moved):
            assert k in (1, 2)
            xq = xp * OMEGA ** k
            z = z0 + delta0 * cmath.exp(1j * phi)
            for x in (xp, xq):
                assert abs(x ** 3 + curve.polynomial(z)) < 1e-9 * abs(x) ** 3
            W = cmath.exp(-1j * theta) * (xp - xq) * cmath.exp(1j * phi)
            assert W.real > 0 and abs(W.imag) < 1e-9 * abs(W)
            assert abs(network._wrap(phi - _model_phi(curve, zi, m, theta))) \
                <= bound
            assert m1 == m
            assert abs(network._wrap(phi1 - phi - 0.75 * eps)) <= bound


def test_seed_pairs_move_outward(pentagon):
    # the label (x_i, k) at each seed points the velocity radially outward
    for s in seed_critical(pentagon.curve, 0.37):
        z0 = pentagon.curve.ramification_points[s.origin[1]]
        u = s.x - s.x * OMEGA ** s.k
        v = cmath.exp(1j * 0.37) / u
        radial = (v * (s.z - z0).conjugate()).real
        assert radial > 0.99 * abs(v) * abs(s.z - z0)


# ---------------- tracing ----------------

def test_constant_polynomial_gives_straight_line():
    curve = SpectralCurve(Polynomial([1.0]))
    sheets = cube_roots(-1.0)
    theta = 0.3
    seed = TrajectorySeed(z=0.0, x=sheets[0], k=1,
                          origin=("critical", -1, 0, 0.0), theta=theta)
    traj = trace(curve, seed, TraceConfig(escape_radius=5.0))
    assert traj.status == "escaped"
    direction = cmath.exp(1j * theta) / (sheets[0] - sheets[1])
    direction /= abs(direction)
    for p in traj.points[1:]:
        off = p - (p * direction.conjugate()).real * direction
        assert abs(off) < 1e-9


def test_label_swap_time_reversal_retraces(pentagon, monkeypatch):
    seeds = seed_critical(pentagon.curve, 0.2)
    traj = trace(pentagon.curve, seeds[0])
    k = len(traj.points) // 3
    z_mid = traj.points[k]
    # the swapped label: track x_j = omega^k x_i, whose partner is x_i
    xj = traj.x[k] * OMEGA ** traj.k
    monkeypatch.setattr(network, "MAX_ARCLENGTH",
                        float(np.abs(np.diff(traj.points)).sum()))
    back = trace(pentagon.curve, TrajectorySeed(
        z=z_mid, x=xj, k=3 - traj.k, origin=("critical", -1, 0, 0.0),
        theta=0.2))
    # the reversed trace must stay on the original polyline
    pts = traj.points
    for p in back.points[:: max(1, len(back.points) // 24)]:
        d = min(_point_to_polyline(p, pts, lo, hi)
                for lo, hi in [(0, len(pts))])
        assert d < 1e-6


def _point_to_polyline(p, pts, lo, hi):
    best = float("inf")
    for a, b in zip(pts[lo:hi - 1], pts[lo + 1:hi]):
        d = b - a
        L2 = (d * d.conjugate()).real
        t = 0.0 if L2 == 0 else max(0.0, min(1.0, ((p - a) * d.conjugate()).real / L2))
        best = min(best, abs(p - (a + t * d)))
    return best


def test_local_foliation_directions_at_two_pi_over_three(pentagon):
    theta = 0.11
    z = 0.3 + 0.8j
    x = cube_roots(-pentagon.curve.polynomial(z))
    dirs = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        v = cmath.exp(1j * theta) / (x[i] - x[j])
        dirs.append(cmath.phase(v))
    for a in range(3):
        diff = (dirs[(a + 1) % 3] - dirs[a]) % TWO_PI
        assert min(abs(diff - TWO_PI / 3), abs(diff - 2 * TWO_PI / 3)) < 1e-12


def test_leg_integral_matches_phase(pentagon):
    # exp(-i theta) * integral of (x_i - x_j) dz along a trajectory is
    # real positive, the defining property of the flow, from its first
    # point and from its zero; the Gauss rule on the chords holds the
    # phase to about 2e-12, and the trapezoid rule agrees to about 3e-5
    seeds = seed_critical(pentagon.curve, 0.4)
    traj = trace(pentagon.curve, seeds[3])
    rot = cmath.exp(-1j * 0.4)
    for start in (None, traj.seed.origin[1]):
        val = network._leg_period(pentagon.curve, traj, traj.points, start)
        assert (val * rot).real > 0
        assert abs(cmath.phase(val * rot)) < 1e-11
    u = traj.x * (1 - OMEGA ** traj.k)
    trapezoid = np.sum(0.5 * (u[1:] + u[:-1]) * np.diff(traj.points))
    assert abs(trapezoid - val) <= 1e-4 * abs(val)


def _lane_in_a_batch(curve, seed, config=None):
    """trace_lanes on a batch of nine with `seed` in the middle; the other
    eight start halfway along the critical trajectories at its phase, far
    from every zero."""
    others = []
    for s in seed_critical(curve, seed.theta)[:8]:
        traj = trace(curve, s)
        k = len(traj) // 2
        others.append(TrajectorySeed(z=traj.points[k], x=traj.x[k],
                                     k=traj.k, origin=s.origin,
                                     theta=seed.theta))
    return trace_lanes(curve, others[:4] + [seed] + others[4:],
                       config or TraceConfig())[4]


_TRACERS = [pytest.param(trace, id="scalar"),
            pytest.param(_lane_in_a_batch, id="lanes")]


@pytest.mark.parametrize("tracer", _TRACERS)
def test_seed_pair_on_one_sheet_is_rejected(tracer, pentagon):
    seed = seed_critical(pentagon.curve, 0.2)[0]
    with pytest.raises(ValidationError, match="single sheet"):
        tracer(pentagon.curve, TrajectorySeed(z=seed.z, x=seed.x, k=0,
                                              origin=seed.origin, theta=0.2))


@pytest.mark.parametrize("tracer", _TRACERS)
def test_seed_on_a_zero_is_rejected(tracer):
    # on a zero of P0 the three sheets coincide, whatever k says
    curve = SpectralCurve(Polynomial([-1.0, 1.0]))
    with pytest.raises(ValidationError, match="single sheet"):
        tracer(curve, TrajectorySeed(z=1.0, x=0j, k=1,
                                     origin=("critical", 0, 0, 0.0), theta=0.2))


@pytest.mark.parametrize("tracer", _TRACERS)
def test_step_collapse_raises_sheet_ambiguity(tracer, pentagon, monkeypatch):
    # a critical seed sits delta0 = 1e-4 from its zero, where the step cap
    # zero_step * dist + delta_hit / 2 at TraceConfig's defaults (0.1 and
    # 1e-3) is 5.1e-4, below this H_MIN
    seed = seed_critical(pentagon.curve, 0.2)[0]
    monkeypatch.setattr(network, "H_MIN", 1e-3)
    with pytest.raises(SheetAmbiguity, match="collapsed"):
        tracer(pentagon.curve, seed)


def test_lane_stage_on_a_zero_retries_then_raises(pentagon, monkeypatch):
    # rho = -P0(w)/x^3 == 0 flags a stage on a zero of P0: the lane
    # retries at h/4 until the step would fall below H_MIN
    seed = seed_critical(pentagon.curve, 0.2)[0]
    monkeypatch.setattr(network, "_lane_rho",
                        lambda coeffs, w, inv_cube: np.zeros_like(w))
    with pytest.raises(SheetAmbiguity, match="RK stage on a zero"):
        trace_lanes(pentagon.curve, [seed], TraceConfig())


# ---------------- lanes against the scalar tracer ----------------

@pytest.fixture(scope="module", params=[
    ("pentagon", (-0.62, -0.43), math.pi / 80),
    ("hexagon", (0.47, 0.58), math.pi / 120)], ids=["pentagon", "hexagon"])
def window_lanes(request):
    """The critical seeds of every grid phase of a test window at the scan
    config, and their trajectories traced as one batch of lanes."""
    name, (lo, hi), step = request.param
    curve = request.getfixturevalue(name).curve
    cfg = network._web_trace_config(curve, fine=False)
    n = max(2, int(math.ceil((hi - lo) / step)))
    thetas = [lo + (hi - lo) * k / n for k in range(n + 1)]
    seeds = [s for th, rays in zip(
                 thetas, network.RayBook(curve, cfg.delta0).rays_at(thetas))
             for s in network._critical_seeds(curve, th, cfg.delta0, rays)]
    return curve, cfg, seeds, trace_lanes(curve, seeds, cfg)


def _distance_to_polyline(points, polyline):
    """Largest distance from any of `points` to the polyline."""
    p = np.asarray(points)[:, None]
    a, b = np.asarray(polyline[:-1])[None, :], np.asarray(polyline[1:])[None, :]
    d = b - a
    t = np.clip(((p - a) * d.conjugate()).real / np.abs(d) ** 2, 0.0, 1.0)
    return float(np.abs(p - (a + t * d)).min(axis=1).max())


def _leg(curve, traj, end=None):
    """The integral of u dz along a trajectory's chords, closed by a chord
    to `end` if given."""
    points = traj.points if end is None else np.append(traj.points, end)
    return network._leg_period(curve, traj, points)


def _as_tuple(curve, traj):
    return (traj.points.tolist(), traj.x.tolist(), traj.k, _leg(curve, traj),
            traj.status, traj.hit_zero)


def test_lanes_follow_the_scalar_tracer(window_lanes):
    curve, cfg, seeds, lanes = window_lanes
    for seed, lane in zip(seeds, lanes):
        ref = trace(curve, seed, cfg)
        assert lane.seed is seed
        assert (lane.status, lane.hit_zero) == (ref.status, ref.hit_zero)
        assert _distance_to_polyline(lane.points, ref.points) < 1e-9
        # the same sheet: closed by a chord to the lane's end, the scalar
        # trace's integral is the lane's, since u dz is holomorphic
        leg = _leg(curve, lane)
        assert abs(leg - _leg(curve, ref, lane.points[-1])) < 1e-12 * abs(leg)
        assert (lane.x[0], lane.k) == (ref.x[0], ref.k)


def test_both_tracers_return_arrays(pentagon):
    seeds = seed_critical(pentagon.curve, 0.2)[:3]
    for traj in [trace(pentagon.curve, s) for s in seeds] \
            + trace_lanes(pentagon.curve, seeds, TraceConfig()):
        for values, dtype in ((traj.points, complex), (traj.x, complex)):
            assert isinstance(values, np.ndarray) and values.dtype == dtype
            assert values.shape == (len(traj),)
        assert type(traj.k) is int and traj.k in (1, 2)


def test_a_lane_does_not_depend_on_its_batch(window_lanes):
    curve, cfg, seeds, lanes = window_lanes
    order = list(range(len(seeds)))
    np.random.default_rng(8).shuffle(order)
    shuffled = trace_lanes(curve, [seeds[i] for i in order], cfg)
    for i, lane in zip(order, shuffled):
        assert _as_tuple(curve, lane) == _as_tuple(curve, lanes[i])
    # one ray of each phase on its own, a different label at each phase
    per_phase = 8 * len(curve.ramification_points)
    for p in range(len(seeds) // per_phase):
        i = p * per_phase + p % per_phase
        alone, = trace_lanes(curve, [seeds[i]], cfg)
        assert _as_tuple(curve, alone) == _as_tuple(curve, lanes[i])


def _grid_and_window(curve, theta_range, step):
    """detect_bps's scan grid over theta_range and its miss window."""
    lo, hi = theta_range
    n = max(2, int(math.ceil((hi - lo) / step)))
    zs = curve.ramification_points
    return ([lo + (hi - lo) * k / n for k in range(n + 1)],
            0.35 * min(abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1:]))


@pytest.mark.parametrize("name, theta_range, step", [
    ("pentagon", (-0.62, -0.43), math.pi / 80),
    ("hexagon", (0.47, 0.58), math.pi / 120)], ids=["pentagon", "hexagon"])
def test_scan_events_do_not_depend_on_the_block(name, theta_range, step,
                                                request):
    # the window's grid as one block, and as blocks of 5 phases that end
    # in a one-phase block; all batches are lanes, so every phase's misses
    # are the same
    curve = request.getfixturevalue(name).curve
    cfg = network._web_trace_config(curve, fine=False)
    thetas, window = _grid_and_window(curve, theta_range, step)
    tables = network.RayBook(curve, cfg.delta0).rays_at(thetas)
    whole = [ev for ev, _ in network._scan_events(curve, thetas, tables, cfg,
                                                  window)]
    assert len(thetas) % 5 == 1 and any(whole)
    split = [ev for b in range(0, len(thetas), 5)
             for ev, _ in network._scan_events(curve, thetas[b:b + 5],
                                               tables[b:b + 5], cfg, window)]
    assert split == whole


# the window_lanes windows, and the benchmark's webscan windows around the
# pentagon web at -pi/6 and the hexagon web at pi/6 on the default grid
@pytest.mark.parametrize("name, theta_range, step", [
    ("pentagon", (-0.62, -0.43), math.pi / 80),
    ("hexagon", (0.47, 0.58), math.pi / 120),
    ("pentagon", (-math.pi / 6 - 0.023, -math.pi / 6 + 0.047), math.pi / 300),
    ("hexagon", (math.pi / 6 - 0.023, math.pi / 6 + 0.037), math.pi / 300)],
    ids=["pentagon", "hexagon", "pentagon-webscan", "hexagon-webscan"])
def test_the_scan_step_cap_keeps_the_reads(name, theta_range, step, request):
    # the scan lanes step up to 0.125 of the distance to the nearest zero,
    # growth and assembly 0.1: at 0.1 the scan finds the same events in
    # the same brackets, reads them at the same grid ends, and gets the
    # same charges and theta*, from periods that differ by rounding
    # (measured at most 1.7e-12 relative)
    curve = request.getfixturevalue(name).curve
    pm = request.getfixturevalue(f"{name}_pm")
    cfg = network._web_trace_config(curve, fine=False)
    assert (cfg.zero_step, TraceConfig().zero_step) == (0.125, 0.1)
    thetas, window = _grid_and_window(curve, theta_range, step)
    loose, tight = (network._event_periods(curve, thetas, c, window)
                    for c in (cfg, dataclasses.replace(cfg, zero_step=0.1)))
    assert loose and [r[:3] for r in loose] == [r[:3] for r in tight]
    for (_, bracket, theta, Z), (*_, Z_tight) in zip(loose, tight):
        charge, th_star = network._read_charge(Z, bracket, theta, pm)
        assert (charge, th_star) == network._read_charge(Z_tight, bracket,
                                                         theta, pm)
        assert abs(Z - Z_tight) < 1e-10 * abs(Z)


def test_a_recorded_hit_counts_only_at_its_own_zero():
    # a trajectory that hit zero 0 passes 0.1 to the left of zero 1 on
    # its way there: at zero 1 its miss is signed, not a recorded hit
    zeros = [0j, 2 + 0.1j]
    points = np.array([4 + 0j, 3 + 0j, 2 + 0j, 1 + 0j, 1e-4 + 0j])
    traj = network.Trajectory(points, np.ones(5, complex), 1, "hit_zero", 0,
                              None)
    assert network._signed_miss(traj, zeros, 0, 0.5) == 0.0
    assert network._signed_miss(traj, zeros, 1, 0.5) == -0.1
    # the same polyline run the other way, not recorded as a hit
    reverse = network.Trajectory(points[::-1], np.ones(5, complex), 1,
                                 "escaped", None, None)
    assert network._signed_miss(reverse, zeros, 1, 0.5) == 0.1
    assert network._signed_miss(reverse, zeros, 1, 0.05) is None


@pytest.mark.parametrize("name, theta_range, step", [
    ("pentagon", (-0.62, -0.43), math.pi / 80),
    ("hexagon", (0.47, 0.58), math.pi / 120)], ids=["pentagon", "hexagon"])
def test_critical_rays_do_not_depend_on_the_block(name, theta_range, step,
                                                  request):
    # a phase's rays are the same found with the window's grid as one
    # block, in blocks of 5, or alone; and one ray found on its own, as an
    # event's refinement finds it, is the same ray
    curve = request.getfixturevalue(name).curve
    delta0 = network._web_trace_config(curve, fine=False).delta0
    book = network.RayBook(curve, delta0)
    lo, hi = theta_range
    n = max(2, int(math.ceil((hi - lo) / step)))
    thetas = [lo + (hi - lo) * k / n for k in range(n + 1)]
    whole = book.rays_at(thetas)
    assert len(whole) == len(thetas) and len(thetas) % 5 == 1
    assert [table for b in range(0, len(thetas), 5)
            for table in book.rays_at(thetas[b:b + 5])] == whole
    assert [book.rays_at([th])[0] for th in thetas] == whole
    zeros = len(curve.ramification_points)
    for p, (theta, table) in enumerate(zip(thetas, whole)):
        zi, m = p % zeros, p % 8
        assert network._critical_rays(curve, [(theta, zi, m)], delta0) \
            == [table[zi][m][1:]]


def _every_pair_crossings(polylines, new=0):
    """The reference for later_crossings: every segment of each polyline
    solved against every segment of each later one of index new or more,
    with no bounding boxes and no sweep, by the same exact formulas."""
    out = {}
    for b in range(max(new, 1), len(polylines)):
        pB = np.asarray(polylines[b], dtype=complex)
        for a in range(b):
            pA = np.asarray(polylines[a], dtype=complex)
            d1 = (pA[1:] - pA[:-1])[:, None]
            d2 = (pB[1:] - pB[:-1])[None, :]
            w = pB[None, :-1] - pA[:-1, None]
            den = (d1.conjugate() * d2).imag
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (w.conjugate() * d2).imag / den
                s = (w.conjugate() * d1).imag / den
            ia, ib = np.nonzero((np.abs(den) > 1e-30) & (t >= 0) & (t < 1)
                                & (s >= 0) & (s < 1))
            if len(ia):
                ta, tb = t[ia, ib], s[ia, ib]
                z = pA[ia] + (pA[ia + 1] - pA[ia]) * ta
                out[a, b] = list(zip(z.tolist(), ia.tolist(), ta.tolist(),
                                     ib.tolist(), tb.tolist()))
    return out


def _check_later_crossings(polylines):
    """later_crossings against the reference for every new; the hits of
    new = 0."""
    found = [later_crossings(polylines, new)
             for new in range(len(polylines) + 1)]
    for new, got in enumerate(found):
        assert got == _every_pair_crossings(polylines, new)
        assert list(got) == sorted(got)
    return found[0]


def test_later_crossings_match_pairwise_intersections(window_lanes):
    _, _, seeds, lanes = window_lanes
    phases = {}
    for seed, lane in zip(seeds, lanes):
        phases.setdefault(seed.theta, []).append((seed.origin[1:3], lane))
    for rays in phases.values():
        polylines = [lane.points for _, lane in sorted(rays)]
        found = later_crossings(polylines)
        assert found
        assert found == _every_pair_crossings(polylines)
        # new bounds the later polyline of each pair, as grow_network's
        # newborn trajectories do
        for new in (1, len(polylines) // 2, len(polylines) - 1,
                    len(polylines)):
            assert later_crossings(polylines, new) == {
                key: hits for key, hits in found.items() if key[1] >= new}


def _lattice_polylines(rng, count, most, side):
    """count polylines of 0 to most points on the half-integer grid of
    [0, side]^2, so that segments tie in left x, run vertically or
    horizontally, have zero length, overlap collinearly and share
    endpoints; their arithmetic is exact."""
    out = []
    for _ in range(count):
        n = int(rng.integers(0, most + 1))
        xy = rng.integers(0, 2 * side + 1, size=(n, 2)) / 2
        repeat = rng.random(n) < 0.15
        for m in np.nonzero(repeat)[0]:
            if m:
                xy[m] = xy[m - 1]
        out.append(xy[:, 0] + 1j * xy[:, 1])
    return out


def test_later_crossings_on_degenerate_segments():
    # the sweep against the every-pair reference, for every new, on
    # lattice polylines full of ties and degenerate segments
    rng = np.random.default_rng(20261020)
    for _ in range(40):
        _check_later_crossings(_lattice_polylines(rng, 6, 9, 3))
    # the half-open rule: a crossing at a shared vertex counts once, for
    # the two segments that start there
    a = np.array([0, 1 + 1j, 2 + 0j])
    b = np.array([2j, 1 + 1j, 2 + 2j])
    assert _check_later_crossings([a, b]) == {
        (0, 1): [(1 + 1j, 1, 0.0, 1, 0.0)]}
    # a collinear overlap (den = 0) does not cross
    assert _check_later_crossings([np.array([0, 2 + 2j]),
                                   np.array([1 + 1j, 3 + 3j])]) == {}
    # vertical against horizontal, and through a zero-length segment to
    # the segment that starts on the crossing; empty and one-point
    # polylines have no segments
    h = np.array([0, 2 + 0j])
    v = np.array([1 - 1j, 1 + 0j, 1 + 0j, 1 + 1j])
    assert _check_later_crossings([h, np.array([]), np.array([1j]), v,
                                   np.array([1 - 1j, 1 + 1j])]) == {
        (0, 3): [(1 + 0j, 0, 0.5, 2, 0.0)],
        (0, 4): [(1 + 0j, 0, 0.5, 0, 0.5)]}
    assert later_crossings([]) == {}


def test_later_crossings_span_several_pair_slices():
    # random walks crowded into one box: the x-overlapping segment pairs
    # fill several slices of CROSSING_PAIRS
    rng = np.random.default_rng(7)
    walks = [np.cumsum(rng.normal(size=150) + 1j * rng.normal(size=150))
             for _ in range(12)]
    segments = np.concatenate([np.stack((p[:-1], p[1:])) for p in walks],
                              axis=1)
    x0, x1 = segments.real.min(axis=0), segments.real.max(axis=0)
    overlapping = ((x0[:, None] <= x1[None, :]) & (x0[None, :] <= x1[:, None])
                   ).sum() - len(x0)
    assert overlapping // 2 > 5 * network.CROSSING_PAIRS
    found = _check_later_crossings(walks)
    assert sum(len(hits) for hits in found.values()) > 100


def test_crossing_search_memory_stays_bounded(hexagon, monkeypatch):
    # the largest call of the hexagon census at theta = -0.5 stays below
    # 1.2 MB under tracemalloc (0.64 MB; 3.3 MB with every candidate pair
    # expanded at once)
    calls = []

    def record(polylines, new=0):
        calls.append((polylines, new))
        return later_crossings(polylines, new)

    monkeypatch.setattr(network, "later_crossings", record)
    grow_network(hexagon.curve, -0.5)
    monkeypatch.undo()
    polylines, new = max(calls, key=lambda c: sum(len(p) for p in c[0]))
    assert (sum(len(p) for p in polylines), len(polylines)) == (4524, 33)
    tracemalloc.start()
    try:
        later_crossings(polylines, new)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


@pytest.mark.parametrize("name, theta", [("pentagon", 0.0), ("hexagon", 0.1)])
def test_junctions_sit_on_their_parents_crossings(name, theta, request):
    # J lies on both parents' Hermite segments, on the segments whose
    # chords cross, and within a chord-to-curve distance of the chord
    # crossing
    curve = request.getfixturevalue(name).curve
    net = grow_network(curve, theta)
    assert net.junctions
    for j in net.junctions:
        A, B = (net.trajectories[i] for i in j.parents)
        (ia, ta), (ib, tb) = j.parent_params
        assert 0 <= ta <= 1 and 0 <= tb <= 1
        assert abs(network._hermite(A, ia)(ta)[0] - j.point) < 1e-13
        assert abs(network._hermite(B, ib)(tb)[0] - j.point) < 1e-13
        chord, = [z for z, ia1, _, ib1, _ in polyline_intersections(
            A.points, B.points) if (ia1, ib1) == (ia, ib)]
        assert 0 < abs(chord - j.point) < 1e-3


@pytest.mark.parametrize("name, theta", [("pentagon", 0.0), ("hexagon", 0.1)])
def test_census_junctions_match_a_fine_trace(name, theta, request,
                                             monkeypatch):
    # the same network traced with rk_tol 1e-13 and h_max 0.005 has the
    # same births, at points within 1e-5
    curve = request.getfixturevalue(name).curve
    net = grow_network(curve, theta, classify=False)
    fine = TraceConfig(rk_tol=1e-13, h_max=0.005)
    real_trace = network.trace
    monkeypatch.setattr(network, "trace",
                        lambda c, seed, config=None: real_trace(c, seed, fine))
    ref = grow_network(curve, theta, classify=False)
    assert [(j.parents, j.child) for j in net.junctions] \
        == [(j.parents, j.child) for j in ref.junctions]
    for j, r in zip(net.junctions, ref.junctions):
        assert abs(j.point - r.point) < 1e-5


def _straight(a, b, x, k):
    """A hand-built trajectory from a to b on the constant sheet x with
    partner omega^k x, in three segments, at the phase whose direction
    exp(i theta) conj(u)/|u| points from a to b, so that its Hermite
    segments are its chords."""
    points = np.linspace(a, b, 4)
    theta = cmath.phase((b - a) * (x - x * OMEGA ** k))
    seed = TrajectorySeed(z=a, x=x, k=k, origin=("critical", -1, 0, 0.0),
                          theta=theta)
    return network.Trajectory(points, np.full(4, x), k, "escaped", None,
                              seed)


def _pair_rule(A, B):
    """The birth rule on explicit sheet pairs A = (x_i, x_j) and B: head-on
    when B = (x_j, x_i); a child (x_i, x_l) when B = (x_j, x_l), or when
    A = (x_j, x_l) and B = (x_i, x_j); else no event."""
    if A[1] == B[0] and B[1] == A[0]:
        return "head_on", None
    if A[1] == B[0]:
        return "birth", (A[0], B[1])
    if B[1] == A[0]:
        return "birth", (B[0], A[1])
    return None, None


@pytest.mark.parametrize("iA, kA, iB, kB", [
    (iA, kA, iB, kB) for iA in range(3) for kA in (1, 2)
    for iB in range(3) for kB in (1, 2)])
def test_crossing_labels_follow_the_pair_rule(iA, kA, iB, kB):
    # over constant P0 the sheets are the three cube roots of -1, the same
    # at every point; A and B cross once, mid-segment, at z = 0
    curve = SpectralCurve(Polynomial([1.0]))
    rts = cube_roots(-1.0)
    trajA = _straight(-1.0, 1.0, rts[iA], kA)
    trajB = _straight(-0.2 - 1j, 0.2 + 1j, rts[iB], kB)
    hits = polyline_intersections(trajA.points, trajB.points)
    assert len(hits) == 1
    kind, child = _pair_rule((rts[iA], rts[(iA + kA) % 3]),
                             (rts[iB], rts[(iB + kB) % 3]))
    known = []
    events = list(network._crossings(curve, trajA, trajB, hits, known))
    if kind is None:
        assert events == [] and known == []
        return
    (got, hit, label), = events
    # the Hermite segments are the chords, so the refined crossing is the
    # chord crossing, to rounding
    assert got == kind and known == [hit[0]]
    assert hit[1::2] == hits[0][1::2]
    assert np.allclose(hit[::2], hits[0][::2], rtol=0, atol=1e-15)
    if kind == "head_on":
        assert label is None
    else:
        x, k = label
        i = nearest_root(rts, x)
        assert abs(x - rts[i]) < 1e-15 and k in (1, 2)
        assert (rts[i], rts[(i + k) % 3]) == child
    # the crossing is known now, so it is not found again
    assert list(network._crossings(curve, trajA, trajB, hits, known)) == []


def _directed(points, directions, k=1):
    """A hand-built trajectory at theta = 0 whose sheets point it along
    the unit `directions` at its `points`."""
    x = np.conj(np.asarray(directions, dtype=complex)) / (1 - OMEGA ** k)
    seed = TrajectorySeed(z=points[0], x=x[0], k=k,
                          origin=("critical", -1, 0, 0.0), theta=0.0)
    return network.Trajectory(np.asarray(points, dtype=complex), x, k,
                              "escaped", None, seed)


def test_a_crossing_moves_onto_the_hermite_segments():
    # B's chord crosses A's at 0.5; B's segment leaves at pi/6 and arrives
    # at pi/3, so its Hermite segment crosses the real axis at 0.564
    A = _directed([0, 1], [1, 1])
    B = _directed([0.5 - 1j, 0.5 + 1j], [cmath.exp(1j * math.pi / 6),
                                         cmath.exp(1j * math.pi / 3)])
    hit, = polyline_intersections(A.points, B.points)
    z, ia, ta, ib, tb = network._refine_crossing(A, B, hit)
    assert (ia, ib) == (hit[1], hit[3]) and abs(z - hit[0]) > 0.06
    assert abs(network._hermite(A, ia)(ta)[0] - z) < 1e-15
    assert abs(network._hermite(B, ib)(tb)[0] - z) < 1e-15
    # leaving at 0 and arriving at pi/2, B's segment crosses the axis at
    # 0.694, beyond A's segment [0, 0.6]: the chord crossing stays
    A = _directed([0, 0.6], [1, 1])
    B = _directed([0.5 - 1j, 0.5 + 1j], [1, 1j])
    hit, = polyline_intersections(A.points, B.points)
    assert network._refine_crossing(A, B, hit) is hit


@pytest.mark.parametrize("name, theta, n_points",
                         [("pentagon", 0.0, 2060), ("pentagon", 0.4, 2148),
                          ("hexagon", 0.1, 4138), ("hexagon", 0.9, 4126)])
def test_network_tracks_one_sheet_and_a_fixed_partner(name, theta, n_points,
                                                      request):
    # x is a sheet at every point, partnered by omega^k x with k fixed
    # along the trajectory; the point count pins the accepted step sequence
    curve = request.getfixturevalue(name).curve
    net = grow_network(curve, theta)
    assert sum(len(t) for t in net.trajectories) == n_points
    for traj in net.trajectories:
        assert traj.k in (1, 2)
        x = traj.x
        assert np.all(np.abs(x ** 3 + curve.polynomial(traj.points))
                      < 1e-9 * np.abs(x) ** 3)


# ---------------- networks ----------------

def test_pentagon_network_census(pentagon):
    net = grow_network(pentagon.curve, 0.0)
    assert len(net.trajectories) == 18
    assert net.n_born == 2
    assert len(net.infinity_marks) == 10
    assert not net.bps_ful
    assert len(net.final_arcs) == 5


def test_hexagon_network_census(hexagon):
    net = grow_network(hexagon.curve, 0.1)
    assert len(net.trajectories) == 31
    assert net.n_born == 7
    assert len(net.infinity_marks) == 12
    assert len(net.final_arcs) == 6


def test_pentagon_marks_equally_spaced(pentagon):
    net = grow_network(pentagon.curve, 0.0)
    angs = sorted(m.angle for m in net.infinity_marks)
    gaps = [angs[k + 1] - angs[k] for k in range(9)]
    assert max(abs(g - math.pi / 5) for g in gaps) < 1e-9


def test_marks_rotate_rigidly_in_bps_free_interval(pentagon):
    # theta and theta + d inside (-pi/6, pi/6): marks rotate by 3d/(n+3),
    # the label sequence stays fixed
    net0 = grow_network(pentagon.curve, 0.0)
    net1 = grow_network(pentagon.curve, 0.05)
    d = 3 * 0.05 / 5.0
    for m0, m1 in zip(net0.infinity_marks, net1.infinity_marks):
        assert abs((m1.angle - m0.angle) - d) < 1e-9
        assert m0.label == m1.label


def test_census_constant_on_bps_free_interval(pentagon):
    labels = None
    for th in (-0.35, 0.05, 0.40):
        net = grow_network(pentagon.curve, th)
        assert len(net.trajectories) == 18
        seq = [m.label for m in net.infinity_marks]
        if labels is None:
            labels = seq
        else:
            assert seq == labels


def test_direction_grid_spacing(pentagon, hexagon):
    for defn, n in ((pentagon, 2), (hexagon, 3)):
        grid, step = direction_grid(defn.curve, 0.3)
        assert len(grid) == 2 * n + 6
        assert abs(step - math.pi / (n + 3)) < 1e-15


def test_classify_requires_escaped(pentagon):
    net = grow_network(pentagon.curve, 0.0, classify=False)
    net.trajectories[0].status = "truncated"
    with pytest.raises(ValidationError):
        classify_infinity(pentagon.curve, net)


def test_alternation_violation_detected(pentagon):
    net = grow_network(pentagon.curve, 0.0, classify=False)
    marks = classify_infinity(pentagon.curve, net)
    # corrupt one trajectory's tracked label: track its partner x_j, whose
    # partner is then x_i, so the labels at its mark flip
    ti = marks[0].trajectories[0]
    tr = net.trajectories[ti]
    tr.x[-1] = tr.x[-1] * OMEGA ** tr.k
    tr.k = 3 - tr.k
    with pytest.raises(PatternViolation):
        classify_infinity(pentagon.curve, net)


# ---------------- intersections ----------------

def test_polyline_intersections_basic():
    import numpy as np

    a = np.array([0 + 0j, 1 + 1j, 2 + 0j])
    b = np.array([0 + 1j, 1 + 0j, 2 + 1j])
    hits = polyline_intersections(a, b)
    # in order along a: (z, ia, ta, ib, tb) of each crossing
    assert [h[1::2] for h in hits] == [(0, 0), (1, 1)]
    assert np.allclose([h[::2] for h in hits],
                       [(0.5 + 0.5j, 0.5, 0.5), (1.5 + 0.5j, 0.5, 0.5)],
                       rtol=0, atol=1e-12)


def test_polyline_intersections_none():
    import numpy as np

    a = np.array([0 + 0j, 1 + 0j])
    b = np.array([0 + 1j, 1 + 1j])
    assert polyline_intersections(a, b) == []
    assert later_crossings([a, b]) == {}


# ---------------- charge identification ----------------

def test_identify_charge_exact(pentagon_pm):
    Z = pentagon_pm.Z(Charge((2, -1)))
    ch, res = identify_charge(Z, pentagon_pm)
    assert ch.components == (2, -1)
    assert res < 1e-12


def test_identify_charge_failure(pentagon_pm):
    with pytest.raises(ChargeIdentificationFailed):
        identify_charge(0.77 + 0.13j, pentagon_pm)
    with pytest.raises(ChargeIdentificationFailed):
        identify_charge(0j, pentagon_pm)


class _RankSevenPeriods:
    """A period map of rank 7 whose periods are never to be read: its
    charge box would hold 9^7 candidates, about 1 GB."""

    rank = 7

    @property
    def basis_values(self):
        raise AssertionError("periods read past the rank check")


def test_charge_search_above_the_largest_rank_is_refused(
        pentagon, pentagon_pm, monkeypatch):
    assert network.MAX_CHARGE_RANK == 6
    with pytest.raises(ValidationError, match="rank 7"):
        identify_charge(1.0, _RankSevenPeriods())

    def no_rays(*args):
        raise AssertionError("traced past the rank check")

    monkeypatch.setattr(network, "RayBook", no_rays)
    with pytest.raises(ValidationError, match="rank 7"):
        detect_bps(pentagon.curve, pentagon.lattice, (0.45, 0.6),
                   period_map=_RankSevenPeriods())
    # the bound is inclusive
    monkeypatch.setattr(network, "MAX_CHARGE_RANK", 1)
    with pytest.raises(ValidationError, match="rank 2"):
        identify_charge(pentagon_pm.basis_values[0], pentagon_pm)
    monkeypatch.setattr(network, "MAX_CHARGE_RANK", 2)
    assert identify_charge(pentagon_pm.basis_values[0],
                           pentagon_pm)[0].components == (1, 0)


# ---------------- web detection (narrow windows; sweeps in acceptance) ----

def test_pentagon_web_at_minus_pi_over_six(pentagon, pentagon_pm):
    webs = detect_bps(pentagon.curve, pentagon.lattice, (-0.62, -0.43),
                      period_map=pentagon_pm, scan_step=math.pi / 80)
    assert len(webs) == 1
    w = webs[0]
    assert abs(w.theta_star + math.pi / 6) < 1e-3
    assert w.charge.components == (-1, 0)
    assert w.topology == "single_string"
    assert abs(cmath.phase(w.period) - w.theta_star) < 1e-4
    assert w.residual < 1e-4 * abs(w.period)


def test_hexagon_junction_web(hexagon, hexagon_pm):
    webs = detect_bps(hexagon.curve, hexagon.lattice, (0.47, 0.58),
                      period_map=hexagon_pm, scan_step=math.pi / 120)
    junctions = [w for w in webs if w.topology == "three_string_junction"]
    assert len(junctions) == 1
    w = junctions[0]
    assert w.charge.components == (1, 1, 0, 0)
    assert abs(w.theta_star - math.pi / 6) < 1e-3
    assert len(w.zeros) == 3
    assert abs(cmath.phase(w.period) - w.theta_star) < 1e-4


def test_antipodal_web_partner(pentagon, pentagon_pm):
    # a web of charge gamma at theta* has a partner of charge -gamma at
    # theta* + pi (theta -> theta + pi reverses every label)
    lo, hi = -0.62, -0.43
    w1 = detect_bps(pentagon.curve, pentagon.lattice, (lo, hi),
                    period_map=pentagon_pm, scan_step=math.pi / 80)
    w2 = detect_bps(pentagon.curve, pentagon.lattice,
                    (lo + math.pi, hi + math.pi),
                    period_map=pentagon_pm, scan_step=math.pi / 80)
    assert len(w1) == 1 and len(w2) == 1
    assert w2[0].charge.components == tuple(-c for c in w1[0].charge)
    assert abs((w2[0].theta_star - w1[0].theta_star) - math.pi) < 1e-4


def test_web_segments_recorded(pentagon, pentagon_pm):
    webs = detect_bps(pentagon.curve, pentagon.lattice, (-0.62, -0.43),
                      period_map=pentagon_pm, scan_step=math.pi / 80)
    seg, = webs[0].segments
    zeros = pentagon.curve.ramification_points
    assert min(abs(seg[0] - z) for z in zeros) < 1e-3
    assert min(abs(seg[-1] - z) for z in zeros) < 1e-3


@pytest.mark.parametrize("theta_range, step", [
    ((0.45, 0.6), 0.0), ((0.45, 0.6), -0.1), ((0.45, 0.6), math.nan),
    ((0.45, 0.6), math.inf), ((1.0, 0.5), 0.04), ((0.5, 0.5), 0.04),
    ((0.0, math.inf), 0.04), ((math.nan, 1.0), 0.04), ((0.0, 0.1), 1e-9),
    ((0.0, 1.0), 5e-324)],
    ids=["zero-step", "negative-step", "nan-step", "inf-step",
         "reversed-range", "empty-range", "inf-range", "nan-range",
         "too-many-phases", "phase-count-overflows"])
def test_bad_scan_step_or_range_is_rejected(theta_range, step, pentagon,
                                            pentagon_pm):
    with pytest.raises(ValidationError):
        detect_bps(pentagon.curve, pentagon.lattice, theta_range,
                   period_map=pentagon_pm, scan_step=step)


def test_scan_grid_bound_counts_phase_steps(monkeypatch):
    # a one-zero curve has no finite web, so a grid within the bound
    # returns at once; one step more is refused
    curve = SpectralCurve(Polynomial([1.0, 1.0]))
    monkeypatch.setattr(network, "MAX_SCAN_PHASES", 4)
    assert detect_bps(curve, None, (0.0, 1.0), scan_step=0.25) == []
    with pytest.raises(ValidationError, match="more than 4 phase steps"):
        detect_bps(curve, None, (0.0, 1.0), scan_step=0.2499)


@pytest.mark.parametrize("coefficients", [[1.0], [-0.5j, 1.0]],
                         ids=["no-zero", "one-zero"])
def test_no_webs_without_two_zeros(coefficients):
    # a finite web joins two zeros, so there is nothing to scan for
    curve = SpectralCurve(Polynomial(coefficients))
    assert detect_bps(curve, None, (0.0, 1.0)) == []


# ---------------- web detection: work counts, pinned phases, drops ----

def _counted_scan(defn, pm, theta_range, scan_step, fault=None):
    """detect_bps on one window, recording the scan grid, the blocks of
    phases that RayBook.rays_at is asked for, the critical lanes traced at
    each grid phase, the traces (scalar or lane) made by each event build
    (with its phase and generation depth), every trace off the grid, the
    phases of the builds at the assembly config, the (bracket, phase) of
    each charge read, the (residual_rel, charge) of every charge
    identification, each read's residual relative to its period, and any
    WebEventDropped.  fault(mp), if given, patches network further
    through the MonkeyPatch mp."""
    lo, hi = theta_range
    n = max(2, int(math.ceil((hi - lo) / scan_step)))
    grid = [lo + (hi - lo) * k / n for k in range(n + 1)]
    fine = network._web_trace_config(defn.curve, fine=True)
    rays_at_blocks, builds, off_grid_traces = [], [], []
    fine_builds, reads, identified, read_residuals = [], [], [], []
    critical_lanes = {theta: 0 for theta in grid}
    building = []

    def rays_at(self, thetas):
        rays_at_blocks.append(list(thetas))
        return real_rays_at(self, thetas)

    def count(seed):
        if seed.theta not in grid:
            off_grid_traces.append(seed.theta)
        if building:
            building[-1][2] += 1

    def trace(curve, seed, config=None):
        count(seed)
        return real_trace(curve, seed, config)

    def trace_lanes(curve, seeds, config):
        for seed in seeds:
            count(seed)
            if seed.origin[0] == "critical" and seed.theta in grid:
                critical_lanes[seed.theta] += 1
        return real_trace_lanes(curve, seeds, config)

    def event_point(curve, event, theta, config):
        build = [theta, 1 if event[0] == "j" else 0, 0]
        builds.append(build)
        if config == fine:
            fine_builds.append(theta)
        building.append(build)
        try:
            return real_event_point(curve, event, theta, config)
        finally:
            building.pop()

    def read_charge(Z, bracket, theta, period_map):
        reads.append((bracket, theta))
        return real_read_charge(Z, bracket, theta, period_map)

    def identify(Z, period_map, residual_rel=1e-4):
        charge, res = real_identify(Z, period_map, residual_rel)
        identified.append((residual_rel, charge.components))
        if residual_rel != network.RESIDUAL_REL:
            read_residuals.append(res / abs(Z))
        return charge, res

    real_rays_at = network.RayBook.rays_at
    real_trace = network.trace
    real_trace_lanes = network.trace_lanes
    real_event_point = network._event_point
    real_identify = network.identify_charge
    real_read_charge = network._read_charge
    with pytest.MonkeyPatch.context() as mp, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", WebEventDropped)
        mp.setattr(network.RayBook, "rays_at", rays_at)
        mp.setattr(network, "trace", trace)
        mp.setattr(network, "trace_lanes", trace_lanes)
        mp.setattr(network, "_event_point", event_point)
        mp.setattr(network, "identify_charge", identify)
        mp.setattr(network, "_read_charge", read_charge)
        if fault:
            fault(mp)
        webs = detect_bps(defn.curve, defn.lattice, theta_range,
                          period_map=pm, scan_step=scan_step)
    dropped = [w for w in caught if issubclass(w.category, WebEventDropped)]
    return {"webs": webs, "grid": grid, "rays_at": rays_at_blocks,
            "critical_lanes": critical_lanes, "builds": builds,
            "off_grid": off_grid_traces, "fine": fine_builds,
            "reads": reads, "identified": identified,
            "read_residuals": read_residuals, "dropped": dropped,
            "zeros": len(defn.curve.ramification_points)}


@pytest.fixture(scope="module")
def pentagon_window_scan(pentagon, pentagon_pm):
    return _counted_scan(pentagon, pentagon_pm, (-0.62, -0.43), math.pi / 80)


@pytest.fixture(scope="module")
def hexagon_window_scan(hexagon, hexagon_pm):
    return _counted_scan(hexagon, hexagon_pm, (0.47, 0.58), math.pi / 120)


# off-grid traces when every bisection and assembly midpoint re-traced all
# critical rays and their children: 736 (pentagon), 2010 (hexagon)
@pytest.mark.parametrize("scan, before", [("pentagon_window_scan", 736),
                                          ("hexagon_window_scan", 2010)])
def test_event_refinement_traces_only_the_event(scan, before, request):
    run = request.getfixturevalue(scan)
    web, = run["webs"]
    # the shared ray book is asked for the rays of each scan point once,
    # and only there: each window is one scan block
    assert [th for block in run["rays_at"] for th in block] == run["grid"]
    assert len(run["rays_at"]) == 1
    # every grid phase traces its 8 critical rays per zero as lanes
    assert set(run["critical_lanes"].values()) == {8 * run["zeros"]}
    # the only build off the grid is the web's fine one, at theta*: one
    # critical ray ("c"), or two parents and their child ("j")
    off_grid = [b for b in run["builds"] if b[0] not in run["grid"]]
    assert [b[0] for b in off_grid] == run["fine"] == [web.theta_star]
    (_, generations, traces), = off_grid
    assert traces == (3 if generations else 1)
    assert len(run["off_grid"]) == traces < before / 5


# sign-changing events that see the one web of each window
@pytest.mark.parametrize("scan, events", [("pentagon_window_scan", 2),
                                          ("hexagon_window_scan", 3)])
def test_each_web_is_assembled_once(scan, events, request):
    run = request.getfixturevalue(scan)
    web, = run["webs"]
    # one trace at the assembly config, at the web's phase
    assert run["fine"] == [web.theta_star]
    # every event is read at scan quality (10 * residual_rel) before the
    # first assembly; only the first read goes on to the assembly
    charge = web.charge.components
    assert run["identified"] == [(1e-3, charge)] * events + [(1e-4, charge)]


# the same windows and event counts as above
@pytest.mark.parametrize("scan, events", [("pentagon_window_scan", 2),
                                          ("hexagon_window_scan", 3)])
def test_each_event_is_read_at_a_grid_end(scan, events, request):
    run = request.getfixturevalue(scan)
    web, = run["webs"]
    # each event's charge is read from the scan point at one end of its
    # grid bracket, with no trace of its own; the web takes one fine
    # build at theta*
    assert len(run["reads"]) == events
    for (th0, th1), theta in run["reads"]:
        assert theta in (th0, th1) and run["grid"].index(th1) \
            == run["grid"].index(th0) + 1
    assert len(run["builds"]) == 1
    # the legs, closed into their zeros, give the charge's period far
    # inside the read's 1e-3: measured at most 2.1e-11
    assert len(run["read_residuals"]) == events
    assert max(run["read_residuals"]) < 1e-8


@pytest.mark.parametrize("name, theta_range, step, scan", [
    ("pentagon", (-0.62, -0.43), math.pi / 80, "pentagon_window_scan"),
    ("hexagon", (0.47, 0.58), math.pi / 120, "hexagon_window_scan")],
    ids=["pentagon", "hexagon"])
def test_a_failed_read_drops_its_event(name, theta_range, step, scan,
                                       request):
    # the event whose read fails is dropped, naming itself, its bracket
    # and the reason, with no fine build; the window's web comes from its
    # next event, which sees it from its other end (pentagon) or with
    # the parents swapped (hexagon)
    failed = []

    def fail_first_read(mp):
        real_read = network._read_charge

        def read_charge(Z, bracket, *args):
            if not failed:
                failed.append(bracket)
                raise ChargeIdentificationFailed("first read (test)")
            return real_read(Z, bracket, *args)

        mp.setattr(network, "_read_charge", read_charge)

    run = _counted_scan(request.getfixturevalue(name),
                        request.getfixturevalue(f"{name}_pm"), theta_range,
                        step, fault=fail_first_read)
    (th0, th1), = failed
    drop, = run["dropped"]
    assert re.fullmatch(
        r"finite-web event \('[cj]', \(.+\), zero \d\) in theta bracket "
        + re.escape(f"[{th0!r}, {th1!r}] dropped: first read (test)"),
        str(drop.message))
    web, = run["webs"]
    ref, = request.getfixturevalue(scan)["webs"]
    assert run["fine"] == [web.theta_star]
    assert (web.charge, web.topology, web.theta_star) \
        == (ref.charge, ref.topology, ref.theta_star)
    assert set(web.zeros) == set(ref.zeros) and web.zeros != ref.zeros
    assert abs(web.period - ref.period) < 1e-12 * abs(ref.period)


@pytest.mark.parametrize("name, theta_range", [
    ("pentagon", (-math.pi, math.pi)), ("hexagon", (0.0, 2 * math.pi))],
    ids=["pentagon", "hexagon"])
def test_coarse_full_sweeps_give_the_builtin_spectra(name, theta_range,
                                                      request):
    # a grid ten times coarser than the default: a bracket end may miss
    # its zero by up to the window, and the legs closed into the zeros
    # still read every charge (hexagon reads within 1.0e-9 relative)
    defn = request.getfixturevalue(name)
    pm = request.getfixturevalue(f"{name}_pm")
    run = _counted_scan(defn, pm, theta_range, math.pi / 30)
    assert run["dropped"] == []
    assert max(run["read_residuals"]) < 1e-8
    builtin = builtin_spectrum(name)
    harvested = spectrum_from_webs(run["webs"], rank=pm.rank)
    assert set(harvested.charges()) == set(builtin.charges())
    for web in run["webs"]:
        Z = pm.Z(web.charge)
        assert abs(web.period - Z) < 1e-10 * abs(Z)


def _arg_gap(web, pm):
    return abs(network._wrap(web.theta_star - cmath.phase(pm.Z(web.charge))))


def test_window_webs_pinned_and_nothing_dropped(pentagon_window_scan,
                                                hexagon_window_scan,
                                                pentagon_pm, hexagon_pm):
    pent, = pentagon_window_scan["webs"]
    assert _arg_gap(pent, pentagon_pm) < 1e-12
    assert abs(pent.theta_star + math.pi / 6) < 1e-8
    hexa, = hexagon_window_scan["webs"]
    assert _arg_gap(hexa, hexagon_pm) < 1e-12
    assert pentagon_window_scan["dropped"] == []
    assert hexagon_window_scan["dropped"] == []


def test_webscan_windows_pin_the_web_phases(pentagon, pentagon_pm, hexagon,
                                            hexagon_pm):
    # the benchmark's windows: 7 (6) steps of 0.01, web at 0.3 of a step
    lo = -math.pi / 6 - 0.023
    pent, = detect_bps(pentagon.curve, pentagon.lattice, (lo, lo + 0.07),
                       period_map=pentagon_pm)
    assert _arg_gap(pent, pentagon_pm) < 1e-12
    assert abs(pent.theta_star + math.pi / 6) < 1e-8
    lo = math.pi / 6 - 0.023
    hexa, = detect_bps(hexagon.curve, hexagon.lattice, (lo, lo + 0.06),
                       period_map=hexagon_pm)
    assert _arg_gap(hexa, hexagon_pm) < 1e-12
    # the junction web's period is the integral of u dz along its legs,
    # which does not depend on where the junction point lies: it meets
    # Z(gamma) to about 1e-13
    Z = hexagon_pm.Z(hexa.charge)
    assert abs(hexa.period - Z) < 1e-10 * abs(Z)
    period = 7.7733122034 + 4.4879238931j
    assert abs(hexa.period - period) < 1e-10 * abs(period)


def _moved_junction(curve, point, key, zJ):
    """A scan point whose junction child starts at zJ: its first point and
    sheet moved there, and zJ recorded as the junction point."""
    critical, children = point
    (_, ia, ta, ib, tb), child = children[key]
    x0 = continue_root(-curve.polynomial(zJ), child.x[0])
    moved = network.Trajectory(np.append(zJ, child.points[1:]),
                               np.append(x0, child.x[1:]), child.k,
                               child.status, child.hit_zero, child.seed)
    return critical, {key: ((zJ, ia, ta, ib, tb), moved)}


def test_junction_period_does_not_depend_on_the_junction_point(
        hexagon, hexagon_pm, monkeypatch):
    # u dz is holomorphic and u_A + u_B = u_child at J, so moving J along
    # either parent's chord or off both changes the period by rounding
    curve = hexagon.curve
    fine = network._web_trace_config(curve, fine=True)
    assemblies = []
    real_assemble = network._assemble_web

    def assemble(curve, event, point, theta, config, period_map):
        web = real_assemble(curve, event, point, theta, config, period_map)
        if config == fine:
            assemblies.append((event, point, theta, web))
        return web

    monkeypatch.setattr(network, "_assemble_web", assemble)
    detect_bps(curve, hexagon.lattice, (0.47, 0.58), period_map=hexagon_pm,
               scan_step=math.pi / 120)
    (event, point, theta, web), = assemblies
    kind, key, _ = event
    assert kind == "j"
    (zJ, ia, _, ib, _), _ = point[1][key]
    A, B = point[0][key[0]].points, point[0][key[1]].points
    # along A's chord, along B's, and 1e-3 off in three directions
    moves = [A[ia] + t * (A[ia + 1] - A[ia]) for t in (0.1, 0.9)]
    moves += [B[ib] + 0.5 * (B[ib + 1] - B[ib])]
    moves += [zJ + 1e-3, zJ - 1e-3j, zJ + 1e-3 * cmath.exp(2j)]
    for z in moves:
        assert abs(z - zJ) > 1e-5
        moved = real_assemble(curve, event,
                              _moved_junction(curve, point, key, z), theta,
                              fine, hexagon_pm)
        assert moved.charge == web.charge
        assert abs(moved.period - web.period) < 1e-12 * abs(web.period)


@pytest.mark.parametrize("tilt, reason", [
    # arg Z(gamma) falls 5e-4 off the web, inside the pi/80 grid bracket:
    # the fine trace misses the zero by 5.16e-3, above 100 delta_hit
    pytest.param(5e-4, "assembled trajectory misses the zero by 5.16e-03",
                 id="0.0005-fine-miss"),
    # arg Z(gamma) falls 1e-4 off the web: the fine trace misses the zero
    # by 1.5e-3
    (1e-4, "assembled trajectory misses the zero by"),
])
def test_web_off_its_period_phase_is_dropped(tilt, reason, pentagon,
                                             pentagon_pm):
    # rotating every period keeps the charge identifiable at scan quality
    # (1e-3 relative) but moves arg Z(gamma) off the web
    tilted = PeriodMap(pentagon_pm.basis_values * cmath.exp(1j * tilt))
    with pytest.warns(WebEventDropped, match=reason):
        webs = detect_bps(pentagon.curve, pentagon.lattice, (-0.62, -0.43),
                          period_map=tilted, scan_step=math.pi / 80)
    assert webs == []


def test_failed_event_is_dropped_with_a_warning(pentagon, pentagon_pm,
                                                monkeypatch):
    def no_charge(*args, **kwargs):
        raise ChargeIdentificationFailed("no charge (test)")

    monkeypatch.setattr(network, "identify_charge", no_charge)
    with pytest.warns(WebEventDropped, match="no charge") as record:
        webs = detect_bps(pentagon.curve, pentagon.lattice, (-0.62, -0.43),
                          period_map=pentagon_pm, scan_step=math.pi / 80)
    assert webs == []
    message = str(record[0].message)
    assert "'c'" in message and "theta bracket" in message


def _lose_every_refined_ray(monkeypatch):
    # the rays of the scan grid are found; every ray that an event's
    # refinement re-finds off the grid is lost, as the finder reports it
    lo, hi = -0.62, -0.43
    grid = {lo + (hi - lo) * k / 5 for k in range(6)}
    real_critical_rays = network._critical_rays

    def critical_rays(curve, rays, delta0):
        for theta, zi, m in rays:
            if theta not in grid:
                raise NumericalError(
                    f"lost critical ray {(zi, m)} at theta = {theta!r}")
        return real_critical_rays(curve, rays, delta0)

    monkeypatch.setattr(network, "_critical_rays", critical_rays)


@pytest.mark.parametrize("fault, reason", [
    (_lose_every_refined_ray, "lost critical ray"),
])
def test_unrefinable_events_are_dropped_with_a_warning(
        fault, reason, pentagon, pentagon_pm, monkeypatch):
    fault(monkeypatch)
    with pytest.warns(WebEventDropped, match=re.escape(reason)):
        detect_bps(pentagon.curve, pentagon.lattice, (-0.62, -0.43),
                   period_map=pentagon_pm, scan_step=math.pi / 80)


def test_third_turn_relabeling_symmetry(pentagon):
    # theta -> theta + 2pi/3 reproduces the same plane set of
    # trajectories (labels cycle); compare central-region point sets
    net0 = grow_network(pentagon.curve, 0.05, classify=False)
    net1 = grow_network(pentagon.curve, 0.05 + 2 * math.pi / 3,
                        classify=False)
    polylines0 = [t.points for t in net0.trajectories]
    for traj in net1.trajectories:
        pts = [p for p in traj.points[:: max(1, len(traj) // 12)]
               if abs(p) < 5.0]
        for p in pts:
            d = min(_point_to_polyline(p, arr, 0, len(arr))
                    for arr in polylines0)
            assert d < 1e-3
