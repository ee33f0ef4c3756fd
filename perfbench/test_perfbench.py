"""Tests of the benchmark itself: span arithmetic, the correctness checks
against perturbed outputs, and the accounting of the two known faults.

    python3 -m pytest -q perfbench
"""

import cmath
import math
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from trigon import asymptotics, cli, tba  # noqa: E402
from trigon.curve import Charge  # noqa: E402
from trigon.network import FiniteWeb  # noqa: E402


@pytest.fixture(scope="module")
def examples():
    return workloads.setup()


@pytest.fixture(scope="module")
def pentagon_solution(examples):
    ex = examples["pentagon"]
    return tba.solve(tba.SolverConfig(R=0.5), ex.spectrum, ex.period_map,
                     ex.defn.lattice.pairing)


def _span(id, parent, start, end):
    return tracing.Span(id=id, name="f", parent=parent, op="t",
                        start=start, end=end)


def test_self_time_is_duration_minus_child_cover():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
             _span(2, 1, 1.5, 2.0), _span(3, 0, 5.0, 6.5),
             _span(4, None, 11.0, 12.0)]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 1.5)
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(0.5)
    assert own[3] == pytest.approx(1.5)
    assert own[4] == pytest.approx(1.0)


def test_overlapping_children_are_covered_once():
    spans = [_span(0, None, 0.0, 4.0), _span(1, 0, 1.0, 3.0),
             _span(2, 0, 2.0, 3.5)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0 - 2.5)


def test_recorder_sees_calls_through_every_binding(examples,
                                                   pentagon_solution):
    ex = examples["pentagon"]
    pred = asymptotics.build_prediction(Charge((1, 0)), 0.0, ex.spectrum,
                                        ex.period_map, ex.defn.lattice.pairing)
    original = tba.log_x
    rec = tracing.Recorder()
    rec.install()
    try:
        assert cli.log_x is not original and asymptotics.log_x is not original
        asymptotics.decay_table([pentagon_solution], pred)
    finally:
        rec.uninstall()
    assert cli.log_x is original and asymptotics.log_x is original
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("asymptotics.decay_table", None), ("tba.log_x", 0),
                     ("tba.integral_term", 1)]
    metrics = tracing.layer_metrics(rec.spans, 0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["tba.log_x.calls"]["value"] == 1


def _web(pm, charge, dtheta=0.0, period_scale=1.0, topology="single_string"):
    Z = pm.Z(Charge(charge))
    return FiniteWeb(theta_star=cmath.phase(Z) + dtheta, charge=Charge(charge),
                     topology=topology, period=Z * period_scale, residual=0.0,
                     zeros=(0, 1))


def test_web_check_rejects_perturbed_webs(examples):
    pm = examples["pentagon"].period_map
    args = ((-1, 0), "single_string", pm, -math.pi / 6)
    assert checks.check_webs([_web(pm, (-1, 0))], *args) == []
    assert checks.check_webs([_web(pm, (1, 0))], *args)
    assert checks.check_webs([_web(pm, (-1, 0), dtheta=2e-3)], *args)
    assert checks.check_webs([_web(pm, (-1, 0), period_scale=1 + 1e-3)], *args)
    assert checks.check_webs([_web(pm, (-1, 0), topology="x")], *args)
    assert checks.check_webs([_web(pm, (-1, 0))] * 2, *args)
    assert checks.check_webs([], *args)


def test_decay_check_rejects_a_column_that_does_not_fall():
    assert checks.check_decay(0, [0.13, 0.09, 0.07], 3) == []
    assert checks.check_decay(0, [0.13, 0.09, 0.09], 3)
    assert checks.check_decay(0, [0.13, 0.09, 1.09], 3)
    assert checks.check_decay(0, [0.13, 0.09, 0.0], 3)
    assert checks.check_decay(0, [0.13, 0.09], 3)
    assert checks.check_decay(2, [0.13, 0.09, 0.07], 3)


def test_report_check_rejects_a_dropped_or_changed_check():
    import json

    def report(names, ok=True):
        return json.dumps({"ok": ok, "checks": [{"name": n, "ok": ok}
                                                for n in names]}).encode()

    names = checks.REPRODUCE_CHECKS["hexagon"]
    good = report(names)
    assert checks.check_reproduce("hexagon", 0, good, good) == []
    assert checks.check_reproduce("hexagon", 0, report(names[:-1]))
    assert checks.check_reproduce("hexagon", 0, report(names, ok=False))
    assert checks.check_reproduce("hexagon", 1, good)
    assert checks.check_reproduce("hexagon", 0, good, good + b" ")


def test_samples_check_rejects_a_samples_log_x_mismatch(examples,
                                                       pentagon_solution):
    sol = pentagon_solution
    points = workloads._all_points(sol)
    assert checks.check_samples(sol, points, tba.log_x) == []
    grid = sol.ray_grids[2]
    saved = grid.samples.copy()
    try:
        grid.samples[128] += 1e-6
        assert checks.check_samples(sol, points, tba.log_x)
    finally:
        grid.samples = saved


def test_fixed_point_and_value_checks_reject_perturbations(pentagon_solution):
    sol = pentagon_solution
    exact = [g.samples.copy() for g in sol.ray_grids]
    assert checks.check_fixed_point(sol, exact) == []
    exact[0][100] += 1e-8
    assert checks.check_fixed_point(sol, exact)
    assert checks.check_value("X", 0.1286, 0.1286, 1e-3) == []
    assert checks.check_value("X", 0.1300, 0.1286, 1e-3)
    assert checks.check_reality({(1, 0): 1e-12j}) == []
    assert checks.check_reality({(1, 0): 1e-8j})


def _only(ops, prefix):
    (op,) = [op for op in ops if op.name.startswith(prefix)]
    return op


def test_known_faults_fail_and_are_counted(examples, tmp_path):
    omega = _only(workloads.tba_small_r(examples, 0),
                  "solve pentagon R=0.5, every Omega = 2")
    asym = _only(workloads.reproduce_fast(str(tmp_path)),
                 "asym check")
    assert "Omega" in omega.fault and "integral_term" in omega.fault
    assert "decay_table" in asym.fault
    results = [(op, op.check(op.run())) for op in (omega, asym)]
    assert all(problems for _, problems in results)
    attempted, failed, correct, reasons = worker.tally(results)
    assert (attempted, failed, correct) == (2, 2, True)
    assert "drops Omega" in reasons[0] and "decay_table" in reasons[1]


def test_an_unnamed_failure_makes_the_run_incorrect():
    op = workloads.Op("any", None, None)
    assert worker.tally([(op, ["wrong"])])[:3] == (1, 1, False)
    assert worker.tally([(op, [])])[:3] == (1, 0, True)


def test_a_raised_program_error_fails_its_operation():
    from trigon.errors import NoConvergence

    def run():
        raise NoConvergence("no convergence")

    ok = workloads.Op("ok", lambda: 1, lambda out: [])
    bad = workloads.Op("bad", run, lambda out: [])
    _, results = worker.run_round([ok, bad], None, 0)
    assert results[0][1] == []
    assert results[1][1] == ["raised NoConvergence: no convergence"]
    assert worker.tally(results)[:3] == (2, 1, False)


def test_reference_speed_removes_the_probes_and_rescales():
    probe = worker.SpeedProbe()
    probe.samples = [2 * worker.PROBE_REF_S] * 10
    own = 1.0
    wall = own + sum(probe.samples)
    assert probe.at_reference_speed(wall) == pytest.approx(own / 2)


def _busy(n):
    acc = 0
    for i in range(n):
        acc += i % 3
    return acc


def test_probed_rounds_keep_twice_the_work_twice_as_long():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    ref = {}
    for n in (3_000_000, 6_000_000):
        op = workloads.Op(str(n), lambda n=n: _busy(n), lambda out: [])
        probe = worker.SpeedProbe()
        wall, _ = worker.run_round([op] * 4, None, 0, probe)
        assert len(probe.samples) >= 2
        ref[n] = probe.at_reference_speed(wall)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 1.5 < ref[6_000_000] / ref[3_000_000] < 2.5


@pytest.mark.parametrize("web", workloads.WEBS, ids=lambda w: w[0])
def test_windows_hold_the_web_off_the_scan_grid(web):
    _, theta, _, _, steps, choices = web
    for seed in range(200):
        window = workloads.web_window(theta, steps, choices,
                                      random.Random(seed))
        grid = tracing._scan_grid(window, math.pi / 300)
        assert len(grid) == steps + 1
        assert grid[2] < theta < grid[-3]
        assert min(abs(theta - t) for t in grid) >= 0.29 * workloads.SCAN_STEP


def test_layer_metrics_match_the_benchmark_file():
    import json
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == tracing.LAYER_METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_ref_s",
                                                       "peak_rss_mb"]
