"""Spans around the public functions of trigon, recorded from outside.

A Recorder wraps each traced function wherever its name is bound in a
trigon module (cli and asymptotics import several functions by name), so
calls made through any binding are seen.  Spans stay in memory until the
run ends.  Per-layer metrics are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int
    op: str
    start: float
    end: float = None
    extra: dict = field(default_factory=dict)


# traced name -> (module name, attribute path)
TARGETS = {
    "curve.PeriodMap.compute": ("trigon.curve", "PeriodMap.compute"),
    "network.detect_bps": ("trigon.network", "detect_bps"),
    "network.trace": ("trigon.network", "trace"),
    "network.RayBook.rays_at": ("trigon.network", "RayBook.rays_at"),
    "network.identify_charge": ("trigon.network", "identify_charge"),
    "network.polyline_intersections": ("trigon.network", "polyline_intersections"),
    "network.grow_network": ("trigon.network", "grow_network"),
    "network.classify_infinity": ("trigon.network", "classify_infinity"),
    "tba.solve": ("trigon.tba", "solve"),
    "tba.log_x": ("trigon.tba", "log_x"),
    "tba.integral_term": ("trigon.tba", "integral_term"),
    "asymptotics.build_prediction": ("trigon.asymptotics", "build_prediction"),
    "asymptotics.solver_coefficient": ("trigon.asymptotics", "solver_coefficient"),
    "asymptotics.decay_table": ("trigon.asymptotics", "decay_table"),
    "cli.main": ("trigon.cli", "main"),
}


class Patches:
    """Replaces functions in the trigon modules and puts them back."""

    def __init__(self):
        self._undo = []

    def replace(self, target, make_wrapper):
        """Wrap the function `target` names, at every binding of it."""
        module_name, path = TARGETS[target]
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            self._set(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if name != "trigon" and not name.startswith("trigon."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def restore(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []


class Recorder:
    """Records one span per call of each traced function.

    `op` tags every span with the operation it belongs to; `enabled`
    pauses recording (the benchmark's own checks are not traced).
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = "setup"
        self.enabled = True
        self.patches = Patches()

    def install(self):
        for target in TARGETS:
            enter, leave = _HOOKS.get(target, (None, None))
            self.patches.replace(
                target, lambda fn, t=target, e=enter, l=leave:
                self._wrap(t, fn, e, l))

    def uninstall(self):
        self.patches.restore()

    def _wrap(self, name, fn, on_enter, on_exit):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(id=len(self.spans), name=name,
                        parent=self.stack[-1].id if self.stack else None,
                        op=self.op, start=0.0)
            self.spans.append(span)
            if on_enter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_enter(self, span, bound.arguments)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.extra["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if on_exit:
                on_exit(self, span, result)
            return result
        return wrapper

    def enclosing(self, name):
        for span in reversed(self.stack):
            if span.name == name:
                return span
        return None

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name,
                                     "parent": s.parent, "op": s.op,
                                     "start": s.start, "end": s.end,
                                     **s.extra}) + "\n")


def _scan_grid(theta_range, scan_step):
    """The scan phases of detect_bps for one interval, as it builds them."""
    lo, hi = theta_range
    n = max(2, int(math.ceil((hi - lo) / scan_step)))
    return [lo + (hi - lo) * k / n for k in range(n + 1)]


def _enter_detect_bps(rec, span, arguments):
    span.extra["grid"] = _scan_grid(arguments["theta_range"],
                                    arguments["scan_step"])


def _exit_detect_bps(rec, span, webs):
    span.extra["webs"] = len(webs)


def _enter_trace(rec, span, arguments):
    scan = rec.enclosing("network.detect_bps")
    if scan is not None:
        theta = arguments["seed"].theta
        span.extra["off_grid"] = not any(abs(theta - t) <= 1e-12
                                         for t in scan.extra["grid"])


def _exit_trace(rec, span, traj):
    span.extra["steps"] = len(traj.points) - 1


def _exit_solve(rec, span, solution):
    span.extra["iterations"] = solution.iterations_used


_HOOKS = {
    "network.detect_bps": (_enter_detect_bps, _exit_detect_bps),
    "network.trace": (_enter_trace, _exit_trace),
    "tba.solve": (None, _exit_solve),
}


def self_times(spans):
    """{span id: duration minus the part of it covered by child spans}."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.id, [])):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


class SolveMemory:
    """Largest tracemalloc peak over single tba.solve calls.

    tracemalloc runs only inside each solve, and only in a pass of its
    own, so that it inflates neither the span times nor other layers.
    """

    def __init__(self):
        self.peak_bytes = 0
        self.patches = Patches()

    def install(self):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peak_bytes = max(self.peak_bytes,
                                          tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            return wrapper
        self.patches.replace("tba.solve", make)

    def uninstall(self):
        self.patches.restore()


# per-layer metric -> (unit, better)
LAYER_METRICS = {
    "curve.PeriodMap.compute.calls": ("count", "lower"),
    "curve.PeriodMap.compute.s": ("s", "lower"),
    "network.detect_bps.s": ("s", "lower"),
    "network.detect_bps.self_s": ("s", "lower"),
    "network.detect_bps.webs": ("count", "higher"),
    "network.detect_bps.traces_per_web": ("traces/web", "lower"),
    "network.trace.calls": ("count", "lower"),
    "network.trace.s": ("s", "lower"),
    "network.trace.steps": ("count", "lower"),
    "network.trace.steps_per_s": ("1/s", "higher"),
    "network.trace.calls_off_grid": ("count", "lower"),
    "network.RayBook.rays_at.calls": ("count", "lower"),
    "network.RayBook.rays_at.s": ("s", "lower"),
    "network.identify_charge.calls": ("count", "lower"),
    "network.polyline_intersections.calls": ("count", "lower"),
    "network.polyline_intersections.s": ("s", "lower"),
    "network.grow_network.calls": ("count", "lower"),
    "network.grow_network.s": ("s", "lower"),
    "network.grow_network.self_s": ("s", "lower"),
    "network.classify_infinity.s": ("s", "lower"),
    "tba.solve.calls": ("count", "lower"),
    "tba.solve.s": ("s", "lower"),
    "tba.solve.iterations": ("count", "lower"),
    "tba.solve.peak_alloc_mb": ("MB", "lower"),
    "tba.log_x.calls": ("count", "lower"),
    "tba.log_x.s": ("s", "lower"),
    "tba.integral_term.calls": ("count", "lower"),
    "tba.integral_term.s": ("s", "lower"),
    "asymptotics.build_prediction.s": ("s", "lower"),
    "asymptotics.solver_coefficient.s": ("s", "lower"),
    "asymptotics.decay_table.s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
}


def layer_metrics(spans, solve_peak_bytes):
    """Every LAYER_METRICS value, from the spans of one traced run."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += s.end - s.start
        t["self_s"] += own[s.id]
    by_id = {s.id: s for s in spans}

    def under_scan(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "network.detect_bps":
                return True
        return False

    traces = [s for s in spans if s.name == "network.trace"]
    webs = sum(s.extra.get("webs", 0) for s in spans)
    scan_traces = sum(1 for s in traces if under_scan(s))
    steps = sum(s.extra["steps"] for s in traces if "steps" in s.extra)
    values = {}
    for metric in LAYER_METRICS:
        name, _, kind = metric.rpartition(".")
        if kind in ("calls", "s", "self_s"):
            values[metric] = totals.get(name, {}).get(kind, 0)
    trace_s = values["network.trace.s"]
    values.update({
        "network.detect_bps.webs": webs,
        "network.detect_bps.traces_per_web": scan_traces / webs if webs else 0.0,
        "network.trace.steps": steps,
        "network.trace.steps_per_s": steps / trace_s if trace_s else 0.0,
        "network.trace.calls_off_grid": sum(
            1 for s in traces if s.extra.get("off_grid")),
        "tba.solve.iterations": sum(s.extra.get("iterations", 0)
                                    for s in spans if s.name == "tba.solve"),
        "tba.solve.peak_alloc_mb": solve_peak_bytes / 2 ** 20,
    })
    return {m: {"value": values[m], "unit": LAYER_METRICS[m][0]}
            for m in LAYER_METRICS}
