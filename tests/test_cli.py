import ast
import cmath
import json
import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from trigon import cli
from trigon import curve as curve_module
from trigon import network as network_module
from trigon.cli import main
from trigon.curve import (Charge, ChargeLattice, CurveDefinition, LiftedPath,
                          Polynomial, SpectralCurve, curve_to_json,
                          load_example)
from trigon.errors import (NumericalError, TrigonError, ValidationError,
                           WebEventDropped)


def run(argv):
    return main(argv)


def test_periods_artifact(tmp_path):
    out = tmp_path / "p.json"
    assert run(["periods", "--example", "pentagon", "--charge", "1,1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["charges"] == ["gamma1", "gamma2"]
    z1 = complex(*doc["periods"][0])
    assert abs(z1 - (-2.00324 + 1.15657j)) < 5e-5
    z11 = complex(*doc["requested"]["1,1"])
    assert abs(z11 - (z1 + complex(*doc["periods"][1]))) < 1e-12


def test_periods_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["periods", "--example", "hexagon", "--out", str(a)])
    run(["periods", "--example", "hexagon", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_curve_file_roundtrip(tmp_path, capsys):
    # artifacts written by the package are accepted back as inputs
    doc = curve_to_json(load_example("pentagon"))
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert run(["periods", "--curve-file", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(complex(*out["periods"][1]) - (-2.31315j)) < 5e-5


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_curve_dump_gives_a_curve_file_of_the_example(name, tmp_path):
    curve, by_example, by_file = (tmp_path / f for f in
                                  ("curve.json", "a.json", "b.json"))
    assert run(["curve", "dump", "--example", name, "--out", str(curve)]) == 0
    assert run(["periods", "--example", name, "--out", str(by_example)]) == 0
    assert run(["periods", "--curve-file", str(curve),
                "--out", str(by_file)]) == 0
    assert by_file.read_bytes() == by_example.read_bytes()


def test_network_trace_artifacts(tmp_path):
    out = tmp_path / "net.json"
    poly = tmp_path / "net.txt"
    assert run(["network", "trace", "--example", "pentagon", "--theta", "0",
                "--out", str(out), "--polylines", str(poly)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_trajectories"] == 18
    assert doc["n_born"] == 2
    assert len(doc["infinity_marks"]) == 10
    blocks = [b for b in poly.read_text().split("\n\n") if b.strip()]
    assert len(blocks) == 18
    x, y = blocks[0].splitlines()[0].split()
    float(x), float(y)


def test_network_trace_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(["network", "trace", "--example", "pentagon", "--theta", "0.2",
             "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_network_sweep_frames(tmp_path):
    out = tmp_path / "frames"
    assert run(["network", "sweep", "--example", "pentagon",
                "--frames", "3", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["frames"]) == 3
    assert manifest["frames"][1]["theta"] == pytest.approx(math.pi / 300)
    for fr in manifest["frames"]:
        assert (out / fr["file"]).exists()


def test_network_bps_narrow_window(tmp_path):
    out = tmp_path / "webs.json"
    assert run(["network", "bps", "--example", "pentagon",
                "--theta-min", "0.45", "--theta-max", "0.6",
                "--scan-step", "0.04", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["webs"]) == 1
    w = doc["webs"][0]
    assert w["charge"] == [-1, -1]
    assert w["topology"] == "single_string"
    assert abs(w["theta_star"] - math.pi / 6) < 1e-3
    assert w["residual"] < 1e-4 * abs(complex(*w["period"]))


def test_network_bps_deterministic_at_arg_z(tmp_path, pentagon_pm):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["network", "bps", "--example", "pentagon",
                    "--theta-min", "0.45", "--theta-max", "0.6",
                    "--scan-step", "0.04", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    w, = json.loads(a.read_text())["webs"]
    arg = cmath.phase(pentagon_pm.Z(Charge(w["charge"])))
    assert abs(w["theta_star"] - arg) < 1e-12


@pytest.mark.parametrize("args", [
    ["--scan-step", "0"], ["--scan-step", "-0.1"],
    ["--theta-min", "1", "--theta-max", "0.5"]],
    ids=["zero-step", "negative-step", "reversed-range"])
def test_network_bps_rejects_a_bad_scan(args, tmp_path, capsys):
    out = tmp_path / "webs.json"
    assert run(["network", "bps", "--example", "pentagon", *args,
                "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert not out.exists()


def test_network_bps_one_zero_curve_has_no_webs(tmp_path):
    # P0 = z: one zero, and a basis contour three times round it, which
    # closes on its starting sheet
    turn = [[math.cos(math.pi * k / 16), math.sin(math.pi * k / 16)]
            for k in range(97)]
    x0 = (-1 + 0j) ** (1 / 3)
    curve = {"schema_version": 1, "name": "line",
             "polynomial": {"coefficients": [[0.0, 0.0], [1.0, 0.0]]},
             "lattice": {"pairing": [[0]], "contours": [
                 {"waypoints": turn, "starting_sheet": [x0.real, x0.imag]}]}}
    path, out = tmp_path / "line.json", tmp_path / "webs.json"
    path.write_text(json.dumps(curve))
    assert run(["network", "bps", "--curve-file", str(path),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["webs"] == []


def _rotated(defn, phi):
    """defn carried by z -> exp(i phi) z: P1(w) = exp(3 i phi) P0(z) at
    w = z / exp(i phi), so x1 = exp(i phi) x0 and x1 dw = x0 dz.  Its
    periods and its webs, which solve (x_i - x_j) dz/dt = exp(i theta),
    are those of defn."""
    turn = cmath.exp(1j * phi)
    poly = Polynomial([c * turn ** (3 + k) for k, c
                       in enumerate(defn.curve.polynomial.coefficients)])
    contours = [LiftedPath([w / turn for w in path.waypoints],
                           path.starting_sheet_value * turn)
                for path in defn.lattice.basis_contours]
    return CurveDefinition(
        name=f"{defn.name}-rotated",
        curve=SpectralCurve(poly),
        lattice=ChargeLattice(defn.lattice.pairing_matrix, contours,
                              names=defn.lattice.names))


@pytest.mark.parametrize("name, theta_web, width", [
    # the benchmark's webscan windows: 7 (6) steps of 0.01
    ("pentagon", -math.pi / 6, 0.07), ("hexagon", math.pi / 6, 0.06)])
def test_rotated_curve_file_gives_the_shipped_periods_and_webs(
        name, theta_web, width, tmp_path):
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(curve_to_json(_rotated(load_example(name), 0.3))))
    docs = {}
    for source in (["--example", name], ["--curve-file", str(path)]):
        periods, webs = tmp_path / "periods.json", tmp_path / "webs.json"
        assert run(["periods", *source, "--out", str(periods)]) == 0
        lo = theta_web - 0.023
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", WebEventDropped)
            assert run(["network", "bps", *source, "--theta-min", str(lo),
                        "--theta-max", str(lo + width),
                        "--out", str(webs)]) == 0
        assert caught == []
        docs[source[0]] = (json.loads(periods.read_text())["periods"],
                           json.loads(webs.read_text())["webs"])
    (shipped, shipped_webs), (rotated, rotated_webs) = docs.values()
    for a, b in zip(shipped, rotated, strict=True):
        assert abs(complex(*a) - complex(*b)) < 1e-12 * abs(complex(*a))
    assert len(shipped_webs) == 1
    for a, b in zip(shipped_webs, rotated_webs, strict=True):
        assert (a["charge"], a["topology"]) == (b["charge"], b["topology"])
        assert abs(a["theta_star"] - b["theta_star"]) < 1e-12


def test_bps_dump_validate_roundtrip(tmp_path):
    spec_file = tmp_path / "spec.json"
    assert run(["bps", "dump", "--example", "pentagon",
                "--out", str(spec_file)]) == 0
    assert run(["bps", "validate", "--spectrum", str(spec_file)]) == 0
    rep_file = tmp_path / "rep.json"
    assert run(["bps", "validate", "--example", "hexagon",
                "--out", str(rep_file)]) == 0
    rep = json.loads(rep_file.read_text())
    assert rep["ok"] is True
    assert rep["violations"] == []


def test_bps_validate_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"schema_version": 1, "entries": [{"charge": [1, 0], "omega": 1}]}))
    rc = run(["bps", "validate", "--spectrum", str(bad)])
    assert rc == 1


ASYMMETRIC_VIOLATIONS = ["Omega((1,0)) = 2 but Omega((-1,0)) = 1",
                         "Omega((-1,0)) = 1 but Omega((1,0)) = 2",
                         "Omega((1,1)) = 3 but Omega((-1,-1)) = 0"]


def test_asymmetric_spectrum_file_gives_its_violations(tmp_path, capsys):
    # bps validate writes the violations as a document and exits 1; every
    # other command refuses the file with one ValidationError line
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "entries": [
        {"charge": [1, 0], "omega": 2}, {"charge": [-1, 0], "omega": 1},
        {"charge": [0, 1], "omega": 1}, {"charge": [0, -1], "omega": 1},
        {"charge": [1, 1], "omega": 3}]}))
    report = tmp_path / "report.json"
    assert run(["bps", "validate", "--spectrum", str(bad),
                "--out", str(report)]) == 1
    assert report.read_text() == (
        '{\n "ok": false,\n "schema_version": 1,\n "violations": [\n'
        + ",\n".join(f'  "{v}"' for v in ASYMMETRIC_VIOLATIONS)
        + "\n ]\n}\n")
    message = ("spectrum fails symmetry validation: "
               + "; ".join(ASYMMETRIC_VIOLATIONS))
    for argv in (["tba", "solve", "--R", "0.5"],
                 ["asym", "predict", "--charge", "1,0"]):
        capsys.readouterr()
        assert run(argv + ["--example", "pentagon",
                           "--spectrum", str(bad)]) == 1
        assert capsys.readouterr().err == json.dumps(
            {"error": "ValidationError", "message": message}) + "\n"


def test_tba_solve_artifact(tmp_path):
    out = tmp_path / "tba.json"
    assert run(["tba", "solve", "--example", "pentagon", "--R", "0.5",
                "--theta", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["iterations_used"] > 1
    assert doc["final_delta"] < 1e-10
    X1 = complex(*doc["X"]["gamma1"])
    assert abs(X1.real - 0.1286) < 1e-3
    assert abs(X1.imag) < 1e-9
    assert len(doc["ray_grids"]) == 6
    g = doc["ray_grids"][0]
    assert len(g["s"]) == doc["N"] == 257
    assert len(g["samples"]) == 257


def test_tba_solve_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(["tba", "solve", "--example", "pentagon", "--R", "1.0",
             "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_tba_no_convergence_exit_code(tmp_path, capsys):
    rc = run(["tba", "solve", "--example", "pentagon", "--R", "0.1",
              "--max-iter", "2", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergence"


def test_period_quadrature_no_convergence_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(curve_module, "PERIOD_REL_TOL", -1.0)
    assert run(["periods", "--example", "pentagon"]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "NoConvergence"


def test_tba_overflow_exit_code(tmp_path, capsys):
    # converges in one sweep; X_gamma1 = exp(~903) does not fit a double
    rc = run(["tba", "solve", "--example", "hexagon", "--R", "200",
              "--theta", "0.2", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "NumericOverflow"


def test_tba_tiny_R_overflows_before_any_sweep(tmp_path, capsys):
    # the s-grid half-width grows as log(1/R): at R = 1e-300 the kernel
    # offsets would overflow exp, and inf / inf would feed nan sweeps
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(["tba", "solve", "--example", "pentagon", "--R", "1e-300",
                  "--out", str(tmp_path / "x.json")])
    assert rc == 2
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "NumericOverflow"
    assert not (tmp_path / "x.json").exists()
    assert run(["tba", "solve", "--example", "pentagon", "--R", "1e-5",
                "--out", str(tmp_path / "y.json")]) == 0


def test_validation_error_exit_code(capsys):
    rc = run(["tba", "solve", "--example", "pentagon", "--R", "-1"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


@pytest.mark.parametrize("error, code", [(ValidationError, 1),
                                         (NumericalError, 2),
                                         (TrigonError, 1)])
def test_error_handler(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_periods", fail)
    assert run(["periods", "--example", "pentagon"]) == code
    assert capsys.readouterr().err == (
        '{"error": "%s", "message": "boom"}\n' % error.__name__)


def test_reusing_the_parser_leaks_no_state(capsys):
    # main shares one parser across calls: the append default of --charge,
    # a failed parse and a repeated call must leave nothing behind
    charged = ["periods", "--example", "pentagon", "--charge", "1,1"]
    assert run(charged) == 0
    first = capsys.readouterr().out
    assert "requested" in json.loads(first)
    assert run(["periods", "--example", "pentagon"]) == 0
    assert "requested" not in json.loads(capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        run(["periods", "--example", "pentagon", "--charge"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(charged) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()


RANK_3_SPECTRUM = json.dumps(
    {"schema_version": 1,
     "entries": [{"charge": [1, 0, 0], "omega": 1},
                 {"charge": [-1, 0, 0], "omega": 1}]})


def _spectrum_of(charge, omega):
    """A symmetric two-entry spectrum document, charge and its negative
    both with this omega, as JSON text."""
    return json.dumps(
        {"schema_version": 1,
         "entries": [{"charge": charge, "omega": omega},
                     {"charge": [-c for c in charge], "omega": omega}]})


def _pentagon_doc_with(*path_and_value):
    """The pentagon's curve document with the entry at a key path set to
    a value, as JSON text."""
    doc = curve_to_json(load_example("pentagon"))
    *keys, last, value = path_and_value
    entry = doc
    for key in keys:
        entry = entry[key]
    entry[last] = value
    return json.dumps(doc)


def _zero_polynomial_doc():
    """The pentagon's curve document with P0 = 0 and every starting sheet
    at x = 0, which lies on that curve, as JSON text."""
    doc = curve_to_json(load_example("pentagon"))
    doc["polynomial"]["coefficients"] = [[0, 0]] * 3
    for contour in doc["lattice"]["contours"]:
        contour["starting_sheet"] = [0, 0]
    return json.dumps(doc)


NAN, INF = float("nan"), float("inf")
PENTAGON_VERTICES = [[math.cos(2 * math.pi * k / 5),
                      math.sin(2 * math.pi * k / 5), 1.0] for k in range(5)]


def _pentagon_vertices_with(value):
    """The regular pentagon's vertices, one coordinate set to a value, as
    JSON text."""
    vertices = [list(v) for v in PENTAGON_VERTICES]
    vertices[3][0] = value
    return json.dumps(vertices)


@pytest.mark.parametrize("argv, content", [
    (["periods", "--curve-file", "{missing}"], None),
    (["periods", "--curve-file", "{file}"], "{not json"),
    (["periods", "--curve-file", "{file}"], '{"schema_version": 1}'),
    (["bps", "validate", "--spectrum", "{file}"], '{"schema_version": 1}'),
    (["bps", "validate", "--spectrum", "{file}"], "[1, 2"),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5",
      "--spectrum", "{missing}"], None),
    (["asym", "predict", "--example", "pentagon", "--charge", "1,0",
      "--spectrum", "{file}"],
     '{"schema_version": 1, "entries": [{"charge": [1, 0]}]}'),
    (["asym", "check", "--example", "pentagon", "--charge", "1,0",
      "--R-grid", "1,2", "--spectrum", "{file}"], ""),
    (["polygon", "eval", "--expr", "pentagon:gamma1", "--vertices",
      "{missing}"], None),
    (["polygon", "eval", "--expr", "pentagon:gamma1", "--vertices",
      "{file}"], "[[1, 0, 1], [0, 1]]"),
    (["periods", "--curve-file", "{file}"], "[1, 2]"),
    (["bps", "validate", "--spectrum", "{file}"],
     '{"schema_version": 1, "entries": [[1, 0]]}'),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5",
      "--spectrum", "{file}"],
     '{"schema_version": 1, "entries": [[1, 0]]}'),
    # an output path below a regular file cannot be written, even by root
    (["periods", "--example", "pentagon", "--out", "{below}"], ""),
    (["asym", "check", "--example", "pentagon", "--charge", "1,0",
      "--R-grid", "1", "--out", "{below}"], ""),
    (["network", "trace", "--example", "pentagon", "--polylines", "{below}"],
     ""),
    (["network", "sweep", "--example", "pentagon", "--frames", "1",
      "--out-dir", "{below}"], ""),
    (["asym", "check", "--example", "pentagon", "--charge", "1,0",
      "--R-grid", "1,x"], None),
    (["asym", "check", "--example", "pentagon", "--charge", "1,0",
      "--R-grid", "1,nan"], None),
    (["asym", "predict", "--example", "pentagon", "--charge", "1,0",
      "--spectrum", "{file}"], RANK_3_SPECTRUM),
    (["asym", "check", "--example", "pentagon", "--charge", "1,0",
      "--R-grid", "1", "--spectrum", "{file}"], RANK_3_SPECTRUM),
    # 1e8 phase steps, refused before any phase is built
    (["network", "bps", "--example", "pentagon", "--theta-max", "0.1",
      "--scan-step", "1e-9"], None),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5", "--max-iter",
      "0"], None),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5", "--theta",
      "nan"], None),
    (["asym", "predict", "--example", "pentagon", "--charge", "1,0",
      "--theta", "nan"], None),
    (["asym", "check", "--example", "pentagon", "--charge", "1,0",
      "--R-grid", "1", "--theta", "nan"], None),
    (["network", "trace", "--example", "pentagon", "--theta", "nan"], None),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5", "--tol", "inf"],
     None),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5", "--relax", "0"],
     None),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5", "--relax",
      "nan"], None),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5", "--relax",
      "-1"], None),
    (["polygon", "eval", "--expr", "pentagon:gamma1", "--vertices",
      "{file}"], _pentagon_vertices_with(NAN)),
    (["polygon", "eval", "--expr", "pentagon:gamma1", "--vertices",
      "{file}"], _pentagon_vertices_with(INF)),
    (["periods", "--curve-file", "{file}"],
     _pentagon_doc_with("lattice", "contours", 0, "starting_sheet", 0, NAN)),
    (["bps", "validate", "--spectrum", "{file}"], _spectrum_of([1, 0], 1.5)),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5",
      "--spectrum", "{file}"], _spectrum_of([1, 0], 1.5)),
    (["bps", "validate", "--spectrum", "{file}"], _spectrum_of([1.5, 0], 1)),
    (["tba", "solve", "--example", "pentagon", "--R", "0.5",
      "--spectrum", "{file}"], _spectrum_of([1.5, 0], 1)),
    (["periods", "--curve-file", "{file}"],
     _pentagon_doc_with("lattice", "pairing", [[0, 0.5], [-0.5, 0]])),
    (["network", "sweep", "--example", "pentagon", "--frames", "-2",
      "--out-dir", "{missing}"], None),
    (["bps", "validate", "--spectrum", "{file}"],
     '{"entries": [{"charge": [1, 0], "omega": 1},'
     ' {"charge": [-1, 0], "omega": 1}]}'),
    (["bps", "validate", "--spectrum", "{file}"],
     '{"schema_version": 1, "entries": [{"charge": [1, 0], "omega": 1},'
     ' {"charge": [-1, 0], "omega": 1}, {"charge": [0, 0, 1], "omega": 1},'
     ' {"charge": [0, 0, -1], "omega": 1}]}'),
    (["periods", "--curve-file", "{file}"],
     _pentagon_doc_with("lattice", "charges", ["g1"])),
    (["tba", "solve", "--curve-file", "{file}", "--R", "0.5"],
     _pentagon_doc_with("lattice", "charges", ["a", "b", "c"])),
    (["tba", "solve", "--curve-file", "{file}", "--R", "0.5"],
     _pentagon_doc_with("lattice", "charges", ["g1", "g1"])),
    (["polygon", "eval", "--expr", "pentagon:gamma1", "--vertices",
      "{file}"], json.dumps({"vertices": PENTAGON_VERTICES})),
    (["periods", "--curve-file", "{file}"], _zero_polynomial_doc()),
], ids=["curve-missing", "curve-malformed", "curve-missing-key",
        "validate-missing-key", "validate-malformed", "tba-spectrum-missing",
        "predict-missing-key", "check-empty", "vertices-missing",
        "vertices-ragged", "curve-not-an-object",
        "validate-entry-not-an-object", "tba-entry-not-an-object",
        "periods-out-unwritable", "check-out-unwritable",
        "polylines-unwritable", "sweep-out-dir-unwritable",
        "check-grid-not-a-number", "check-grid-nan", "predict-wrong-rank",
        "check-wrong-rank", "bps-scan-grid-too-fine", "tba-max-iter-zero",
        "tba-theta-nan", "predict-theta-nan",
        "check-theta-nan", "trace-theta-nan", "tba-tol-inf", "tba-relax-zero",
        "tba-relax-nan", "tba-relax-negative", "vertices-nan",
        "vertices-infinity",
        "curve-starting-sheet-nan", "validate-omega-not-an-integer",
        "tba-omega-not-an-integer", "validate-charge-not-an-integer",
        "tba-charge-not-an-integer", "curve-pairing-not-an-integer",
        "sweep-frames-negative", "validate-no-schema-version",
        "validate-mixed-rank", "curve-too-few-charges",
        "curve-too-many-charges", "curve-repeated-charge",
        "vertices-no-schema-version", "curve-zero-polynomial"])
def test_bad_input_gives_one_json_error_line(argv, content, tmp_path,
                                             capsys):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    argv = [a.format(missing=tmp_path / "none.json", file=path,
                     below=path / "out")
            for a in argv]
    assert run(argv) == 1
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ValidationError"


def test_asym_predict(tmp_path):
    out = tmp_path / "pred.json"
    assert run(["asym", "predict", "--example", "hexagon",
                "--charge", "0,0,1,0", "--theta", "0.2",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["exact"] is True
    assert abs(doc["a"] - (-7.4748)) < 5e-4
    out2 = tmp_path / "pred2.json"
    assert run(["asym", "predict", "--example", "pentagon",
                "--charge", "1,0", "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert abs(doc2["rho"] - 2.31315) < 5e-5
    assert len(doc2["corrections"]) == 4


def test_asym_check_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["asym", "check", "--example", "pentagon", "--charge", "1,0",
                "--R-grid", "1,2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("R,logX,prediction,delta,scaled_delta")
    assert len(lines) == 3
    r1 = [float(v) for v in lines[1].split(",")]
    r2 = [float(v) for v in lines[2].split(",")]
    assert r1[4] > r2[4]


def test_asym_check_decays_to_large_R(tmp_path):
    # delta keeps its precision past the rounding of log X ~ -32 at R = 8
    out = tmp_path / "table.csv"
    grid = [str(R) for R in range(1, 9)]
    assert run(["asym", "check", "--example", "pentagon", "--charge", "1,0",
                "--R-grid", ",".join(grid), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    scaled = [float(line.split(",")[4]) for line in rows]
    assert len(scaled) == 8
    assert all(v > 0 for v in scaled)
    assert all(a > b for a, b in zip(scaled, scaled[1:]))


def test_asym_check_past_the_double_range(tmp_path, capsys):
    # at R = 160, exp(2 rho R) = exp(740) does not fit a double
    rc = run(["asym", "check", "--example", "pentagon", "--charge", "1,0",
              "--R-grid", "100,160", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "NumericOverflow"
    assert "R = 160" in err["message"]


def test_polygon_eval(tmp_path):
    verts = tmp_path / "verts.json"
    verts.write_text(json.dumps(PENTAGON_VERTICES))
    out = tmp_path / "val.json"
    assert run(["polygon", "eval", "--expr", "pentagon:gamma1",
                "--vertices", str(verts), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(0.6180339887, rel=1e-9)


def test_polygon_eval_unknown_expr(tmp_path, capsys):
    verts = tmp_path / "verts.json"
    verts.write_text(json.dumps([[1, 0, 1], [0, 1, 1], [-1, -1, 1]]))
    rc = run(["polygon", "eval", "--expr", "nonsense",
              "--vertices", str(verts)])
    assert rc == 1
    assert "error" in json.loads(capsys.readouterr().err)


def test_reproduce_pentagon_fast(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run(["reproduce", "pentagon", "--fast", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "ALL CHECKS PASS" in text
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])


def _environment_reads(source):
    """Lines of a module's source that read os.environ or os.getenv, by
    attribute or by a from-import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in ("environ", "getenv") for a in node.names)):
            lines.append(node.lineno)
    return lines


def _third_party_imports(source):
    """(line, module) for each absolute import in a module's source whose
    top-level package is neither numpy nor in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] != "numpy"
                  and name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_runtime_imports_are_numpy_or_stdlib():
    assert _third_party_imports("import scipy.special\n") == [
        (1, "scipy.special")]
    assert _third_party_imports("import math\nfrom scipy import special\n") \
        == [(2, "scipy")]
    assert _third_party_imports(
        "import numpy as np\nfrom numpy.linalg import det\n"
        "from __future__ import annotations\nfrom .curve import Charge\n") == []
    root = pathlib.Path(cli.__file__).parent
    found = {str(path.relative_to(root)): _third_party_imports(path.read_text())
             for path in sorted(root.rglob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


@pytest.fixture(scope="module")
def modules_of_import():
    """The modules loaded by `import trigon.cli` in a fresh interpreter."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import trigon.cli; "
            "print('\\n'.join(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return out.split()


def test_import_loads_no_scipy(modules_of_import):
    assert [m for m in modules_of_import if m.split(".")[0] == "scipy"] == []


def test_import_loads_no_numpy_polynomial(modules_of_import):
    # the two Gauss-Legendre rules are literal tables; numpy.polynomial
    # would add about 1.6 MB to the resident size of every process
    assert "trigon.cli" in modules_of_import
    assert [m for m in modules_of_import
            if m.startswith("numpy.polynomial")] == []


def test_examples_and_reproduce_need_no_lapack(tmp_path):
    # np.roots (companion-matrix eigenvalues), np.polyfit (lstsq) and
    # numpy.linalg all go through LAPACK, whose first call adds about a
    # megabyte to a process's resident size; with every one of them
    # raising, both examples load and reproduce hexagon --fast passes
    src = str(pathlib.Path(cli.__file__).parents[1])
    out = str(tmp_path / "hexagon.json")
    code = f"""
import sys
sys.path.insert(0, {src!r})
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("LAPACK reached")

np.roots = np.polyfit = refuse
for name in dir(np.linalg):
    if callable(getattr(np.linalg, name)) and not name.startswith("_") \\
            and not isinstance(getattr(np.linalg, name), type):
        setattr(np.linalg, name, refuse)
from trigon.cli import main
from trigon.curve import PeriodMap, load_example
for example in ("pentagon", "hexagon"):
    defn = load_example(example)
    PeriodMap.compute(defn.curve, defn.lattice)
sys.exit(main(["reproduce", "hexagon", "--fast", "--out", {out!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(pathlib.Path(out).read_text())["ok"] is True


@pytest.mark.parametrize("nodes, weights, n", [
    pytest.param(curve_module._GL_NODES, curve_module._GL_WEIGHTS, 12,
                 id="curve-panels"),
    pytest.param(network_module._NODES, network_module._WEIGHTS,
                 network_module.CHORD_NODES, id="network-chords")])
def test_quadrature_tables_are_numpys_leggauss(nodes, weights, n):
    from numpy.polynomial.legendre import leggauss
    want_nodes, want_weights = leggauss(n)
    assert np.array_equal(nodes, want_nodes)
    assert np.array_equal(weights, want_weights)


def test_no_module_reads_the_environment():
    assert _environment_reads("import os\nos.environ.get('A')\n") == [2]
    assert _environment_reads("import os\nos.getenv('A')\n") == [2]
    assert _environment_reads("from os import environ\n") == [1]
    assert _environment_reads("import os\nos.path.join('a')\n") == []
    root = pathlib.Path(cli.__file__).parent
    found = {str(path.relative_to(root)): _environment_reads(path.read_text())
             for path in sorted(root.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# names the library defines but does not use itself, each with the caller
# that keeps it
UNUSED_IN_LIBRARY = {
    "tba.py:iterate_once": "perfbench's tba-small-R workload calls it",
    "network.py:polyline_intersections": "perfbench wraps it as a layer",
    "tba.py:semiflat": "the tests' oracle for the driving term",
}


def _unreferenced_definitions(sources):
    """"file:name" for each top-level function or class, and each method
    not named __*__, that no Name or Attribute in the sources
    ({file: text}) refers to outside the definition itself."""
    definitions, references = [], []
    for file, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((file, node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (file, f"{node.name}.{sub.name}", sub)
                    for sub in node.body if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__")
                             and sub.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.append((file, name, node.lineno))
    return {f"{file}:{name}" for file, name, node in definitions
            if not any(ref == name.split(".")[-1]
                       and (ref_file != file
                            or not node.lineno <= line <= node.end_lineno)
                       for ref_file, ref, line in references)}


def test_every_library_name_is_used_by_the_library():
    assert _unreferenced_definitions({
        "a.py": "def f():\n    return f()\n\n"
                "class C:\n    def m(self):\n        pass\n"
                "    def __len__(self):\n        return 0\n",
        "b.py": "def g():\n    return C().n\n"}) == {"a.py:f", "a.py:C.m",
                                                    "b.py:g"}
    # re-exports in __init__ are not uses
    root = pathlib.Path(cli.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(root.glob("*.py"))
               if path.name != "__init__.py"}
    assert _unreferenced_definitions(sources) == set(UNUSED_IN_LIBRARY)
