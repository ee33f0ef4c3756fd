#!/usr/bin/env python3
"""Regenerate the shipped curve definitions (pentagon.json, hexagon.json).

The basis contours are hairpins between pairs of branch points (straight
run, a full polygonal loop around the far point, straight run back, a
reverse polygonal loop around the near point) plus, for the hexagon,
large polygonal circles that pick up the residue of a single sheet at
infinity.  Loop radii and vertex counts only need to keep the polylines
away from the branch points; the periods are homotopy invariants, so the
exact polygon shapes do not matter.

Run from the repo root:  python scripts/generate_example_data.py
"""

import cmath
import json
import pathlib

import numpy as np

from trigon import reference
from trigon.curve import (
    ChargeLattice,
    CurveDefinition,
    LiftedPath,
    OMEGA,
    PeriodMap,
    Polynomial,
    SpectralCurve,
    curve_to_json,
    cube_roots,
)

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "trigon" / "data"


def hairpin(z1, z2, r, m=16):
    """Closed hairpin contour threading z1 and z2, avoiding both by radius r.

    Traversal: start near z1, run to z2, full counterclockwise loop around
    z2, run back, full clockwise loop around z1.  The ccw/cw combination
    makes the lift close for any starting sheet.
    """
    u = (z2 - z1) / abs(z2 - z1)
    A = z1 + r * u
    B = z2 - r * u
    ang_B = cmath.phase(B - z2)
    ang_A = cmath.phase(A - z1)
    pts = [A, B]
    for k in range(1, m + 1):
        pts.append(z2 + r * cmath.exp(1j * (ang_B + 2 * cmath.pi * k / m)))
    pts.append(A)
    for k in range(1, m + 1):
        pts.append(z1 + r * cmath.exp(1j * (ang_A - 2 * cmath.pi * k / m)))
    return pts


def circle(center, radius, m=64):
    return [center + radius * cmath.exp(2j * cmath.pi * k / m) for k in range(m + 1)]


def real_sheet(curve, z):
    """The root of x^3 = -P0(z) closest to the real axis with Re < 0 side
    chosen for the pentagon interval; just picks the (unique) real root."""
    rts = cube_roots(-curve.polynomial(z))
    return min(rts, key=lambda r: abs(r.imag))


def build_pentagon():
    poly = Polynomial([0.5, 0.0, -0.5])          # (1 - z^2) / 2
    curve = SpectralCurve(poly)
    wps = hairpin(-1.0 + 0j, 1.0 + 0j, 0.35)
    x_real = real_sheet(curve, wps[0])
    g1 = LiftedPath(wps, x_real)
    g2 = LiftedPath(list(wps), x_real * OMEGA)   # deck image of g1
    lattice = ChargeLattice([[0, 1], [-1, 0]], [g1, g2])
    return CurveDefinition(
        name="pentagon",
        curve=curve,
        lattice=lattice,
        meta={"description": "degree-2 example, (1 - z^2)/2; rank-2 lattice"},
    )


def build_hexagon():
    poly = Polynomial([1.0, 0.0, 1.5, -0.5])     # (2 + 3 z^2 - z^3) / 2
    curve = SpectralCurve(poly)
    zs = sorted(curve.ramification_points, key=lambda z: z.real)
    zm = min(zs[:2], key=lambda z: z.imag)       # lower left
    zp = max(zs[:2], key=lambda z: z.imag)       # upper left
    zr = zs[2]                                    # right (real)

    w1 = hairpin(zm, zp, 0.3)
    g1 = LiftedPath(w1, cube_roots(-poly(w1[0]))[0])
    w2 = hairpin(zm, zr, 0.3)
    g2 = LiftedPath(w2, cube_roots(-poly(w2[0]))[0])
    wc = circle(0.0, 6.0)
    x_inf = cube_roots(-poly(wc[0]))[0]           # positive real root at z=6
    g3 = LiftedPath(wc, x_inf * OMEGA * OMEGA)
    g4 = LiftedPath(list(wc), x_inf)

    pairing = np.zeros((4, 4), dtype=int)
    pairing[0, 1], pairing[1, 0] = 1, -1
    lattice = ChargeLattice(pairing, [g1, g2, g3, g4])
    return CurveDefinition(
        name="hexagon",
        curve=curve,
        lattice=lattice,
        meta={"description": "degree-3 example, (2 + 3 z^2 - z^3)/2; rank-4 "
                             "lattice, generators 3 and 4 in the pairing kernel"},
    )


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for build, ref in ((build_pentagon, reference.PENTAGON),
                       (build_hexagon, reference.HEXAGON)):
        defn = build()
        pm = PeriodMap.compute(defn.curve, defn.lattice)
        print(f"{defn.name}:")
        for name, val, target in zip(defn.lattice.names, pm.basis_values,
                                     ref["Z"]):
            err = abs(val - target)
            print(f"  Z_{name} = {val:+.8f}   "
                  f"(ref {target}, |diff| = {err:.2e})")
            assert err < ref["Z_tol"], f"{defn.name} {name} misses reference"
        path = OUT / f"{defn.name}.json"
        with open(path, "w") as fh:
            json.dump(curve_to_json(defn), fh, indent=1)
            fh.write("\n")
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()
