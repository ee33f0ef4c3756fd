"""Target values for the shipped examples, with their check tolerances.

These drive the `reproduce` command and the acceptance test suite: each
entry records a known value for a quantity the pipeline computes, the
tolerance at which the reproduction is checked, and (for the pentagon
base period) an independent closed form.

Note on the closed form: the constant 12*2^(2/3)*pi^(3/2) / (5*G(-1/6)*
G(2/3)) is negative (G(-1/6) < 0); the phase of the period is
exp(5*pi*i/6), so the reference uses the magnitude of the constant.
"""

import cmath
import math

PENTAGON = {
    "Z": [-2.00324 + 1.15657j, -2.31315j],
    "Z_tol": 5e-5,
    "closed_form_tol": 1e-6,
    "network_theta": 0.0,
    "trajectories": 18,
    "born": 2,
    "directions": 10,
    "bps_phases": [-5 * math.pi / 6, -math.pi / 2, -math.pi / 6,
                   math.pi / 6, math.pi / 2, 5 * math.pi / 6],
    "bps_phase_tol": 1e-3,
    "tba_R": 0.5,
    "tba_theta": 0.0,
    "X_gamma1": 0.1286,
    "X_tol": 1e-3,
    "a_gamma1": -4.00648,
    "rho_gamma1": 2.31315,
    "asym_tol": 5e-5,
}

HEXAGON = {
    "Z": [2.30298, 5.47033 + 4.48792j, -4.31884 + 2.49348j, -4.98697j],
    "Z_tol": 5e-5,
    "network_theta": 0.1,
    "trajectories": 31,
    "born": 7,
    "directions": 12,
    "kernel_charges": [(0, 0, 1, 0), (0, 0, 0, 1)],
    "kernel_R_values": [0.5, 1.0, 2.0],
    "kernel_rel_tol": 1e-12,
    "a_gamma3_theta02": -7.4748,
    "a_gamma3_tol": 5e-4,
    "asym_theta": 0.2,
    "a_gamma1": 4.5142,
    "rho_gamma1": 2.3030,
    "c_gamma1": 0.1961,
    "asym_tol": 5e-4,
    # c_gamma1 is the contribution of the charge pair +-(1,-1,-1,-1)
    # alone.  Two pairs tie at the minimal rate: the sheet rotation
    # x -> omega x maps gamma1 to (-1,1,1,1) and (0,-1,-1,-1), with
    # periods omega Z1 and omega^2 Z1.  The leading coefficient sums both
    # pairs and is checked against the solver extrapolated over the R
    # values below.
    "c_gamma1_charge": (1, -1, -1, -1),
    "gamma1_z3_images": [(-1, 1, 1, 1), (0, -1, -1, -1)],
    "z3_tie_tol": 1e-9,
    "solver_R_values": [10.0, 20.0, 30.0, 40.0],
    "solver_c_rel_tol": 1e-3,
    "junction_web_theta": 0.36,
    "junction_web_charge": (1, 0, -1, -1),
}


def pentagon_closed_form():
    """Closed-form value of the pentagon base period (see module note)."""
    const = (12.0 * 2.0 ** (2.0 / 3.0) * math.pi ** 1.5
             / (5.0 * math.gamma(-1.0 / 6.0) * math.gamma(2.0 / 3.0)))
    return cmath.exp(5j * math.pi / 6.0) * abs(const)
