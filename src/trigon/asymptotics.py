"""Large-scale predictions for the spectral coordinates.

For a charge in the kernel of the pairing the coordinate is exactly
exp(a*R) with a = 2 Re(exp(-i*theta) Z).  Otherwise the leading
correction comes from a saddle-point evaluation of each ray integral
with the semiflat substitution:

    log X = a R + sum_mu c_mu R^(-1/2) exp(-2 |Z_mu| R) + delta(R),

    c_mu = Omega(mu) <gamma,mu> / (4 pi i)
           * (alpha_mu + e^{i theta}) / (alpha_mu - e^{i theta})
           * sqrt(pi / |Z_mu|),

and the remainder delta is expected to vanish faster than the slowest
correction term.  When several charges share the minimal |Z_mu| their
coefficients are summed into the single reported leading coefficient.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflow, ValidationError
from .tba import (_EXP_CAP, check_off_ray, coupling_coefficient,
                  integral_term, log_x)

# corrections whose rates 2|Z_mu| lie within this of the smallest are
# summed into the leading coefficient
RATE_TOL = 1e-6


def linear_coefficient(gamma, theta, period_map):
    """a = 2 Re(exp(-i*theta) Z_gamma): slope of log X in the scale R."""
    return 2.0 * (cmath.exp(-1j * theta) * period_map.Z(gamma)).real


@dataclass
class AsymptoticPrediction:
    charge: object
    theta: float
    a: float
    corrections: list          # (mu, c_mu complex, rate 2|Z_mu|)
    rho: float                 # min |Z_mu| over contributing mu; None if exact
    leading_coefficient: float # summed c_mu at the common minimal rate

    @property
    def exact(self):
        return not self.corrections

    def correction_sum(self, R):
        """sum_mu c_mu R^(-1/2) exp(-rate * R) over all contributions."""
        if not self.corrections:
            return 0.0
        total = sum(c * math.exp(-rate * R) for _, c, rate in self.corrections)
        return total.real / math.sqrt(R)

    def value(self, R):
        """Predicted log X at scale R."""
        return self.a * R + self.correction_sum(R)


def build_prediction(gamma, theta, spectrum, period_map, pairing):
    """Assemble the prediction for one charge at one phase.

    Contributions with a common minimal |Z_mu| (within RATE_TOL) are
    summed into the reported leading coefficient; the imaginary parts
    cancel between mu and -mu, which is asserted.  A phase within
    RAY_MARGIN of a coupled ray raises OnRayEvaluation, as log_x does at
    that phase, and a non-finite one ValidationError.
    """
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    a = linear_coefficient(gamma, theta, period_map)
    zeta = cmath.exp(1j * theta)
    corrections = []
    for mu in spectrum.charges():
        # Z first: it rejects a charge of the wrong rank
        Z = period_map.Z(mu)
        ip = pairing(gamma, mu)
        if ip == 0:
            continue
        absZ = abs(Z)
        alpha = -Z / absZ
        check_off_ray(zeta, alpha, mu)
        c = (coupling_coefficient(spectrum.omega(mu), ip)
             * (alpha + zeta) / (alpha - zeta) * math.sqrt(math.pi / absZ))
        corrections.append((mu, c, 2.0 * absZ))
    if not corrections:
        return AsymptoticPrediction(charge=gamma, theta=theta, a=a,
                                    corrections=[], rho=None,
                                    leading_coefficient=0.0)
    rho = min(rate for _, _, rate in corrections) / 2.0
    lead = sum(c for _, c, rate in corrections
               if rate <= 2.0 * rho + RATE_TOL)
    if abs(lead.imag) > 1e-9 * max(1.0, abs(lead)):
        raise ValidationError(
            f"leading coefficient has imaginary part {lead.imag:.3e}; "
            f"the spectrum is not symmetric")
    corrections.sort(key=lambda t: t[2])
    return AsymptoticPrediction(charge=gamma, theta=theta, a=a,
                                corrections=corrections, rho=rho,
                                leading_coefficient=lead.real)


def remainder(solution, prediction):
    """delta = measured log X minus the full multi-rate prediction, at
    the solution's own R.

    Taken as the integral term of log X minus the correction sum, so the
    a R driving term, which both sides share exactly, never enters: at
    large R the remainder falls below the rounding of log X itself.  The
    solution and the prediction must share theta.
    """
    if abs(solution.config.theta - prediction.theta) > 1e-12:
        raise ValidationError("solution and prediction phases differ")
    return (integral_term(solution, prediction.charge).real
            - prediction.correction_sum(solution.config.R))


def _slowest_growth(rho, R):
    """exp(2 rho R), the inverse of the slowest correction's decay.

    Past _EXP_CAP it leaves the double range, and the remainder it
    rescales is at the bottom of it: NumericOverflow, not OverflowError.
    """
    if not 2 * rho * R <= _EXP_CAP:
        raise NumericOverflow(
            f"at R = {R:g} the slowest correction exp(-2 rho R) = "
            f"exp(-{2 * rho * R:.1f}) cannot be rescaled in doubles")
    return math.exp(2 * rho * R)


def decay_table(solutions, prediction):
    """(R, logX, predicted, delta, |delta| sqrt(R) exp(2 rho R)) rows.

    delta comes from remainder, not from logX - predicted.  The last
    column is the remainder rescaled by the slowest correction;
    it should decrease along an increasing R grid when the prediction
    captures the true leading correction.
    """
    rows = []
    for sol in sorted(solutions, key=lambda s: s.config.R):
        R = sol.config.R
        lx = log_x(sol, prediction.charge).real
        pred = prediction.value(R)
        delta = remainder(sol, prediction)
        scale = (abs(delta) * math.sqrt(R)
                 * _slowest_growth(prediction.rho, R)
                 if prediction.rho is not None else abs(delta))
        rows.append((R, lx, pred, delta, scale))
    return rows


def solver_coefficient(solutions, prediction):
    """The leading coefficient the solver produces, extrapolated in R.

    At each solution's R the integral term of log X (log X - a R, summed
    apart from the driving term so that it keeps full precision) is
    rescaled by sqrt(R) exp(2 rho R).  That tends to the leading
    coefficient with corrections in powers of 1/R, so the polynomial in
    1/R through the points (one degree less than their number) is read
    off at 1/R = 0.  Returns (coefficient, [(R, rescaled), ...]).
    """
    if prediction.rho is None:
        raise ValidationError(
            f"{prediction.charge} has no correction to extrapolate")
    points = []
    for sol in sorted(solutions, key=lambda s: s.config.R):
        R = sol.config.R
        if abs(sol.config.theta - prediction.theta) > 1e-12:
            raise ValidationError("solution and prediction phases differ")
        term = integral_term(sol, prediction.charge).real
        points.append((R, term * math.sqrt(R)
                       * _slowest_growth(prediction.rho, R)))
    if len(points) < 2 or len({R for R, _ in points}) < len(points):
        raise ValidationError(
            "extrapolation needs solutions at two or more distinct R")
    inv_R = [1.0 / R for R, _ in points]
    fit = np.polyfit(inv_R, [v for _, v in points], len(points) - 1)
    return float(np.polyval(fit, 0.0)), points
