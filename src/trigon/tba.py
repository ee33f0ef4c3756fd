"""Fixed-point solver for the ray integral iteration.

Unknowns are the functions f_mu(s) = log(1 + X_mu(zeta)) sampled on the
active rays zeta = alpha_mu * exp(s), alpha_mu = -Z_mu/|Z_mu|.  One sweep
of the iteration maps the current samples to

    X_gamma(zeta) = exp[ R (Z_gamma/zeta + conj(Z_gamma) zeta)
        + sum_mu Omega(mu) <gamma,mu> / (4 pi i)
          * int ds' (zeta' + zeta)/(zeta' - zeta) f_mu(s') ],

with zeta' = alpha_mu exp(s').  On a charge's own ray the driving term is
-2 R |Z| cosh(s), so the samples decay doubly-exponentially in s and the
trapezoid rule converges super-algebraically; storing log(1+X) rather
than X keeps everything bounded.  Terms with <gamma,mu> = 0 are skipped,
which makes kernel charges exactly semiflat at every iteration.

On the uniform s-grid the kernel between two rays depends only on s' - s
and on the gap between their phases, so each coupled pair is a Toeplitz
matrix and a sweep applies all of them as convolutions by FFT: one
batched transform of the weighted samples, one real batched matmul over
the coupled pairs, one batched inverse.  The build runs one FFT per
distinct phase gap (38 for the hexagon's 456 coupled pairs), and a pair
of rays keeps 2N - 1 real spectrum values instead of N^2 matrix entries
(2.4 MB for the hexagon's 24 rays at N = 257, against 482 MB dense).
Off the rays, log_x sums the same integrals by direct quadrature,
weighted by the same coefficient Omega(mu) <gamma,mu> / (4 pi i), so it
reproduces the stored samples for any Omega.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bps import active_rays
from .curve import Charge, as_integer
from .errors import (
    NoConvergence,
    NumericOverflow,
    OnRayEvaluation,
    ValidationError,
)

_EXP_CAP = 700.0     # exp() argument past which doubles overflow
# a phase closer than this to a coupled active ray is on the ray: log_x
# and the asymptotic prediction both refuse it
RAY_MARGIN = 1e-6
# coupled pairs whose ray-phase gaps differ by at most this share one
# kernel spectrum
GAP_TOL = 1e-12


@dataclass
class SolverConfig:
    """Scale, phase and discretization for one solve."""

    R: float
    theta: float = 0.0
    N: int = 257               # samples per ray, odd
    tol: float = 1e-10         # sup-norm step, relative to the largest sample
    max_iter: int = 100
    relax: float = 1.0         # under-relaxation factor (1 = plain iteration)

    def __post_init__(self):
        self.N = as_integer(self.N, "N")
        self.max_iter = as_integer(self.max_iter, "max_iter")
        if not 0 < self.R < math.inf:
            raise ValidationError("R must be positive and finite")
        if not math.isfinite(self.theta):
            raise ValidationError("theta must be finite")
        if self.N < 3 or self.N % 2 == 0:
            raise ValidationError("N must be odd and at least 3")
        if not 0 < self.tol < math.inf:
            raise ValidationError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if not 0 < self.relax < math.inf:
            raise ValidationError("relax must be positive and finite")

    def resolved_L(self, min_absZ):
        """Smallest L with 2 R |Z|min cosh(L) >= 2 R |Z|min + 40.

        This pushes the endpoint samples to exp(-2R|Z|min - 40), far below
        double precision noise relative to the peak.
        """
        return math.acosh(1.0 + 20.0 / (self.R * min_absZ))


@dataclass
class RayGrid:
    """Converged samples of log(1 + X) along one active ray."""

    charge: object
    alpha: complex
    absZ: float
    omega: int
    s: np.ndarray
    samples: np.ndarray

    def zeta(self):
        return self.alpha * np.exp(self.s)


@dataclass
class TbaSolution:
    ray_grids: list
    config: SolverConfig
    period_map: object
    pairing: object
    delta_history: list

    @property
    def iterations_used(self):
        return len(self.delta_history)


def semiflat(Z_gamma, zeta, R):
    """exp(R (Z/zeta + conj(Z) zeta)): the driving term of the iteration."""
    if zeta == 0:
        raise ValidationError("zeta must be nonzero")
    expo = R * (Z_gamma / zeta + Z_gamma.conjugate() * zeta)
    if expo.real > _EXP_CAP:
        raise NumericOverflow(f"semiflat exponent {expo.real:.1f} too large")
    return cmath.exp(expo)


def coupling_coefficient(omega, ip):
    """Omega(mu) <gamma,mu> / (4 pi i): the weight of the ray integral of
    mu in log X_gamma.  The sweep, integral_term and the asymptotic
    prediction all take it from here."""
    return omega * ip / (4j * math.pi)


def _log1p(z):
    """log(1 + z) for complex arrays, keeping full relative precision.

    numpy's complex log1p rounds 1 + z first, so it returns 0 once |z|
    drops below about 1e-16; on the rays that happens for R|Z| >~ 18.
    For |z| < 1/2 the real part is taken from the real log1p of
    |1 + z|^2 - 1 = 2 Re z + |z|^2, which has no such rounding.
    """
    small = np.abs(z) < 0.5
    zs = np.where(small, z, 0.0)
    near = (0.5 * np.log1p(2.0 * zs.real + zs.real ** 2 + zs.imag ** 2)
            + 1j * np.arctan2(zs.imag, 1.0 + zs.real))
    return np.where(small, near, np.log1p(z))


def _kernel_transforms(ratios, s):
    """FFT of t_r(d) = (r e^{d h} + 1) / (r e^{d h} - 1) over the circular
    offsets of the s-grid, one row per ratio r (see _Workspace)."""
    N = len(s)
    # circular index k holds the offset j - i = -k, or M - k past N - 1
    offsets = np.concatenate([-np.arange(N), np.arange(N - 1, 0, -1)])
    q = ratios[:, None] * np.exp(offsets * (s[1] - s[0]))
    return np.fft.fft((q + 1) / (q - 1))


def _trapezoid_weights(s):
    w = np.full(len(s), s[1] - s[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


class _Workspace:
    """Kernel spectra and couplings for one (spectrum, R, theta).

    On the uniform s-grid the kernel from ray b to the samples of ray a,
    (zeta_b(s_j) + zeta_a(s_i)) / (zeta_b(s_j) - zeta_a(s_i)), is
    t_r(j - i) with r = alpha_b / alpha_a, h the s-step and

        t_r(d) = (r e^{d h} + 1) / (r e^{d h} - 1),

    a Toeplitz matrix that depends on the pair only through the phase
    gap arg r.  Coupled pairs whose gaps agree to GAP_TOL share one FFT
    of t_r over the M = 2N - 1 offsets -(N-1)..N-1, so the circular
    convolution does not wrap on the N outputs.  Since |r| = 1,
    t_r(-d) = -conj(t_r(d)) and the FFT is imaginary; so is the coupling
    c_ab, and kernel_spectra[m, a, b] = c_ab FFT(t_r)[m] is real, zero
    for uncoupled pairs.  The trapezoid weights act on the source
    samples, u_b = w f_b, before the transform.
    """

    def __init__(self, config, spectrum, period_map, pairing):
        self.config = config
        self.period_map = period_map
        self.pairing = pairing
        rays = active_rays(spectrum, period_map, pairing)
        self.rays = rays
        self.n = len(rays)
        self.omega = [spectrum.omega(r.charge) for r in rays]
        N = config.N
        minZ = min(r.absZ for r in rays)
        L = config.resolved_L(minZ)
        self.s = np.linspace(-L, L, N)
        self.w = _trapezoid_weights(self.s)
        absZ = np.array([r.absZ for r in rays])
        self.drive = -2.0 * config.R * absZ[:, None] * np.cosh(self.s)
        # the pairing is bilinear: its matrix on the basis gives every
        # <a, b> at once
        rank = len(rays[0].charge)
        basis = [Charge([int(i == j) for j in range(rank)])
                 for i in range(rank)]
        form = np.array([[pairing(e, f) for f in basis] for e in basis])
        comps = np.array([r.charge.components for r in rays])
        ip = comps @ form @ comps.T
        # c_ab is i times this real coefficient
        coupling = coupling_coefficient(np.array(self.omega)[None, :],
                                        ip).imag
        targets, sources = np.nonzero(ip)
        alpha = np.array([r.alpha for r in rays])
        gaps = np.angle(alpha[sources] / alpha[targets])
        order = np.argsort(gaps)
        starts = np.diff(gaps[order], prepend=-np.inf) > GAP_TOL
        cluster = np.empty(len(gaps), dtype=np.intp)
        cluster[order] = np.cumsum(starts) - 1
        # one phase gap per kernel FFT
        self.gaps = gaps[order][starts]
        G = len(self.gaps)
        # column G stays zero for the uncoupled pairs
        table = np.zeros((2 * N - 1, G + 1))
        table[:, :G] = _kernel_transforms(np.exp(1j * self.gaps),
                                          self.s).imag.T
        index = np.full((self.n, self.n), G)
        index[targets, sources] = cluster
        self.kernel_spectra = np.take(table, index, axis=1)
        # (i c_ab) (i Im FFT) = -c_ab Im FFT
        self.kernel_spectra *= -coupling

    def zero_state(self):
        return np.zeros((self.n, self.config.N), dtype=complex)

    def as_solution(self, state, history):
        grids = [RayGrid(charge=r.charge, alpha=r.alpha, absZ=r.absZ,
                         omega=self.omega[i], s=self.s.copy(),
                         samples=state[i].copy())
                 for i, r in enumerate(self.rays)]
        return TbaSolution(ray_grids=grids, config=self.config,
                           period_map=self.period_map, pairing=self.pairing,
                           delta_history=list(history))

    def sweep(self, state):
        """One iteration sweep; returns (new_state, sup_delta).

        state holds one row of samples per ray.
        """
        cfg = self.config
        state = np.asarray(state, dtype=complex)
        M = self.kernel_spectra.shape[0]
        # the transformed samples as (M, n, 2) floats, so the real
        # spectra act on real and imaginary parts in one batched matmul
        u_hat = np.ascontiguousarray(np.fft.fft(self.w * state, n=M).T)
        conv_hat = (self.kernel_spectra
                    @ u_hat.view(float).reshape(M, self.n, 2))
        conv = np.fft.ifft(conv_hat.view(complex)[..., 0], axis=0)
        expo = self.drive + conv[:cfg.N].T
        peak = expo.real.max(axis=1)
        over = np.flatnonzero(peak > _EXP_CAP)
        if over.size:
            a = over[0]
            raise NumericOverflow(
                f"iteration exponent reached {peak[a]:.1f} on ray of "
                f"{self.rays[a].charge}; the iteration is diverging")
        f = _log1p(np.exp(expo))
        if cfg.relax != 1.0:
            f = cfg.relax * f + (1.0 - cfg.relax) * state
        return f, float(np.max(np.abs(f - state)))


def iterate_once(state, config, spectrum, period_map, pairing):
    """One sweep of the iteration; state holds one row of samples per ray
(a list of arrays or a 2-d array), and so does the result.

    Mainly a hook for tests and diagnostics; solve() drives the same sweep
    to convergence.
    """
    ws = _Workspace(config, spectrum, period_map, pairing)
    if state is None:
        state = ws.zero_state()
    return ws.sweep(state)[0]


def solve(config, spectrum, period_map, pairing):
    """Iterate from X = 0 to the fixed point; returns a TbaSolution.

    Stops when a sweep moves no sample by more than tol times the largest
    sample, so the feedback between rays is converged even at large R,
    where every sample is exponentially small.
    """
    ws = _Workspace(config, spectrum, period_map, pairing)
    state = ws.zero_state()
    history = []
    for _ in range(config.max_iter):
        state, delta = ws.sweep(state)
        history.append(delta)
        if delta <= config.tol * float(np.max(np.abs(state))):
            return ws.as_solution(state, history)
    raise NoConvergence(
        f"no convergence after {config.max_iter} iterations "
        f"(last delta {history[-1]:.3e}); convergence is only guaranteed "
        f"at sufficiently large R")


def check_off_ray(zeta, alpha, charge):
    """Raise OnRayEvaluation when zeta lies within RAY_MARGIN, in wrapped
    phase, of the ray alpha * exp(s) of a coupled charge, where X_gamma
    jumps: the one on-ray rule of log_x and the asymptotic prediction."""
    gap = abs((cmath.phase(zeta) - cmath.phase(alpha) + math.pi)
              % (2 * math.pi) - math.pi)
    if gap < RAY_MARGIN:
        raise OnRayEvaluation(
            f"zeta lies on the ray of {charge}; offset the phase by "
            f"more than {RAY_MARGIN}")


def _zeta_or_default(solution, zeta):
    if zeta is None:
        return cmath.exp(1j * solution.config.theta)
    zeta = complex(zeta)
    if zeta == 0 or not cmath.isfinite(zeta):
        raise ValidationError(f"zeta must be finite and nonzero, not {zeta}")
    return zeta


def log_x(solution, gamma, zeta=None):
    """log X_gamma at zeta (default exp(i*theta)): driving term plus the
    Cauchy-kernel quadrature against every coupled ray grid.

    Raises OnRayEvaluation when zeta is on a coupled active ray (see
    check_off_ray).
    """
    zeta = _zeta_or_default(solution, zeta)
    Zg = solution.period_map.Z(gamma)
    return (complex(solution.config.R) * (Zg / zeta + Zg.conjugate() * zeta)
            + integral_term(solution, gamma, zeta))


def integral_term(solution, gamma, zeta=None):
    """log X_gamma minus its driving term: the Cauchy-kernel quadrature
    alone.

    Summed apart from the driving term, it keeps its full relative
    precision at large R, where it falls below the rounding of log X
    itself (for the hexagon at R = 5 it is ~1e-11 against log X ~ 23).
    Same arguments and errors as log_x.
    """
    zeta = _zeta_or_default(solution, zeta)
    pairing = solution.pairing
    total = 0j
    for g in solution.ray_grids:
        ip = pairing(gamma, g.charge)
        if ip == 0:
            continue
        check_off_ray(zeta, g.alpha, g.charge)
        zp = g.zeta()
        w = _trapezoid_weights(g.s)
        total += (coupling_coefficient(g.omega, ip)
                  * np.sum(w * (zp + zeta) / (zp - zeta) * g.samples))
    return complex(total)


def spectral_coordinate(solution, gamma, zeta=None):
    """X_gamma(zeta) from a converged solution, zeta off the active rays
    (default exp(i*theta), where X_gamma is real for symmetric spectra);
    raises as log_x does, or NumericOverflow past the double range."""
    expo = log_x(solution, gamma, zeta)
    if expo.real > _EXP_CAP:
        raise NumericOverflow(f"evaluation exponent {expo.real:.1f} too large")
    return cmath.exp(expo)
