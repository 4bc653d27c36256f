"""Scale function, speed measure, and extinction analytics.

Conventions.  For a spec with drift mu and squared diffusion sigma2 the
single-island generator has drift -x + mu(x), so the scale density is

    s(z) = exp(-H(z)),   H(z) = int_0^z h,   h(x) = 2 (mu(x) - x) / sigma2(x),

normalized by s(0) = 1 (equivalently S'(0) = 1 for S(y) = int_0^y s).  The
speed measure is m(dy) = 2 / (sigma2(y) s(y)) dy and the extinction
criterion is

    Theta = int_0^upper (2 y / sigma2(y)) e^{H(y)} dy = int y m(dy),

with extinction certain iff Theta <= 1.  h is evaluated through the
families' mu(x)/x and sigma2(x)/x ratios, which stay finite at 0.

Quadrature policy: scipy's adaptive Gauss-Kronrod does the work; endpoint
singularities at 0 are integrated in log coordinates below a knee (1e-6),
and integrals to infinity are truncated adaptively, doubling the horizon
until three consecutive doublings add less than 1e-2 * abs_tol (a clearly
divergent tail raises DivergenceError instead).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .coefficients import CoefficientSpec
from .exceptions import DivergenceError, DomainError, RegimeError, SolverError

__all__ = [
    "QuadratureConfig",
    "scale_density",
    "scale_function",
    "speed_mass",
    "extinction_criterion",
    "classify_regime",
    "logistic_criterion",
    "RhoSolution",
    "solve_rho",
    "gamma_rho_pdf",
    "gamma_rho_cdf",
    "sample_gamma_rho",
    "extinction_probability",
]


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    singularity_knee: float = 1e-6
    max_doublings: int = 60

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.singularity_knee <= 0:
            raise ValueError("tolerances and knee must be positive")


_DEFAULT_Q = QuadratureConfig()


def _quad(f, a, b, q: QuadratureConfig, points=None):
    if points:
        pts = sorted(p for p in points if a < p < b)
        if pts and math.isfinite(a) and math.isfinite(b):
            val, _ = integrate.quad(f, a, b, epsabs=q.abs_tol, epsrel=q.rel_tol,
                                    limit=200, points=pts)
            return val
    val, _ = integrate.quad(f, a, b, epsabs=q.abs_tol, epsrel=q.rel_tol, limit=200)
    return val


def _div(a: float, b: float) -> float:
    """a / b, with the IEEE value where b == 0: +-inf, or nan for 0/0."""
    return a / b if b else (math.copysign(math.inf, a) if a else math.nan)


_U_FLOOR = math.log(sys.float_info.min)  # e^u is a normal float above this


def _log_slice(f, knee: float, q: QuadratureConfig) -> float:
    """int_0^knee f(y) dy in u = log y (inf if it diverges at 0).

    g(u) = f(e^u) e^u vanishes where e^u underflows if f is finite at 0.  If
    f is singular there (inf or nan), the quadrature stops at _U_FLOOR and
    adds the tail g0/p of the power law g0 e^{p (u - _U_FLOOR)} through g at
    _U_FLOOR and _U_FLOOR + 1; a rate p <= 1e-9 is not integrable.
    """
    def g(u: float) -> float:
        y = math.exp(u)
        return f(y) * y

    if math.isfinite(f(0.0)):
        return _quad(g, -np.inf, math.log(knee), q)
    g0, g1 = g(_U_FLOOR), g(_U_FLOOR + 1.0)
    if g0 != 0.0 and not (math.isfinite(g0) and g1 / g0 > math.exp(1e-9)):
        return math.inf
    tail = g0 / math.log(g1 / g0) if g0 != 0.0 else 0.0
    return tail + _quad(g, _U_FLOOR, math.log(knee), q)


def _integrate_zero_singular(f, b: float, q: QuadratureConfig, points=None) -> float:
    """int_0^b f (b may be inf) for integrands with a singularity at 0.

    The slice below the knee is taken in u = log x (see `_log_slice`).
    """
    knee = min(q.singularity_knee, 0.5 * b)
    low = _log_slice(f, knee, q)
    if not math.isfinite(low):
        raise DivergenceError("integral diverges at the lower boundary 0")
    if math.isinf(b):
        return low + _integrate_to_inf(f, knee, q, points=points)
    return low + _quad(f, knee, b, q, points=points)


def _integrate_to_inf(f, a: float, q: QuadratureConfig, points=None) -> float:
    """int_a^inf f by adaptive horizon doubling."""
    t0 = max(2.0 * abs(a), 1.0)
    total = _quad(f, a, t0, q, points=points)
    small, grow, prev = 0, 0, math.inf
    t = t0
    for _ in range(q.max_doublings):
        seg = _quad(f, t, 2.0 * t, q)
        if not math.isfinite(seg):
            raise DivergenceError("tail integral is not finite")
        total += seg
        t *= 2.0
        if abs(seg) < 1e-2 * q.abs_tol:
            small += 1
            grow = 0
            if small >= 3:
                return total
        else:
            small = 0
            grow = grow + 1 if abs(seg) >= abs(prev) else 0
            if grow >= 6:
                raise DivergenceError("tail integral keeps growing; divergent")
        prev = seg
    raise DivergenceError("tail integral did not settle within the doubling budget")


def _breakpoints(spec: CoefficientSpec):
    pts = []
    for fam in (spec.drift, spec.diffusion):
        poly = getattr(fam, "poly", None)
        if poly is not None:
            pts.extend(poly.breakpoints[1:])
    return pts


def _h(spec: CoefficientSpec):
    def h(x: float) -> float:
        return _div(2.0 * (float(spec.mu_over_x(x)) - 1.0),
                    float(spec.sigma2_over_x(x)))
    return h


def _H(spec: CoefficientSpec, z: float, q: QuadratureConfig) -> float:
    """H(z) = int_0^z h, integrating the sub-knee slice in log coordinates."""
    if z == 0.0:
        return 0.0
    h = _h(spec)
    knee = min(q.singularity_knee, z)
    low = _log_slice(h, knee, q)
    if not math.isfinite(low):
        raise DivergenceError("int_0 h diverges; scale density undefined")
    if z <= q.singularity_knee:
        return low
    return low + _quad(h, knee, z, q, points=_breakpoints(spec))


def _check_in_domain(spec: CoefficientSpec, z: float, name: str) -> None:
    if not (0.0 <= z <= spec.domain.upper):
        raise DomainError(f"{name}={z} outside [0, {spec.domain.upper}]")


def scale_density(spec: CoefficientSpec, z: float,
                  q: QuadratureConfig = _DEFAULT_Q) -> float:
    """s(z) = exp(-H(z)), with s(0) = 1."""
    _check_in_domain(spec, z, "z")
    H = _H(spec, z, q)
    if H < -700.0:
        raise DivergenceError("scale density overflows")
    return math.exp(-H)


def scale_function(spec: CoefficientSpec, y: float,
                   q: QuadratureConfig = _DEFAULT_Q) -> float:
    """S(y) = int_0^y s(z) dz; increasing, S(0) = 0, S'(0) = 1."""
    _check_in_domain(spec, y, "y")
    if y == 0.0:
        return 0.0
    val = _quad(lambda z: scale_density(spec, z, q), 0.0, y, q,
                points=_breakpoints(spec))
    if not math.isfinite(val):
        raise DivergenceError("scale function is not finite")
    return val


def speed_mass(spec: CoefficientSpec, a: float, b: float,
               q: QuadratureConfig = _DEFAULT_Q) -> float:
    """m((a,b)) = int_a^b 2 / (sigma2(y) s(y)) dy.

    Returns inf when a == 0 and the measure piles up infinite mass at the
    trap (the usual case for sigma2 ~ y near 0).
    """
    _check_in_domain(spec, a, "a")
    _check_in_domain(spec, b, "b")
    if not a <= b:
        raise DomainError("need a <= b")
    if a == b:
        return 0.0

    def integrand(y: float) -> float:
        return _div(2.0 * math.exp(_H(spec, y, q)), float(spec.sigma2(y)))

    if a > 0.0:
        return _quad(integrand, a, b, q, points=_breakpoints(spec))
    # probe shrinking lower limits for divergence at the trap
    vals = [_quad(integrand, lo, b, q, points=_breakpoints(spec))
            for lo in (1e-4, 1e-6, 1e-8)]
    if vals[-1] - vals[-2] > 10.0 * max(q.abs_tol, 1e-12) * max(1.0, abs(vals[-1])):
        return math.inf
    return _integrate_zero_singular(integrand, b, q, points=_breakpoints(spec))


def extinction_criterion(spec: CoefficientSpec,
                         q: QuadratureConfig = _DEFAULT_Q) -> float:
    """Theta = int_0^upper (2 y / sigma2(y)) exp(H(y)) dy."""

    def integrand(y: float) -> float:
        H = _H(spec, y, q)
        return _div(2.0, float(spec.sigma2_over_x(y))) * math.exp(min(H, 700.0))

    val = _integrate_zero_singular(integrand, spec.domain.upper, q,
                                   points=_breakpoints(spec))
    if not math.isfinite(val):
        raise DivergenceError("extinction criterion integral diverged")
    return val


def classify_regime(theta: float) -> str:
    """'extinction' iff Theta <= 1, else 'survival'."""
    return "extinction" if theta <= 1.0 else "survival"


def logistic_criterion(gamma: float, K: float, beta: float,
                       q: QuadratureConfig = _DEFAULT_Q) -> float:
    """int_0^inf exp(K gamma x - (gamma beta / 2) x^2) e^{-x} dx.

    Equals the extinction criterion of the logistic drift (gamma, K) with
    linear diffusion beta, after the substitution y = beta x.
    """
    if gamma <= 0 or K <= 0 or beta <= 0:
        raise DomainError("gamma, K, beta must be positive")

    def f(x: float) -> float:
        return math.exp(K * gamma * x - 0.5 * gamma * beta * x * x - x)

    return _integrate_to_inf(f, 0.0, q)


# ---------------------------------------------------------------------------
# growth rate rho and the stationary mass distribution Gamma_rho
# ---------------------------------------------------------------------------

def _rho_residual(rho: float, gamma: float, K: float, beta: float,
                  q: QuadratureConfig) -> float:
    """int_0^inf y^{rho/beta} (K - y) exp(((gamma K - 1) y - gamma y^2 / 2)/beta) dy."""
    a = (gamma * K - 1.0) / beta
    c = 0.5 * gamma / beta
    p = rho / beta

    def f(y: float) -> float:
        return y**p * (K - y) * math.exp(a * y - c * y * y)

    return _integrate_to_inf(f, 0.0, q, points=[K])


def _log_gamma_rho_unnorm(x: np.ndarray, rho: float, gamma: float, K: float,
                          beta: float) -> np.ndarray:
    """log of (1/(beta x)) exp(int_K^x ((rho - z) + gamma z (K - z))/(beta z) dz).

    The inner integrand simplifies to rho/(beta z) + (gamma K - 1)/beta
    - (gamma/beta) z, so the integral has the closed form below (verified
    against direct quadrature in the tests).
    """
    x = np.asarray(x, dtype=float)
    inner = (rho / beta) * np.log(x / K) \
        + ((gamma * K - 1.0) / beta) * (x - K) \
        - (0.5 * gamma / beta) * (x * x - K * K)
    return inner - np.log(beta * x)


@dataclass(frozen=True)
class RhoSolution:
    """Root rho of the growth equation plus the normalized Gamma_rho tables.

    u_grid / cdf_grid: inverse-CDF sampling tables in u = log x, built once
    at solve time and read-only afterwards.
    """

    rho: float
    gamma: float
    K: float
    beta: float
    residual: float
    log_norm: float          # log of int of the unnormalized density
    u_grid: np.ndarray
    cdf_grid: np.ndarray

    @property
    def normalizer(self) -> float:
        """C_rho: the constant making Gamma_rho a probability measure."""
        return math.exp(-self.log_norm)


def _build_tables(rho, gamma, K, beta, n_grid: int):
    """Log-coordinate density tables wide enough to hold all but ~1e-16 mass."""
    logf = lambda u: _log_gamma_rho_unnorm(np.exp(u), rho, gamma, K, beta) + u
    # crude mode search, then expand until the log-density has dropped by 60
    us = np.linspace(-5, 5, 201)
    u_mode = us[int(np.argmax(logf(us)))]
    peak = float(logf(np.asarray(u_mode)))
    lo = u_mode
    while float(logf(np.asarray(lo))) > peak - 60.0:
        lo -= 2.0
        if lo < -4000.0:
            raise SolverError("Gamma_rho lower tail did not decay")
    hi = u_mode
    while float(logf(np.asarray(hi))) > peak - 60.0:
        hi += 1.0
        if hi > 400.0:
            raise SolverError("Gamma_rho upper tail did not decay")
    u = np.linspace(lo, hi, n_grid)
    g = np.exp(logf(u) - peak)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(u))])
    total = cdf[-1]
    log_norm = math.log(total) + peak
    cdf /= total
    return u, cdf, log_norm


def solve_rho(gamma: float, K: float, beta: float,
              q: QuadratureConfig = _DEFAULT_Q, rho_tol: float = 1e-10,
              n_grid: int = 65536) -> RhoSolution:
    """Solve for the exponential growth rate rho > 0 (survival regime only).

    Bracketing by doubling/halving from rho0 = beta, then bisection to
    rho_tol.  RegimeError if the criterion is <= 1 (no positive root).
    """
    if logistic_criterion(gamma, K, beta, q) <= 1.0:
        raise RegimeError("extinction regime: growth equation has no positive root")
    res = lambda r: _rho_residual(r, gamma, K, beta, q)
    lo = hi = beta
    r0 = res(beta)
    if r0 > 0.0:
        for _ in range(60):
            hi *= 2.0
            if res(hi) < 0.0:
                break
        else:
            raise SolverError("failed to bracket rho from above")
        lo = hi / 2.0
    elif r0 < 0.0:
        for _ in range(120):
            lo /= 2.0
            if res(lo) > 0.0:
                break
        else:
            raise SolverError("failed to bracket rho from below")
        hi = lo * 2.0
    for _ in range(200):
        if hi - lo <= rho_tol:
            break
        mid = 0.5 * (lo + hi)
        if res(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    u, cdf, log_norm = _build_tables(rho, gamma, K, beta, n_grid)
    return RhoSolution(rho=rho, gamma=gamma, K=K, beta=beta,
                       residual=res(rho), log_norm=log_norm,
                       u_grid=u, cdf_grid=cdf)


def gamma_rho_pdf(sol: RhoSolution, x):
    """Density of Gamma_rho at x > 0 (closed-form inner integral)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("Gamma_rho is supported on (0, inf)")
    out = np.exp(_log_gamma_rho_unnorm(x, sol.rho, sol.gamma, sol.K, sol.beta)
                 - sol.log_norm)
    return out if out.shape else float(out)


def gamma_rho_cdf(sol: RhoSolution, x):
    """CDF of Gamma_rho via the cached log-coordinate tables."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("Gamma_rho is supported on (0, inf)")
    u = np.log(np.maximum(x, 1e-300))
    out = np.interp(u, sol.u_grid, sol.cdf_grid, left=0.0, right=1.0)
    return out if out.shape else float(out)


def sample_gamma_rho(sol: RhoSolution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid draws by inverse CDF on the cached tables."""
    p = rng.random(n)
    return np.exp(np.interp(p, sol.cdf_grid, sol.u_grid))


def extinction_probability(sol: RhoSolution, y: float) -> float:
    """P(extinction | start y) = int exp(-(gamma/beta) y x) Gamma_rho(dx).

    Equals 1 at y = 0 and decreases strictly in y.
    """
    if y < 0.0:
        raise DomainError("y must be nonnegative")
    u = sol.u_grid
    # cell masses come from the cached CDF; the exponential factor is taken
    # at the cell midpoint for second-order accuracy
    xmid = np.exp(0.5 * (u[1:] + u[:-1]))
    w = np.diff(sol.cdf_grid)
    val = float(np.sum(w * np.exp(-(sol.gamma / sol.beta) * y * xmid)))
    return min(val, 1.0)
