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

Quadrature policy: one in-module global adaptive Gauss-Kronrod rule,
QUADPACK's qag with the 21-point Kronrod / 10-point Gauss pair of qk21 and
its error estimate (Piessens et al., QUADPACK, Springer 1983).  Breakpoints
of piecewise coefficients start the panels; the worst panel is bisected
until the summed error estimate meets the fixed tolerances (absolute 1e-10
or relative 1e-8) or there are 200 panels.  Integrands take the nodes of a
panel as one array.  The slice below a knee (1e-6) is integrated in
u = log y: on (-inf, log knee] through qagi's map u = log knee - (1 - t)/t
when the integrand is finite at 0, down to the smallest normal float plus a
power-law tail when it is not.  An infinite limit of one _quad goes through
the same map onto (0, 1].  The criterion's and the speed measure's tails
are instead truncated adaptively, doubling the horizon (at most 60 times)
until three consecutive doublings add less than 1e-2 * 1e-10 (a clearly
divergent tail raises DivergenceError).  No scipy module is loaded.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSpec
from .exceptions import DivergenceError, DomainError, RegimeError, SolverError

__all__ = [
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


# every integral's tolerances, the knee below which integrands with a
# singularity at 0 are taken in log coordinates, the tail doubling budget,
# and solve_rho's bisection width and Gamma_rho table nodes
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_KNEE = 1e-6
_MAX_DOUBLINGS = 60
_RHO_TOL = 1e-10
_N_GRID = 65536

# QUADPACK's qk21 rule: the 21-point Kronrod nodes on [-1, 1] and their
# weights; the 10-point Gauss rule uses every other node (XGK[1], XGK[3], ...).
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208931966773, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_W_K = np.array(_WGK[:-1] + _WGK[::-1])
_W_KG = np.zeros((21, 2))  # columns: the Kronrod and the Gauss weights
_W_KG[:, 0] = _W_K
_W_KG[1:10:2, 1], _W_KG[11:20:2, 1] = _WG, _WG[::-1]
_EPS50 = 50.0 * sys.float_info.epsilon
_LIMIT = 200  # panels per integral


def _gk21(f, lo, hi):
    """QUADPACK's qk21 on the panels [lo_i, hi_i]: integrals and error estimates.

    f gets the 21 nodes of every panel in one array.
    """
    half = [0.5 * (b - a) for a, b in zip(lo, hi)]
    x = np.multiply.outer(half, _NODES)
    x += np.array([0.5 * (a + b) for a, b in zip(lo, hi)])[:, None]
    fv = np.empty(x.size)
    with np.errstate(over="ignore", invalid="ignore"):  # _quad returns inf/nan
        fv[:] = f(x.ravel())
        fv.shape = x.shape
        kg = fv @ _W_KG
        asc = np.abs(fv - 0.5 * kg[:, :1]) @ _W_K
    mass = np.abs(fv) @ _W_K
    vals, errs = [], []
    for (k, g), s, m, hl in zip(kg.tolist(), asc.tolist(), mass.tolist(), half):
        err, s = abs((k - g) * hl), s * hl
        if s != 0.0 and err != 0.0:
            err = s * min(1.0, (200.0 * err / s) ** 1.5)
        vals.append(k * hl)
        errs.append(max(err, _EPS50 * m * hl))
    return vals, errs


def _quad(f, a, b, points=()):
    """int_a^b f by global adaptive Gauss-Kronrod (QUADPACK's qag with qk21).

    f maps an array of nodes to an array of values.  The breakpoints inside
    (a, b) start the panels; the panel with the largest error estimate is
    bisected until the summed estimate meets _ABS_TOL or _REL_TOL, or there
    are _LIMIT panels.  A non-finite panel value is returned at once.  An
    infinite limit (one at most) goes through QUADPACK qagi's map
    x = c +- (1 - t)/t of t in (0, 1] onto the half-line from the other limit c.
    """
    if b < a:
        return -_quad(f, b, a, points)
    if math.isinf(a) or math.isinf(b):
        c, sgn = (b, -1.0) if math.isinf(a) else (a, 1.0)
        return _quad(lambda t: f(c + sgn * (1.0 - t) / t) / (t * t), 0.0, 1.0,
                     [1.0 / (1.0 + abs(p - c)) for p in points if a < p < b])
    edges = [a, *sorted(p for p in points if a < p < b), b]
    lo, hi = edges[:-1], edges[1:]
    val, err = _gk21(f, lo, hi)
    while True:
        total = sum(val)
        if (not math.isfinite(total) or len(val) >= _LIMIT
                or sum(err) <= max(_ABS_TOL, _REL_TOL * abs(total))):
            return total
        i = err.index(max(err))
        mid = 0.5 * (lo[i] + hi[i])
        if not lo[i] < mid < hi[i]:  # the panel is down to float resolution
            return total
        v2, e2 = _gk21(f, [lo[i], mid], [mid, hi[i]])
        lo[i:i + 1], hi[i:i + 1] = [lo[i], mid], [mid, hi[i]]
        val[i:i + 1], err[i:i + 1] = v2, e2


def _div(a: float, b: float) -> float:
    """a / b, with the IEEE value where b == 0: +-inf, or nan for 0/0."""
    return a / b if b else (math.copysign(math.inf, a) if a else math.nan)


_U_FLOOR = math.log(sys.float_info.min)  # e^u is a normal float above this


def _log_slice(f, knee: float) -> float:
    """int_0^knee f(y) dy in u = log y (inf if it diverges at 0).

    g(u) = f(e^u) e^u vanishes where e^u underflows if f is finite at 0; then
    _quad maps t in (0, 1] onto (-inf, log knee] by u = log knee - (1 - t)/t,
    qagi's map.  If f is singular at 0 (inf or nan), the quadrature
    stops at _U_FLOOR and adds the tail g0/p of the power law
    g0 e^{p (u - _U_FLOOR)} through g at _U_FLOOR and _U_FLOOR + 1; a rate
    p <= 1e-9 is not integrable.
    """
    def g(u):
        y = np.exp(u)
        return f(y) * y

    top = math.log(knee)
    if np.isfinite(f(np.zeros(1))).all():
        return _quad(g, -math.inf, top)
    g0, g1 = g(np.array([_U_FLOOR, _U_FLOOR + 1.0])).tolist()
    if g0 != 0.0 and not (math.isfinite(g0) and g1 / g0 > math.exp(1e-9)):
        return math.inf
    tail = g0 / math.log(g1 / g0) if g0 != 0.0 else 0.0
    return tail + _quad(g, _U_FLOOR, top)


def _integrate_zero_singular(f, b: float, points=()) -> float:
    """int_0^b f (b may be inf) for integrands with a singularity at 0.

    The slice below the knee is taken in u = log x (see `_log_slice`).
    """
    knee = min(_KNEE, 0.5 * b)
    low = _log_slice(f, knee)
    if not math.isfinite(low):
        raise DivergenceError("integral diverges at the lower boundary 0")
    if math.isinf(b):
        return low + _integrate_to_inf(f, knee, points=points)
    return low + _quad(f, knee, b, points=points)


def _integrate_to_inf(f, a: float, points=()) -> float:
    """int_a^inf f by adaptive horizon doubling; every segment gets the breakpoints."""
    t0 = max(2.0 * abs(a), 1.0)
    total = _quad(f, a, t0, points=points)
    small, grow, prev = 0, 0, math.inf
    t = t0
    for _ in range(_MAX_DOUBLINGS):
        seg = _quad(f, t, 2.0 * t, points=points)
        if not math.isfinite(seg):
            raise DivergenceError("tail integral is not finite")
        total += seg
        t *= 2.0
        if abs(seg) < 1e-2 * _ABS_TOL:
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
    def h(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 2.0 * (spec.mu_over_x(x) - 1.0) / spec.sigma2_over_x(x)
    return h


def _H(spec: CoefficientSpec, z: float) -> float:
    """H(z) = int_0^z h, integrating the sub-knee slice in log coordinates."""
    if z == 0.0:
        return 0.0
    h = _h(spec)
    knee = min(_KNEE, z)
    low = _log_slice(h, knee)
    if not math.isfinite(low):
        raise DivergenceError("int_0 h diverges; scale density undefined")
    if z <= _KNEE:
        return low
    return low + _quad(h, knee, z, points=_breakpoints(spec))


def _check_in_domain(spec: CoefficientSpec, z: float, name: str) -> None:
    if not (0.0 <= z <= spec.domain.upper):
        raise DomainError(f"{name}={z} outside [0, {spec.domain.upper}]")


def scale_density(spec: CoefficientSpec, z: float) -> float:
    """s(z) = exp(-H(z)), with s(0) = 1."""
    _check_in_domain(spec, z, "z")
    H = _H(spec, z)
    if H < -700.0:
        raise DivergenceError("scale density overflows")
    return math.exp(-H)


def scale_function(spec: CoefficientSpec, y: float) -> float:
    """S(y) = int_0^y s(z) dz; increasing, S(0) = 0, S'(0) = 1."""
    _check_in_domain(spec, y, "y")
    if y == 0.0:
        return 0.0
    val = _quad(lambda zs: [scale_density(spec, z) for z in zs.tolist()],
                0.0, y, points=_breakpoints(spec))
    if not math.isfinite(val):
        raise DivergenceError("scale function is not finite")
    return val


def speed_mass(spec: CoefficientSpec, a: float, b: float) -> float:
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

    def integrand(ys):
        return [_div(2.0 * math.exp(_H(spec, y)), float(spec.sigma2(y)))
                for y in ys.tolist()]

    if a > 0.0:
        return _quad(integrand, a, b, points=_breakpoints(spec))
    # probe shrinking lower limits for divergence at the trap
    vals = [_quad(integrand, lo, b, points=_breakpoints(spec))
            for lo in (1e-4, 1e-6, 1e-8)]
    if vals[-1] - vals[-2] > 10.0 * max(_ABS_TOL, 1e-12) * max(1.0, abs(vals[-1])):
        return math.inf
    return _integrate_zero_singular(integrand, b, points=_breakpoints(spec))


def extinction_criterion(spec: CoefficientSpec) -> float:
    """Theta = int_0^upper (2 y / sigma2(y)) exp(H(y)) dy."""

    def integrand(ys):
        return [_div(2.0, float(spec.sigma2_over_x(y)))
                * math.exp(min(_H(spec, y), 700.0)) for y in ys.tolist()]

    val = _integrate_zero_singular(integrand, spec.domain.upper,
                                   points=_breakpoints(spec))
    if not math.isfinite(val):
        raise DivergenceError("extinction criterion integral diverged")
    return val


def classify_regime(theta: float) -> str:
    """'extinction' iff Theta <= 1, else 'survival'."""
    return "extinction" if theta <= 1.0 else "survival"


def logistic_criterion(gamma: float, K: float, beta: float) -> float:
    """int_0^inf exp(K gamma x - (gamma beta / 2) x^2) e^{-x} dx.

    Equals the extinction criterion of the logistic drift (gamma, K) with
    linear diffusion beta, after the substitution y = beta x.
    """
    if gamma <= 0 or K <= 0 or beta <= 0:
        raise DomainError("gamma, K, beta must be positive")

    def f(x):
        return np.exp(K * gamma * x - 0.5 * gamma * beta * x * x - x)

    return _integrate_to_inf(f, 0.0)


# ---------------------------------------------------------------------------
# growth rate rho and the stationary mass distribution Gamma_rho
# ---------------------------------------------------------------------------

def _rho_residual(rho: float, gamma: float, K: float, beta: float) -> float:
    """int_0^inf y^{rho/beta} (K - y) exp(((gamma K - 1) y - gamma y^2 / 2)/beta) dy.

    The y^{rho/beta} endpoint is smooth in u = log y, so (0, 1] is a log
    slice; the Gaussian tail past 1 goes through qagi's map in one _quad.
    """
    a = (gamma * K - 1.0) / beta
    c = 0.5 * gamma / beta
    p = rho / beta

    def f(y):
        return y**p * (K - y) * np.exp(a * y - c * y * y)

    val = _log_slice(f, 1.0) + _quad(f, 1.0, math.inf, points=[K])
    if not math.isfinite(val):
        raise DivergenceError("growth-rate residual is not finite")
    return val


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


def _build_tables(rho, gamma, K, beta):
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
    u = np.linspace(lo, hi, _N_GRID)
    g = np.exp(logf(u) - peak)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(u))])
    total = cdf[-1]
    log_norm = math.log(total) + peak
    cdf /= total
    return u, cdf, log_norm


def solve_rho(gamma: float, K: float, beta: float) -> RhoSolution:
    """Solve for the exponential growth rate rho > 0 (survival regime only).

    Bracketing by doubling/halving from rho0 = beta, then bisection to
    _RHO_TOL.  RegimeError if the criterion is <= 1 (no positive root).
    """
    if logistic_criterion(gamma, K, beta) <= 1.0:
        raise RegimeError("extinction regime: growth equation has no positive root")
    res = lambda r: _rho_residual(r, gamma, K, beta)
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
        if hi - lo <= _RHO_TOL:
            break
        mid = 0.5 * (lo + hi)
        if res(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    u, cdf, log_norm = _build_tables(rho, gamma, K, beta)
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
