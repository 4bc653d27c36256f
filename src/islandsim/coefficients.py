"""Drift and diffusion coefficient families.

A model is specified by a drift mu, a squared diffusion coefficient sigma2,
and a state interval [0, upper] (upper may be inf).  Both coefficients vanish
at 0, so 0 traps; if upper is finite the drift must be nonpositive and the
diffusion must vanish there.  The analytic quantities downstream (scale
function, extinction criterion) need the ratios mu(x)/x and sigma2(x)/x
evaluated stably at 0, so each family implements those ratios in closed form
rather than by division.

`validate_assumptions` probes a spec against the standing assumptions
(boundary behavior, an upward-Lipschitz drift estimate, diffusion growth,
integrability near the boundaries) and against whatever structural properties
(concavity, sub/super-additivity) the spec declares.  The checks are
grid-based diagnostics, not proofs: they reliably flag the standard
counterexamples (e.g. sigma2(y) = y^2, or a convex drift declared concave)
and pass the built-in families in their documented parameter ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError

ArrayLike = "float | np.ndarray"


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainInterval:
    """State interval [0, upper]; upper == inf for the half line."""

    upper: float = math.inf

    def __post_init__(self) -> None:
        if not (self.upper > 0):
            raise ConfigError(f"domain upper bound must be positive, got {self.upper}")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.upper)

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -tol) and np.all(x <= self.upper + tol))


# ---------------------------------------------------------------------------
# drift families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Logistic:
    """mu(x) = gamma * x * (K - x)."""

    gamma: float
    K: float

    def __post_init__(self) -> None:
        if self.gamma <= 0 or self.K <= 0:
            raise ConfigError("Logistic requires gamma > 0 and K > 0")

    def mu(self, x):
        x = np.asarray(x, dtype=float)
        return self.gamma * x * (self.K - x)

    def mu_over_x(self, x):
        x = np.asarray(x, dtype=float)
        return self.gamma * (self.K - x)

    def scale_hint(self) -> float:
        return self.K

    def default_structure(self) -> "DeclaredStructure":
        return DeclaredStructure(mu_concave=True, mu_subadditive=True)


@dataclass(frozen=True)
class LinearDrift:
    """mu(x) = c * x."""

    c: float

    def mu(self, x):
        return self.c * np.asarray(x, dtype=float)

    def mu_over_x(self, x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.c)

    def scale_hint(self) -> float:
        return 1.0

    def default_structure(self) -> "DeclaredStructure":
        return DeclaredStructure(mu_concave=True, mu_subadditive=True)


@dataclass(frozen=True)
class PowerDrift:
    """mu(x) = c1 * x**kappa1 - c2 * x**kappa2 with kappa2 > kappa1 >= 1."""

    c1: float
    kappa1: float
    c2: float
    kappa2: float

    def __post_init__(self) -> None:
        if self.c1 <= 0 or self.c2 <= 0:
            raise ConfigError("PowerDrift requires c1 > 0 and c2 > 0")
        if not (self.kappa2 > self.kappa1 >= 1.0):
            raise ConfigError("PowerDrift requires kappa2 > kappa1 >= 1")

    def mu(self, x):
        x = np.asarray(x, dtype=float)
        return self.c1 * x**self.kappa1 - self.c2 * x**self.kappa2

    def mu_over_x(self, x):
        x = np.asarray(x, dtype=float)
        return self.c1 * x ** (self.kappa1 - 1.0) - self.c2 * x ** (self.kappa2 - 1.0)

    def scale_hint(self) -> float:
        # level at which the drift turns negative
        return (self.c1 / self.c2) ** (1.0 / (self.kappa2 - self.kappa1))

    def default_structure(self) -> "DeclaredStructure":
        if self.kappa1 == 1.0:
            return DeclaredStructure(mu_concave=True, mu_subadditive=True)
        return DeclaredStructure()


@dataclass(frozen=True)
class SelectionMutation:
    """mu(x) = s * x * (1 - x) - u * x on [0, 1]."""

    s: float
    u: float

    def __post_init__(self) -> None:
        if self.s <= 0 or self.u < 0:
            raise ConfigError("SelectionMutation requires s > 0 and u >= 0")

    def mu(self, x):
        x = np.asarray(x, dtype=float)
        return self.s * x * (1.0 - x) - self.u * x

    def mu_over_x(self, x):
        x = np.asarray(x, dtype=float)
        return self.s * (1.0 - x) - self.u

    def scale_hint(self) -> float:
        return 1.0

    def default_structure(self) -> "DeclaredStructure":
        return DeclaredStructure(mu_concave=True, mu_subadditive=True)


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise polynomial on [0, upper): breakpoints 0 = b_0 < ... < b_m,
    one ascending-power coefficient tuple per piece.  The last piece extends
    to the domain's upper bound.  The constant term of the first piece must
    vanish so the function vanishes at 0.
    """

    breakpoints: tuple
    coefficients: tuple  # tuple of tuples, ascending powers

    def __post_init__(self) -> None:
        bp = tuple(float(b) for b in self.breakpoints)
        if len(bp) < 1 or bp[0] != 0.0 or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ConfigError("breakpoints must start at 0 and strictly increase")
        coefs = tuple(tuple(float(c) for c in piece) for piece in self.coefficients)
        if len(coefs) != len(bp):
            raise ConfigError("need exactly one coefficient tuple per breakpoint")
        if coefs[0] and coefs[0][0] != 0.0:
            raise ConfigError("first piece must have zero constant term (f(0) = 0)")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", coefs)

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        return np.clip(
            np.searchsorted(self.breakpoints, x, side="right") - 1,
            0,
            len(self.breakpoints) - 1,
        )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = self._piece_index(np.atleast_1d(x))
        out = np.zeros_like(np.atleast_1d(x))
        for i, piece in enumerate(self.coefficients):
            mask = idx == i
            if mask.any():
                out[mask] = np.polynomial.polynomial.polyval(
                    np.atleast_1d(x)[mask], np.asarray(piece)
                )
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])

    def over_x(self, x):
        """f(x)/x with the 0/0 limit taken on the first piece."""
        x = np.asarray(x, dtype=float)
        x1 = np.atleast_1d(x)
        idx = self._piece_index(x1)
        out = np.zeros_like(x1)
        for i, piece in enumerate(self.coefficients):
            mask = idx == i
            if not mask.any():
                continue
            if i == 0:
                shifted = np.asarray(piece[1:]) if len(piece) > 1 else np.zeros(1)
                out[mask] = np.polynomial.polynomial.polyval(x1[mask], shifted)
            else:
                out[mask] = np.polynomial.polynomial.polyval(
                    x1[mask], np.asarray(piece)
                ) / x1[mask]
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])


@dataclass(frozen=True)
class CustomDrift:
    """Piecewise-polynomial drift."""

    poly: PiecewisePolynomial

    def mu(self, x):
        return self.poly(x)

    def mu_over_x(self, x):
        return self.poly.over_x(x)

    def scale_hint(self) -> float:
        return max(1.0, self.poly.breakpoints[-1])

    def default_structure(self) -> "DeclaredStructure":
        return DeclaredStructure()


# ---------------------------------------------------------------------------
# diffusion families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearDiffusion:
    """sigma2(x) = 2 * beta * x."""

    beta: float

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ConfigError("LinearDiffusion requires beta > 0")

    def sigma2(self, x):
        return 2.0 * self.beta * np.asarray(x, dtype=float)

    def sigma2_over_x(self, x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, 2.0 * self.beta)

    def default_structure(self) -> "DeclaredStructure":
        return DeclaredStructure(
            sigma2_superadditive=True,
            sigma2_subadditive=True,
            sigma2_additive=True,
        )


@dataclass(frozen=True)
class PowerDiffusion:
    """sigma2(x) = c3 * x**kappa3 with kappa3 in [1, 2)."""

    c3: float
    kappa3: float

    def __post_init__(self) -> None:
        if self.c3 <= 0:
            raise ConfigError("PowerDiffusion requires c3 > 0")
        if not (1.0 <= self.kappa3):
            raise ConfigError("PowerDiffusion requires kappa3 >= 1")
        # kappa3 = 2 violates the boundary integrability assumption; it is
        # accepted here so validation can demonstrate the failure.

    def sigma2(self, x):
        x = np.asarray(x, dtype=float)
        return self.c3 * x**self.kappa3

    def sigma2_over_x(self, x):
        x = np.asarray(x, dtype=float)
        return self.c3 * x ** (self.kappa3 - 1.0)

    def default_structure(self) -> "DeclaredStructure":
        if self.kappa3 == 1.0:
            return DeclaredStructure(
                sigma2_superadditive=True,
                sigma2_subadditive=True,
                sigma2_additive=True,
            )
        return DeclaredStructure(sigma2_superadditive=True)


@dataclass(frozen=True)
class WrightFisher:
    """sigma2(x) = 2 * x * (1 - x) on [0, 1]."""

    def sigma2(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x * (1.0 - x)

    def sigma2_over_x(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * (1.0 - x)

    def default_structure(self) -> "DeclaredStructure":
        return DeclaredStructure(sigma2_subadditive=True)


@dataclass(frozen=True)
class CustomDiffusion:
    """Piecewise-polynomial squared diffusion coefficient."""

    poly: PiecewisePolynomial

    def sigma2(self, x):
        return self.poly(x)

    def sigma2_over_x(self, x):
        return self.poly.over_x(x)

    def default_structure(self) -> "DeclaredStructure":
        return DeclaredStructure()


# ---------------------------------------------------------------------------
# declared structure and the full spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeclaredStructure:
    """Structural properties a spec claims for functional-class gating."""

    mu_concave: bool = False
    mu_subadditive: bool = False
    sigma2_superadditive: bool = False
    sigma2_subadditive: bool = False
    sigma2_additive: bool = False

    def merged(self, other: "DeclaredStructure") -> "DeclaredStructure":
        return DeclaredStructure(
            **{k: getattr(self, k) or getattr(other, k) for k in self.__dataclass_fields__}
        )


DRIFT_FAMILIES = {
    "logistic": Logistic,
    "linear": LinearDrift,
    "power": PowerDrift,
    "selection_mutation": SelectionMutation,
    "custom": CustomDrift,
}

DIFFUSION_FAMILIES = {
    "linear": LinearDiffusion,
    "power": PowerDiffusion,
    "wright_fisher": WrightFisher,
    "custom": CustomDiffusion,
}


@dataclass(frozen=True)
class CoefficientSpec:
    """Bundle of drift, diffusion, domain, and declared structure."""

    drift: object
    diffusion: object
    domain: DomainInterval = field(default_factory=DomainInterval)
    structure: DeclaredStructure | None = None

    def __post_init__(self) -> None:
        if isinstance(self.drift, SelectionMutation) or isinstance(self.diffusion, WrightFisher):
            if self.domain.upper != 1.0:
                raise ConfigError(
                    "selection_mutation drift and wright_fisher diffusion require domain upper == 1"
                )
        if self.structure is None:
            merged = self.drift.default_structure().merged(
                self.diffusion.default_structure()
            )
            object.__setattr__(self, "structure", merged)

    # -- evaluation ---------------------------------------------------------

    def mu(self, x):
        return self.drift.mu(x)

    def sigma2(self, x):
        return self.diffusion.sigma2(x)

    def mu_over_x(self, x):
        return self.drift.mu_over_x(x)

    def sigma2_over_x(self, x):
        return self.diffusion.sigma2_over_x(x)

    def scale_hint(self) -> float:
        hint = self.drift.scale_hint()
        if self.domain.finite:
            hint = min(hint, self.domain.upper)
        return hint


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: {c.detail}")
        return "\n".join(lines)


def _probe_grid(spec: CoefficientSpec, n: int) -> np.ndarray:
    """Log-spaced interior probes, plus any custom-piece breakpoints."""
    scale = spec.scale_hint()
    if spec.domain.finite:
        hi = spec.domain.upper * (1.0 - 1e-9)
    else:
        hi = 10.0 * max(scale, 1.0)
    grid = np.geomspace(1e-9 * scale, hi, n)
    extra = []
    for fam in (spec.drift, spec.diffusion):
        poly = getattr(fam, "poly", None)
        if poly is not None:
            extra.extend(b for b in poly.breakpoints if 0.0 < b < hi)
    if extra:
        grid = np.unique(np.concatenate([grid, np.asarray(extra, dtype=float)]))
    return grid


def _tail_stable(values: np.ndarray, factor: float = 2.0) -> bool:
    """True unless the values are still growing at the grid's upper end.

    Compares the max over the last tenth of the grid against the max over
    the rest.  A bounded hump in the interior passes; persistent growth
    toward the end (x^2 drift slopes, sigma2 ~ y^3 over y + y^2) fails.
    """
    k = max(1, int(0.9 * len(values)))
    head = np.max(values[:k])
    tail = np.max(values[k:])
    return bool(tail <= factor * max(head, 1e-12))


def _cauchy_converges(integral_on, lowers, rtol: float = 0.05) -> bool:
    """True if integral_on(a) is Cauchy as a decreases toward 0."""
    vals = [integral_on(a) for a in lowers]
    if not all(np.isfinite(vals)):
        return False
    increments = [abs(v2 - v1) for v1, v2 in zip(vals, vals[1:])]
    scale = abs(vals[-1]) + 1e-12
    # increments must shrink and the last one must be negligible
    return increments[-1] <= rtol * scale and increments[-1] <= increments[0] + 1e-12


def validate_assumptions(spec: CoefficientSpec, probe_count: int = 2000, seed: int = 0) -> ValidationReport:
    """Probe the spec against the standing assumptions and declared structure.

    probe_count is the size of the log-spaced interior grid (at least 100).
    Grid-based: a pass is strong evidence, not a proof.
    """
    if probe_count < 100:
        raise ConfigError("probe_count must be at least 100")
    checks = []
    grid = _probe_grid(spec, probe_count)
    mu_g = spec.mu(grid)
    s2_g = spec.sigma2(grid)
    upper = spec.domain.upper

    # boundary at zero
    mu0, s20 = float(spec.mu(0.0)), float(spec.sigma2(0.0))
    checks.append(AssumptionCheck(
        "zero_boundary", mu0 == 0.0 and s20 == 0.0,
        f"mu(0)={mu0}, sigma2(0)={s20}"))

    # boundary at finite upper
    if spec.domain.finite:
        mu_u, s2_u = float(spec.mu(upper)), float(spec.sigma2(upper))
        ok = mu_u <= 1e-9 and abs(s2_u) <= 1e-9
        checks.append(AssumptionCheck(
            "upper_boundary", ok, f"mu({upper})={mu_u:.3g}, sigma2({upper})={s2_u:.3g}"))

    # interior positivity of sigma2
    checks.append(AssumptionCheck(
        "interior_positivity", bool(np.all(s2_g > 0.0)),
        f"min sigma2 on probes = {np.min(s2_g):.3g}"))

    # upward-Lipschitz drift: positive part of adjacent slopes must not blow
    # up toward the upper end of the grid
    slopes = np.diff(mu_g) / np.diff(grid)
    up = np.maximum(slopes, 0.0)
    lip_ok = _tail_stable(up)
    checks.append(AssumptionCheck(
        "drift_upward_lipschitz", lip_ok,
        f"max positive slope = {np.max(up):.3g}"))

    # diffusion growth sigma2(y) <= L (y + y^2)
    ratio = s2_g / (grid + grid**2)
    growth_ok = _tail_stable(ratio)
    checks.append(AssumptionCheck(
        "diffusion_growth", growth_ok,
        f"max sigma2/(y+y^2) = {np.max(ratio):.3g}"))

    # integrability of y/sigma2(y) at 0 (the boundary integral that rules
    # out sigma2 ~ y^2 near 0)
    eps = min(0.1 * spec.scale_hint(), 0.5 * upper if spec.domain.finite else np.inf)
    eps = min(eps, 0.1)

    def near_zero_integral(a: float) -> float:
        xs = np.geomspace(a, eps, 400)
        ys = xs / spec.sigma2(xs)
        return float(np.trapezoid(ys, xs))

    near_ok = _cauchy_converges(near_zero_integral, [1e-4, 1e-7, 1e-10, 1e-13])
    checks.append(AssumptionCheck(
        "integrability_near_zero", near_ok,
        f"int y/sigma2 on (a, {eps:.3g}) " + ("converges" if near_ok else "diverges")))

    # integrability of y/(sigma2(y) s(y)) up to the upper boundary.  Uses a
    # trapezoid estimate of H(y) = int_0^y 2(mu - t)/sigma2(t) dt
    # (validation-grade; the quadrature module owns the precise version).
    # Near a finite upper boundary the grid is taken in w = -log(upper - y),
    # which absorbs the h ~ 1/(upper - y) singularity of families that
    # vanish there (the Jacobian upper - y cancels it).
    def h_of(xs: np.ndarray) -> np.ndarray:
        return 2.0 * (spec.mu_over_x(xs) - 1.0) / spec.sigma2_over_x(xs)

    tiny = 1e-12 * spec.scale_hint()
    us = np.linspace(np.log(tiny), np.log(eps), 1500)
    H_eps = float(np.trapezoid(h_of(np.exp(us)) * np.exp(us), us))

    def upper_integral(b: float) -> float:
        if spec.domain.finite:
            ws = np.linspace(-np.log(upper - eps), -np.log(upper - b), 3000)
            xs = upper - np.exp(-ws)
            jac = upper - xs
            dH = h_of(xs) * jac
            H = H_eps + np.concatenate(
                [[0.0], np.cumsum(0.5 * (dH[1:] + dH[:-1]) * np.diff(ws))])
        else:
            xs = np.linspace(eps, b, 3000)
            hv = h_of(xs)
            H = H_eps + np.concatenate(
                [[0.0], np.cumsum(0.5 * (hv[1:] + hv[:-1]) * np.diff(xs))])
        logs = np.log(xs) - np.log(spec.sigma2(xs)) + H
        return float(np.trapezoid(np.exp(np.clip(logs, -700, 700)), xs))

    if spec.domain.finite:
        uppers = [upper * (1 - 10.0**-k) for k in (2, 4, 6, 8)]
    else:
        base = max(2.0, 2.0 * spec.scale_hint())
        uppers = [base * 2.0**k for k in range(4)]
    upper_ok = _cauchy_converges(upper_integral, uppers)
    checks.append(AssumptionCheck(
        "integrability_upper", upper_ok,
        "int y/(sigma2 s) toward upper " + ("converges" if upper_ok else "diverges")))

    # declared structure spot-checks on random pairs
    rng = np.random.default_rng(seed)
    span = upper if spec.domain.finite else 5.0 * max(spec.scale_hint(), 1.0)
    x = rng.uniform(0.0, span / 2, size=400)
    y = rng.uniform(0.0, span / 2, size=400)
    tol = 1e-9 * (1.0 + span + span**2)

    def spot(name: str, declared: bool, violation: np.ndarray) -> None:
        if not declared:
            return
        worst = float(np.max(violation))
        checks.append(AssumptionCheck(
            f"declared_{name}", worst <= tol, f"worst violation = {worst:.3g}"))

    st = spec.structure
    spot("mu_concave", st.mu_concave,
         (spec.mu(x) + spec.mu(y)) / 2 - spec.mu((x + y) / 2))
    spot("mu_subadditive", st.mu_subadditive,
         spec.mu(x + y) - spec.mu(x) - spec.mu(y))
    spot("sigma2_superadditive", st.sigma2_superadditive,
         spec.sigma2(x) + spec.sigma2(y) - spec.sigma2(x + y))
    spot("sigma2_subadditive", st.sigma2_subadditive,
         spec.sigma2(x + y) - spec.sigma2(x) - spec.sigma2(y))
    spot("sigma2_additive", st.sigma2_additive,
         np.abs(spec.sigma2(x + y) - spec.sigma2(x) - spec.sigma2(y)))

    return ValidationReport(tuple(checks))
