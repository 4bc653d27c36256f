"""Scale machinery, extinction criterion, and the Gamma_rho law.

Anchor values come from closed forms derived independently of the code under
test (scale densities with elementary antiderivatives, exponential-integral
identities, the e-2 value for selection-mutation on [0,1]) or from scipy
routines, which the implementation does not use.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import exp1

from islandsim import (
    CoefficientSpec,
    CustomDrift,
    DivergenceError,
    DomainError,
    DomainInterval,
    LinearDiffusion,
    LinearDrift,
    Logistic,
    PiecewisePolynomial,
    RegimeError,
    SelectionMutation,
    WrightFisher,
    classify_regime,
    extinction_criterion,
    extinction_probability,
    gamma_rho_cdf,
    gamma_rho_pdf,
    logistic_criterion,
    sample_gamma_rho,
    scale_density,
    scale_function,
    solve_rho,
    speed_mass,
)
from islandsim import analytics
from islandsim.analytics import (_ABS_TOL, _REL_TOL, _log_gamma_rho_unnorm,
                                 _log_slice, _quad)


def feller():
    # dY = -Y dt + sqrt(2Y) dB: s(z)=e^z, S(y)=e^y-1, m(dy)=e^{-y}/y dy
    return CoefficientSpec(LinearDrift(0.0), LinearDiffusion(1.0),
                           DomainInterval())


def logistic_spec(gamma=1.0, K=1.0, beta=1.0):
    return CoefficientSpec(Logistic(gamma, K), LinearDiffusion(beta),
                           DomainInterval())


# -- scale function and density ------------------------------------------------

def test_scale_density_normalization_at_zero():
    for spec in (feller(), logistic_spec()):
        assert scale_density(spec, 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_scale_density_closed_forms():
    assert scale_density(feller(), 0.7) == pytest.approx(math.exp(0.7), rel=1e-8)
    # linear drift c: s(z) = e^{(1-c)z/beta}
    spec = CoefficientSpec(LinearDrift(0.5), LinearDiffusion(2.0),
                           DomainInterval())
    assert scale_density(spec, 1.3) == pytest.approx(
        math.exp(0.5 * 1.3 / 2.0), rel=1e-8)
    # logistic(1,1,1): s(z) = e^{z^2/2}
    assert scale_density(logistic_spec(), 1.1) == pytest.approx(
        math.exp(1.1 * 1.1 / 2.0), rel=1e-8)


def test_scale_function_closed_forms_and_slope():
    assert scale_function(feller(), 1.0) == pytest.approx(math.e - 1.0, rel=1e-8)
    spec = CoefficientSpec(LinearDrift(0.5), LinearDiffusion(1.0),
                           DomainInterval())
    y = 0.8
    assert scale_function(spec, y) == pytest.approx(
        2.0 * (math.exp(0.5 * y) - 1.0), rel=1e-8)
    # S(y)/y -> 1
    assert scale_function(logistic_spec(), 1e-6) / 1e-6 == pytest.approx(
        1.0, abs=1e-5)


def test_scale_function_to_infinity():
    # c = 2: s(z) = e^{-z/beta}, so S(inf) = beta; Feller's s(z) = e^z is not
    # integrable
    spec = CoefficientSpec(LinearDrift(2.0), LinearDiffusion(0.7),
                           DomainInterval())
    assert scale_function(spec, math.inf) == pytest.approx(0.7, rel=1e-8)
    with pytest.raises(DivergenceError):
        scale_function(feller(), math.inf)


def test_scale_function_increasing():
    spec = logistic_spec()
    ys = [0.2, 0.5, 1.0, 2.0]
    vals = [scale_function(spec, y) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_scale_outside_domain_raises():
    wf = CoefficientSpec(SelectionMutation(1.0, 0.0), WrightFisher(),
                         DomainInterval(1.0))
    with pytest.raises(DomainError):
        scale_function(wf, 1.5)


# -- speed measure --------------------------------------------------------------

def test_speed_mass_exponential_integral_oracle():
    spec = feller()
    for a, b in ((0.5, 1.0), (1.0, 2.0), (0.1, 4.0)):
        assert speed_mass(spec, a, b) == pytest.approx(
            float(exp1(a) - exp1(b)), rel=1e-7)


def test_speed_mass_to_infinity():
    assert speed_mass(feller(), 1.0, math.inf) == pytest.approx(
        float(exp1(1.0)), rel=1e-8)
    # logistic (1, 1) with beta 1: m(dy) = e^{-y^2/2} / y dy
    ref = integrate.quad(lambda y: math.exp(-0.5 * y * y) / y, 0.2, np.inf)[0]
    assert speed_mass(logistic_spec(), 0.2, math.inf) == pytest.approx(
        ref, rel=1e-8)
    assert math.isinf(speed_mass(logistic_spec(), 0.0, math.inf))


def test_speed_mass_additive_and_empty():
    spec = logistic_spec()
    assert speed_mass(spec, 0.7, 0.7) == 0.0
    whole = speed_mass(spec, 0.2, 1.5)
    assert whole == pytest.approx(
        speed_mass(spec, 0.2, 0.9) + speed_mass(spec, 0.9, 1.5), rel=1e-8)


def test_speed_mass_infinite_at_trap():
    # m(dy) ~ dy/y near 0 for linear diffusion: infinite mass on (0,b)
    assert math.isinf(speed_mass(feller(), 0.0, 1.0))


# -- extinction criterion --------------------------------------------------------

def test_criterion_feller_boundary_case():
    assert extinction_criterion(feller()) == pytest.approx(1.0, abs=1e-6)


def test_criterion_linear_drift_closed_form():
    # Theta = 1/(1-c) for mu(x)=cx, sigma2=2x, c<1
    for c in (0.5, -1.0, 0.9):
        spec = CoefficientSpec(LinearDrift(c), LinearDiffusion(1.0),
                               DomainInterval())
        assert extinction_criterion(spec) == pytest.approx(
            1.0 / (1.0 - c), rel=1e-6)


def test_criterion_logistic_closed_form_and_helper():
    theta = logistic_criterion(1.0, 1.0, 1.0)
    assert theta == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-6)
    assert extinction_criterion(logistic_spec()) == pytest.approx(theta,
                                                                  abs=1e-6)


def test_criterion_logistic_against_direct_quadrature():
    # independent oracle: integrate y m(dy) directly with a fixed cutoff
    gamma, K, beta = 2.0, 1.5, 0.7

    def integrand(y):
        H = ((gamma * K - 1.0) * y - gamma * y * y / 2.0) / beta
        return math.exp(H) / beta

    ref, _ = integrate.quad(integrand, 0.0, 60.0, limit=200)
    assert logistic_criterion(gamma, K, beta) == pytest.approx(ref, rel=1e-7)


def test_criterion_selection_mutation_wright_fisher():
    spec = CoefficientSpec(SelectionMutation(1.0, 1.0), WrightFisher(),
                           DomainInterval(1.0))
    assert extinction_criterion(spec) == pytest.approx(math.e - 2.0, abs=1e-6)


def test_criterion_sees_a_kink_past_the_first_tail_segment(monkeypatch):
    # mu = x/2 below 3 and 3 - x/2 above: h = mu/x - 1 kinks at 3, inside
    # the doubling segment [2, 4], and the integrand e^H is piecewise smooth
    spec = CoefficientSpec(
        CustomDrift(PiecewisePolynomial((0.0, 3.0), ((0.0, 0.5), (3.0, -0.5)))),
        LinearDiffusion(1.0), DomainInterval())

    def integrand(y):
        if y <= 3.0:
            return math.exp(-0.5 * y)
        return math.exp(-1.5 + 3.0 * math.log(y / 3.0) - 1.5 * (y - 3.0))

    ref = integrate.quad(integrand, 0.0, 3.0)[0] \
        + integrate.quad(integrand, 3.0, np.inf)[0]
    straddling = []

    def gk21(f, lo, hi):
        straddling.extend((a, b) for a, b in zip(lo, hi) if a < 3.0 < b)
        return gk21_plain(f, lo, hi)

    gk21_plain = analytics._gk21
    monkeypatch.setattr(analytics, "_gk21", gk21)
    assert extinction_criterion(spec) == pytest.approx(ref, rel=1e-8)
    assert straddling == []  # the kink is a panel edge on every segment


def test_criterion_divergent_case_raises():
    # mu(x)=x cancels the pull to 0: m(dy)=dy/y, Theta integral diverges
    spec = CoefficientSpec(LinearDrift(1.0), LinearDiffusion(1.0),
                           DomainInterval())
    with pytest.raises(DivergenceError):
        extinction_criterion(spec)


def test_classify_regime_threshold():
    assert classify_regime(1.0) == "extinction"
    assert classify_regime(0.2) == "extinction"
    assert classify_regime(1.0 + 1e-9) == "survival"


# -- Gamma_rho -------------------------------------------------------------------

@pytest.fixture(scope="module")
def sol():
    return solve_rho(1.0, 1.0, 1.0)


def test_solve_rho_anchors(sol):
    assert abs(sol.residual) < 1e-8
    assert sol.rho == pytest.approx(0.3992864450542077, abs=1e-6)
    assert sol.normalizer == pytest.approx(0.2296526192, abs=1e-6)


def test_gamma_rho_pdf_normalized(sol):
    total, _ = integrate.quad(lambda x: float(gamma_rho_pdf(sol, x)),
                              0.0, 40.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_gamma_rho_log_density_against_nested_quadrature(sol):
    # the per-term closed form of the inner integral vs direct quadrature
    gamma = K = beta = 1.0
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.05, 6.0, size=10):
        def integrand(z):
            return (sol.rho / beta) / z + (gamma * K - 1.0) / beta \
                - (gamma / beta) * z
        direct, _ = integrate.quad(integrand, K, float(x), limit=200)
        # strip the 1/(beta x) prefactor: what remains is the inner integral
        inner = float(_log_gamma_rho_unnorm(np.array([float(x)]), sol.rho,
                                            gamma, K, beta)[0]) \
            + math.log(beta * float(x))
        assert inner == pytest.approx(direct, abs=1e-9)


def test_gamma_rho_cdf_matches_pdf(sol):
    for x in (0.3, 1.0, 2.5):
        num, _ = integrate.quad(lambda u: float(gamma_rho_pdf(sol, u)),
                                0.0, x, limit=200)
        assert float(gamma_rho_cdf(sol, x)) == pytest.approx(num, abs=5e-6)


def test_gamma_rho_sampler_ks(sol):
    rng = np.random.default_rng(123)
    draws = sample_gamma_rho(sol, 20000, rng)
    res = stats.kstest(draws, lambda x: np.asarray(gamma_rho_cdf(sol, x)))
    assert res.pvalue > 0.01


def test_extinction_probability_curve(sol):
    assert extinction_probability(sol, 0.0) == pytest.approx(1.0)
    anchors = {0.5: 0.840706, 1.0: 0.735654, 2.0: 0.606060, 4.0: 0.476171}
    prev = 1.0
    for y, expected in anchors.items():
        p = extinction_probability(sol, y)
        assert p == pytest.approx(expected, abs=5e-6)
        assert p < prev
        prev = p


def test_solve_rho_requires_survival_regime():
    # gamma=K=1, beta=2 halves the criterion below 1
    assert logistic_criterion(1.0, 1.0, 2.0) < 1.0
    with pytest.raises(RegimeError):
        solve_rho(1.0, 1.0, 2.0)


# -- the quadrature rule ---------------------------------------------------------

def _vectorized(f):
    return lambda x: np.array([f(v) for v in np.asarray(x).tolist()])


def _close_to_quadpack(value, ref):
    assert abs(value - ref) <= 10.0 * max(_ABS_TOL, _REL_TOL * abs(ref))


def _kink(x):
    return abs(x - 0.3) ** 1.5 + math.sin(x)


@pytest.mark.parametrize("f, a, b, points", [
    (lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, 2.5, ()),
    (_kink, 0.0, 1.0, (0.3,)),
    (lambda x: math.exp(-x), 2.0, -1.0, ()),
    (lambda x: math.exp(5.0 * x - 1.5 * x * x), 4.0, 8.0, ()),
], ids=["smooth", "kink", "reversed", "tail"])
def test_quad_matches_quadpack(f, a, b, points):
    ref = integrate.quad(f, a, b, points=points or None, limit=200)[0]
    _close_to_quadpack(_quad(_vectorized(f), a, b, points), ref)


@pytest.mark.parametrize("f, a, b, points", [
    (lambda x: 1.0 / (1.0 + x * x), 0.5, math.inf, ()),
    (lambda x: math.exp(-abs(x - 2.0)) / (1.0 + x), 0.0, math.inf, (2.0,)),
    (lambda x: math.exp(-x * x) * math.cos(x), -math.inf, 0.3, ()),
    (lambda x: math.exp(-x * x), math.inf, 0.3, ()),
], ids=["upper_inf", "upper_inf_kink", "lower_inf", "reversed_inf"])
def test_quad_infinite_limits_match_quadpack(f, a, b, points):
    # QUADPACK takes no breakpoints on an infinite range: split at them
    lo, hi = min(a, b), max(a, b)
    edges = [lo, *points, hi]
    ref = sum(integrate.quad(f, u, v, limit=200)[0]
              for u, v in zip(edges, edges[1:]))
    if b < a:
        ref = -ref
    _close_to_quadpack(_quad(_vectorized(f), a, b, points), ref)


@pytest.mark.parametrize("f", [
    lambda y: math.exp(-y) * (1.0 + y),
    lambda y: y ** -0.5 if y else math.inf,
], ids=["finite_at_0", "singular_at_0"])
def test_log_slice_matches_quadpack(f):
    knee = 0.5
    ref = integrate.quad(f, 0.0, knee, limit=200)[0]
    _close_to_quadpack(_log_slice(_vectorized(f), knee), ref)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_quad_returns_a_non_finite_panel_at_once(bad):
    calls = []

    def f(x):
        calls.append(len(x))
        return np.where(x > 0.5, bad, 1.0)

    assert not math.isfinite(_quad(f, 0.0, 1.0))
    assert calls == [21]
