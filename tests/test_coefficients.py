"""Coefficient families: evaluation, ratios at 0, structure, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islandsim import (
    CoefficientSpec,
    ConfigError,
    CustomDrift,
    DomainInterval,
    LinearDiffusion,
    LinearDrift,
    Logistic,
    PiecewisePolynomial,
    PowerDiffusion,
    PowerDrift,
    SelectionMutation,
    WrightFisher,
    validate_assumptions,
)


def logistic_spec(gamma=1.0, K=1.0, beta=1.0):
    return CoefficientSpec(Logistic(gamma, K), LinearDiffusion(beta),
                           DomainInterval())


# -- evaluation ---------------------------------------------------------------

def test_logistic_values():
    d = Logistic(2.0, 3.0)
    assert d.mu(1.0) == pytest.approx(2.0 * 1.0 * (3.0 - 1.0))
    assert d.mu(0.0) == 0.0
    # ratio is finite and exact at the trap
    assert d.mu_over_x(0.0) == pytest.approx(2.0 * 3.0)


def test_linear_diffusion_is_2_beta_x():
    f = LinearDiffusion(0.7)
    x = np.array([0.0, 0.5, 2.0])
    assert np.allclose(f.sigma2(x), 2.0 * 0.7 * x)
    assert np.allclose(f.sigma2_over_x(x), 1.4)


def test_selection_mutation_and_wright_fisher_on_unit_interval():
    spec = CoefficientSpec(SelectionMutation(1.0, 1.0), WrightFisher(),
                           DomainInterval(1.0))
    assert spec.mu(1.0) == pytest.approx(-1.0)
    assert spec.sigma2(0.5) == pytest.approx(2.0 * 0.5 * 0.5)
    assert spec.sigma2(1.0) == 0.0
    assert spec.sigma2_over_x(0.0) == pytest.approx(2.0)


def test_unit_interval_families_reject_other_domains():
    with pytest.raises(ConfigError):
        CoefficientSpec(SelectionMutation(1.0, 0.0), LinearDiffusion(1.0),
                        DomainInterval())
    with pytest.raises(ConfigError):
        CoefficientSpec(LinearDrift(0.5), WrightFisher(), DomainInterval(2.0))


def test_power_families_validate_exponents():
    with pytest.raises(ConfigError):
        PowerDrift(1.0, 2.0, 1.0, 1.5)  # kappa2 <= kappa1
    with pytest.raises(ConfigError):
        PowerDiffusion(1.0, 0.5)  # kappa3 < 1
    d = PowerDrift(1.0, 1.0, 1.0, 2.0)
    assert d.mu(2.0) == pytest.approx(2.0 - 4.0)


def test_domain_guards():
    with pytest.raises(ConfigError):
        DomainInterval(0.0)


def test_piecewise_polynomial():
    # pieces x on [0,1) and x^2 on [1,inf), continuous at the join
    poly = PiecewisePolynomial(breakpoints=(0.0, 1.0),
                               coefficients=((0.0, 1.0), (0.0, 0.0, 1.0)))
    assert poly(0.5) == pytest.approx(0.5)
    assert poly(2.0) == pytest.approx(4.0)
    assert poly.over_x(2.0) == pytest.approx(2.0)
    d = CustomDrift(poly)
    assert d.mu(0.5) == pytest.approx(0.5)


# -- ratios match mu/x off the trap ------------------------------------------

@given(x=st.floats(min_value=1e-6, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_ratio_consistency_logistic(x):
    d = Logistic(1.3, 2.0)
    assert float(d.mu_over_x(x)) == pytest.approx(float(d.mu(x)) / x, rel=1e-12)


@given(x=st.floats(min_value=1e-6, max_value=0.999999))
@settings(max_examples=60, deadline=None)
def test_ratio_consistency_wright_fisher(x):
    f = WrightFisher()
    assert float(f.sigma2_over_x(x)) == pytest.approx(float(f.sigma2(x)) / x,
                                                      rel=1e-12)


# -- declared structure -------------------------------------------------------

def test_default_structure_merge():
    spec = logistic_spec()
    s = spec.structure
    assert s.mu_concave and s.mu_subadditive
    assert s.sigma2_superadditive and s.sigma2_subadditive and s.sigma2_additive


def test_wright_fisher_structure_is_subadditive_only():
    spec = CoefficientSpec(Logistic(1.0, 1.0), WrightFisher(),
                           DomainInterval(1.0))
    s = spec.structure
    assert s.sigma2_subadditive
    assert not s.sigma2_superadditive and not s.sigma2_additive


@given(x=st.floats(min_value=0.0, max_value=20.0),
       y=st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=80, deadline=None)
def test_logistic_drift_is_subadditive(x, y):
    # gamma x (K - x): mu(x+y) - mu(x) - mu(y) = -2 gamma x y <= 0
    d = Logistic(1.5, 2.0)
    assert float(d.mu(x + y)) <= float(d.mu(x)) + float(d.mu(y)) + 1e-9


@given(x=st.floats(min_value=0.0, max_value=20.0),
       y=st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=80, deadline=None)
def test_power_diffusion_superadditive_for_kappa_above_1(x, y):
    f = PowerDiffusion(1.0, 1.5)
    assert float(f.sigma2(x + y)) >= float(f.sigma2(x)) + float(f.sigma2(y)) - 1e-9


# -- assumption validation ----------------------------------------------------

def test_validation_passes_builtin_families():
    for spec in (logistic_spec(),
                 CoefficientSpec(LinearDrift(0.5), LinearDiffusion(1.0),
                                 DomainInterval()),
                 CoefficientSpec(SelectionMutation(1.0, 0.5), WrightFisher(),
                                 DomainInterval(1.0))):
        report = validate_assumptions(spec)
        assert report.passed, str(report)


def test_validation_flags_quadratic_diffusion():
    # sigma2(y) = y^2 breaks integrability of the speed measure at 0
    spec = CoefficientSpec(Logistic(1.0, 1.0), PowerDiffusion(1.0, 2.0),
                           DomainInterval())
    report = validate_assumptions(spec)
    assert not report.passed
    assert report.failures()


def test_validation_flags_false_concavity_claim():
    # convex drift x^2-ish declared concave via explicit structure
    poly = PiecewisePolynomial(breakpoints=(0.0,),
                               coefficients=((0.0, 0.0, 1.0),))
    from islandsim import DeclaredStructure
    spec = CoefficientSpec(CustomDrift(poly), LinearDiffusion(1.0),
                           DomainInterval(),
                           structure=DeclaredStructure(mu_concave=True))
    report = validate_assumptions(spec)
    assert not report.passed
    names = " ".join(c.name for c in report.failures())
    assert "concav" in names or "structure" in names
