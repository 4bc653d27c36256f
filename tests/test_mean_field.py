"""Synchronous mean-field particle ensembles and the tree duality bridge."""

import math

import numpy as np
import pytest

from islandsim import (
    CoefficientSpec,
    ConfigError,
    DomainError,
    DomainInterval,
    LinearDiffusion,
    LinearDrift,
    Logistic,
    TimeGrid,
    duality_gap,
    gamma_rho_cdf,
    sample_gamma_rho,
    simulate_mckean_vlasov,
    solve_rho,
)

# a RuntimeWarning from the engines (an overflow, a division by 0) fails
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def logistic_spec():
    return CoefficientSpec(Logistic(1.0, 1.0), LinearDiffusion(1.0),
                           DomainInterval())


def test_all_zero_stays_zero():
    g = TimeGrid(0.0, 0.5, 0.01)
    ens = simulate_mckean_vlasov(logistic_spec(), 0.0, 50, g, seed=1)
    assert np.all(ens.mean_curve == 0.0)
    assert np.all(ens.final_values == 0.0)


def test_point_mass_start_moments():
    g = TimeGrid(0.0, 0.2, 0.01)
    ens = simulate_mckean_vlasov(logistic_spec(), 0.7, 100, g, seed=2)
    assert ens.mean_curve[0] == pytest.approx(0.7)


def test_mean_is_conserved_without_reaction():
    # mu = 0: the interaction term (mean - Y) keeps the ensemble mean a
    # martingale, so the curve stays flat up to sqrt(n) fluctuation
    spec = CoefficientSpec(LinearDrift(0.0), LinearDiffusion(1.0),
                           DomainInterval())
    g = TimeGrid(0.0, 0.5, 2e-3)
    ens = simulate_mckean_vlasov(spec, 1.0, 4000, g, seed=3, boundary="exact")
    assert abs(ens.mean_curve[-1] - 1.0) < 0.05


def test_permutation_of_particle_keys_is_bit_exact():
    g = TimeGrid(0.0, 0.3, 0.01)
    n = 64
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    a = simulate_mckean_vlasov(logistic_spec(), 0.5, n, g, seed=4)
    b = simulate_mckean_vlasov(logistic_spec(), 0.5, n, g, seed=4,
                               particle_keys=[int(k) for k in perm])
    assert np.array_equal(a.mean_curve, b.mean_curve)
    assert not np.array_equal(a.final_values, b.final_values)
    assert np.array_equal(np.sort(a.final_values), np.sort(b.final_values))


def test_input_validation():
    g = TimeGrid(0.0, 0.2, 0.01)
    with pytest.raises(ConfigError):
        simulate_mckean_vlasov(logistic_spec(), 0.5, 1, g, seed=0)
    with pytest.raises(DomainError):
        simulate_mckean_vlasov(logistic_spec(), -0.5, 10, g, seed=0)
    with pytest.raises(ConfigError):
        simulate_mckean_vlasov(logistic_spec(), 0.5, 10, g, seed=0,
                               boundary="reflect")


def test_gamma_rho_is_invariant_for_the_mean_field_dynamics():
    # start iid from Gamma_rho and flow for t=1: the law must not move.
    # The plain clip scheme visibly fails this (sup-CDF gap ~0.05): the law
    # is singular at 0 and the clamp inflates exactly that region.
    sol = solve_rho(1.0, 1.0, 1.0)
    n = 8000
    g = TimeGrid(0.0, 1.0, 2e-3)
    ens = simulate_mckean_vlasov(
        logistic_spec(), lambda gen: sample_gamma_rho(sol, n, gen), n, g,
        seed=500, boundary="exact")
    fin = np.sort(ens.final_values)
    ecdf = np.arange(1, n + 1) / n
    cdf = np.asarray(gamma_rho_cdf(sol, fin))
    assert np.max(np.abs(ecdf - cdf)) < 0.03


# -- duality -----------------------------------------------------------------------

def _mc(seed=11, replicates=3000, n_part=300, dt=5e-3, t=0.5):
    return {"replicates": replicates, "n_part": n_part,
            "grid": TimeGrid(0.0, t, dt), "delta": 0.05, "seed": seed,
            "mv_replicates": 600}


def test_duality_t0_is_exact():
    lhs, rhs, se_l, se_r = duality_gap(1.0, 1.0, 1.0, 1.5, 0.8, 0.0, _mc())
    assert lhs == pytest.approx(math.exp(-1.5 * 0.8))
    assert rhs == pytest.approx(lhs)
    assert se_l == 0.0 and se_r == 0.0


def test_duality_zero_mass_side():
    lhs, rhs, _, _ = duality_gap(1.0, 1.0, 1.0, 0.0, 1.0, 0.25, _mc(t=0.25))
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


def test_duality_sides_agree_at_matched_budget():
    lhs, rhs, se_l, se_r = duality_gap(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, _mc())
    assert 0.0 < lhs < 1.0 and 0.0 < rhs < 1.0
    assert abs(lhs - rhs) <= 0.02 + 3.0 * (se_l + se_r)


@pytest.mark.parametrize("boundary", ["exact", "clip"])
def test_duality_particles_follow_the_boundary(boundary):
    # at (x, y, t) = (0.05, 1, 1) the mean-field law has mass near 0: clamped
    # particles overshoot E exp(-y M_t) by ~0.05, past the 0.02 + 3 SE budget,
    # while exact particles agree with the tree
    mc = {"replicates": 4000, "n_part": 2000, "mv_replicates": 6000,
          "grid": TimeGrid(0.0, 1.0, 2e-3), "delta": 0.02, "seed": 5,
          "boundary": boundary}
    lhs, rhs, se_l, se_r = duality_gap(1.0, 1.0, 1.0, 0.05, 1.0, 1.0, mc)
    within = abs(lhs - rhs) <= 0.02 + 3.0 * (se_l + se_r)
    assert within == (boundary == "exact")


def test_duality_lhs_decreases_in_x():
    lo = duality_gap(1.0, 1.0, 1.0, 0.5, 1.0, 0.5, _mc())[0]
    hi = duality_gap(1.0, 1.0, 1.0, 2.0, 1.0, 0.5, _mc())[0]
    assert hi < lo


@pytest.mark.parametrize("x, y, t", [(math.nan, 1.0, 0.5),
                                     (1.0, math.inf, 0.5),
                                     (1.0, 1.0, math.nan),
                                     (1.0, 1.0, -0.5)])
def test_duality_rejects_a_non_finite_or_negative_point(x, y, t):
    # a NaN x used to run and report NaN for both sides' gap
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        duality_gap(1.0, 1.0, 1.0, x, y, t, _mc())


@pytest.mark.parametrize("key, value", [("n_part", 1), ("mv_replicates", 0)])
def test_duality_rejects_too_few_particles(key, value):
    mc = dict(_mc(), **{key: value})
    with pytest.raises(ConfigError, match=key):
        duality_gap(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, mc)


def test_duality_grid_must_span_horizon():
    mc = _mc()
    with pytest.raises(ConfigError):
        duality_gap(1.0, 1.0, 1.0, 1.0, 1.0, 0.9, mc)
