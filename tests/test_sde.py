"""SDE engines: grids, traps, determinism, boundary kernels, systems.

Statistical assertions run on fixed seeds with tolerances of at least four
standard errors, so they are deterministic in CI and still tight enough to
catch scheme-level bias (the failure modes these engines guard against are
tens of standard errors wide).
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from islandsim import (
    CoefficientSpec,
    ConfigError,
    DomainError,
    DomainInterval,
    LinearDiffusion,
    LinearDrift,
    Logistic,
    MigrationMatrix,
    PowerDiffusion,
    PowerDrift,
    SelectionMutation,
    TimeGrid,
    WrightFisher,
    export_path_csv,
    sample_system_stats,
    simulate_single,
    simulate_system,
    single_batch_stats,
)
from islandsim.sde import (_exact_inflow_substep, _exact_kernel, _report_nodes,
                           _single_path, _step, switch_level)
from islandsim.rng import substream
from islandsim.virgin_island import sample_tree_stats, total_mass_reducer

# a RuntimeWarning from the engines (an overflow, a division by 0) fails
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def feller():
    return CoefficientSpec(LinearDrift(0.0), LinearDiffusion(1.0),
                           DomainInterval())


def logistic_spec():
    return CoefficientSpec(Logistic(1.0, 1.0), LinearDiffusion(1.0),
                           DomainInterval())


# -- grid ----------------------------------------------------------------------

def test_time_grid_basics():
    g = TimeGrid(0.0, 1.0, 0.01)
    assert g.n_steps == 100
    t = g.times()
    assert t[0] == 0.0 and t[-1] == pytest.approx(1.0)
    assert g.node_of(0.25) == 25
    with pytest.raises(ConfigError):
        g.node_of(0.2513)


def test_time_grid_rejects_bad_setup():
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 1.0, -0.1)
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 0.5, 0.01)
    with pytest.raises(ConfigError, match="one step"):
        TimeGrid(0.0, 1e-9, 1.0)  # rounds to 0 steps


@pytest.mark.parametrize("t0, horizon, dt", [
    (0.0, math.inf, 0.01), (0.0, math.nan, 0.01), (0.0, 1.0, math.nan),
    (0.0, 1.0, math.inf), (math.nan, 1.0, 0.01), (-math.inf, 1.0, 0.01)])
def test_time_grid_rejects_non_finite_values(t0, horizon, dt):
    with pytest.raises(ConfigError, match="finite"):
        TimeGrid(t0, horizon, dt)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_time_grid_node_of_rejects_non_finite_times(t):
    with pytest.raises(ConfigError, match="not on the grid"):
        TimeGrid(0.0, 1.0, 0.01).node_of(t)


# -- single island --------------------------------------------------------------

@pytest.mark.parametrize("boundary", ["exact", "bridge", "clip"])
def test_zero_is_a_trap(boundary):
    g = TimeGrid(0.0, 0.5, 0.01)
    p = simulate_single(logistic_spec(), 0.0, g, seed=5, boundary=boundary)
    assert np.all(p.values == 0.0)


def test_single_determinism_and_seed_sensitivity():
    g = TimeGrid(0.0, 0.5, 0.01)
    a = simulate_single(logistic_spec(), 0.8, g, seed=11)
    b = simulate_single(logistic_spec(), 0.8, g, seed=11)
    c = simulate_single(logistic_spec(), 0.8, g, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_single_rejects_bad_inputs():
    g = TimeGrid(0.0, 0.5, 0.01)
    with pytest.raises(DomainError):
        simulate_single(logistic_spec(), -1.0, g, seed=0)
    with pytest.raises(ConfigError):
        simulate_single(logistic_spec(), 1.0, g, seed=0, boundary="midpoint")


def test_path_helpers():
    g = TimeGrid(0.0, 1.0, 0.25)
    p = __import__("islandsim").Path(g, np.array([1.0, 2.0, 1.0, 0.0, 0.0]))
    assert p.value_at(0.125) == pytest.approx(1.5)
    assert p.peak() == 2.0
    assert p.extinction_time() == pytest.approx(0.75)
    assert p.area() == pytest.approx(0.25 * (1.5 + 1.5 + 0.5 + 0.0))


def test_single_ops_storage_guard_raises_before_allocating():
    g = TimeGrid(0.0, 1.0, 1e-8)  # 1e8 nodes = 800 MB
    with pytest.raises(ConfigError, match="too large"):
        simulate_single(logistic_spec(), 0.5, g, seed=0)


def test_scalar_exact_branch_matches_the_vector_kernel():
    # one _single_path step below the switch level is the scalar form of
    # _exact_inflow_substep with inflow 0: the same draws, values to 1e-12
    wf = CoefficientSpec(SelectionMutation(0.6, 0.2), WrightFisher(),
                         DomainInterval(1.0))
    dt = 2e-3
    for spec in (feller(), logistic_spec(), wf):
        y_switch = switch_level(dt, None, spec.domain.upper)
        for i, x in enumerate(np.linspace(1e-4, y_switch, 40, endpoint=False)):
            gen, ref_gen = substream(55, i), substream(55, i)
            values, _ = _single_path(spec, x, dt, 1, gen, "exact")
            ref = np.minimum(_exact_inflow_substep(
                ref_gen, np.array([x]), 0.0, spec.mu_over_x(np.array([x])),
                spec.sigma2_over_x(np.array([x])), dt), spec.domain.upper)[0]
            assert values[1] == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert gen.random() == ref_gen.random()


def test_finite_domain_clamp():
    spec = CoefficientSpec(SelectionMutation(2.0, 0.1), WrightFisher(),
                           DomainInterval(1.0))
    g = TimeGrid(0.0, 2.0, 0.01)
    p = simulate_single(spec, 0.9, g, seed=3)
    assert np.all(p.values <= 1.0) and np.all(p.values >= 0.0)


# -- batch single-island stats ---------------------------------------------------

def test_hit_probability_matches_scale_ratio():
    # P^eps(reach level before 0) = S(eps)/S(level); S from the closed-form
    # logistic scale density integrated with an independent quadrature
    spec = logistic_spec()
    eps, level = 0.05, 0.5

    def S(y):
        val, _ = integrate.quad(lambda z: math.exp(0.5 * z * z), 0.0, y)
        return val

    target = S(eps) / S(level)
    st_ = single_batch_stats(spec, eps, dt=1e-3, seed=101, replicates=20000,
                             tag=1, max_steps=20000, stop_level=level)
    phat = st_.hit.mean()
    se = math.sqrt(phat * (1.0 - phat) / st_.hit.size)
    assert st_.censored == 0
    assert abs(phat - target) < 4.0 * se


@pytest.mark.parametrize("boundary", ["exact", "bridge"])
def test_mean_absorbed_area_is_initial_mass(boundary):
    # dY = -Y dt + sqrt(2Y) dB from x0: E[int_0^T0 Y dt] = x0 exactly
    st_ = single_batch_stats(feller(), 0.5, dt=2e-3, seed=77,
                             replicates=30000, tag=2, max_steps=30000,
                             boundary=boundary)
    mean = st_.area.mean()
    se = st_.area.std(ddof=1) / math.sqrt(st_.area.size)
    assert st_.censored == 0
    assert abs(mean - 0.5) < 4.0 * se + 0.002  # + O(dt) trapezoid allowance


def test_batch_determinism():
    a = single_batch_stats(logistic_spec(), 0.3, dt=0.01, seed=5,
                           replicates=500, tag=3, max_steps=500)
    b = single_batch_stats(logistic_spec(), 0.3, dt=0.01, seed=5,
                           replicates=500, tag=3, max_steps=500)
    assert np.array_equal(a.area, b.area)
    assert np.array_equal(a.hit, b.hit)


@pytest.mark.parametrize("boundary", ["exact", "bridge", "clip"])
def test_batch_peak_tracks_the_path(boundary):
    x0, level = 0.3, 0.6
    free = single_batch_stats(logistic_spec(), x0, dt=0.01, seed=5,
                              replicates=500, tag=3, max_steps=500,
                              boundary=boundary)
    assert free.peak.max() > x0
    stopped = single_batch_stats(logistic_spec(), x0, dt=0.01, seed=5,
                                 replicates=500, tag=3, max_steps=500,
                                 stop_level=level, boundary=boundary)
    assert stopped.hit.any() and stopped.peak[~stopped.hit].max() > x0
    assert np.all(stopped.peak[~stopped.hit] < level)


@pytest.mark.parametrize("boundary", ["exact", "bridge", "clip"])
def test_absorbing_step_draws_nothing_for_absorbed(boundary):
    # inserting absorbed components leaves the live outputs and the stream
    # position unchanged
    spec, dt, level = logistic_spec(), 1e-3, 0.5
    live = substream(3, 1).uniform(0.0, 0.45, 400)
    padded = np.zeros(1000)
    at = np.sort(substream(3, 2).choice(1000, live.size, replace=False))
    padded[at] = live
    gen, ref_gen = substream(3, 3), substream(3, 3)
    new, crossed = _step(spec, padded, dt, gen, boundary, stop_level=level)
    ref, ref_crossed = _step(spec, live, dt, ref_gen, boundary,
                             stop_level=level)
    assert np.array_equal(new[at], ref)
    assert np.array_equal(crossed[at], ref_crossed)
    assert not new[np.setdiff1d(np.arange(1000), at)].any()
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("boundary", ["exact", "bridge", "clip"])
def test_step_with_inflow_draws_for_entrance_points_only(boundary):
    # with an inflow array, components at 0 with inflow > 0 (entrance
    # points) are stepped and those at 0 with inflow 0 take no draw: the
    # live outputs and the stream position match a run on the live subset
    spec, dt = logistic_spec(), 1e-3
    v = substream(4, 1).uniform(0.0, 0.45, 1000)
    a = substream(4, 2).uniform(0.1, 2.0, 1000)
    # 0: absorbed, 1: entrance point, 2: no inflow, 3: mass and inflow
    kind = substream(4, 3).integers(0, 4, 1000)
    v[kind <= 1] = 0.0
    a[kind % 2 == 0] = 0.0
    live = kind > 0
    gen, ref_gen = substream(4, 5), substream(4, 5)
    new, crossed = _step(spec, v, dt, gen, boundary, a)
    ref, _ = _step(spec, v[live], dt, ref_gen, boundary, a[live])
    assert crossed is None
    assert np.array_equal(new[live], ref)
    assert not new[kind == 0].any()
    assert np.all(new[kind == 1] > 0.0)
    assert gen.random() == ref_gen.random()


# -- the vector step against its masked reference ------------------------------
#
# `_masked_kernel` and `_masked_step` write every test of the exact kernel and
# the Euler step out on whole arrays, guarded by np.where: the general kernel
# on 0-d and array ratios alike, three separate kill conditions (w <= 0, no
# diffusion, the bridge probability) and a crossing test masked to w < level.
# `_exact_kernel` and `_step` take shortcuts (scalar constants for 0-d ratios,
# one bridge test); they must give the same bits on the same stream.

def _masked_kernel(gen, old, inflow, mu_x, s2_x, dt):
    b = 1.0 - mu_x
    c = s2_x
    bdt = np.minimum(np.maximum(b * dt, -50.0), 50.0)
    neg = -bdt
    em = -np.expm1(neg)
    small = np.abs(bdt) < 1e-10
    if small.any():
        f = np.where(small, c * dt * 0.25 * (1.0 - 0.5 * bdt),
                     c * em / np.where(small, 1.0, 4.0 * b))
    else:
        f = c * em / (4.0 * b)
    decay = old * np.exp(neg)
    ok = c > 0.0
    if ok.all():
        f2 = 2.0 * f
        k = gen.poisson(decay / f2)
        return gen.gamma(2.0 * inflow / c + k, f2)
    ode = decay + inflow * np.where(small, dt * (1.0 - 0.5 * bdt),
                                    em / np.where(small, 1.0, b))
    f_safe = np.where(ok, f, 1.0)
    k = gen.poisson(np.where(ok, decay / (2.0 * f_safe), 0.0))
    shape = np.where(ok, 2.0 * inflow / np.where(ok, c, 1.0), 0.0) + k
    return np.where(ok, gen.gamma(shape, 2.0 * f_safe), ode)


def _masked_step(spec, v, dt, gen, boundary, inflow=None, stop_level=None):
    upper = spec.domain.upper
    y_switch = switch_level(dt, stop_level, upper) if boundary == "exact" \
        else 0.0
    flat = v.ravel()
    live = flat > 0.0
    if inflow is not None and np.ndim(inflow) > 0:
        inflow = np.broadcast_to(inflow, v.shape).ravel()
        live |= inflow > 0.0
    elif inflow is not None and inflow > 0.0:
        live[:] = True
    below = flat < y_switch
    lo, hi = (live & below).nonzero()[0], (live & ~below).nonzero()[0]
    a_hi = a_lo = 0.0 if inflow is None else inflow
    if np.ndim(inflow) > 0:
        a_hi, a_lo = inflow[hi], inflow[lo]
    new = np.zeros(flat.shape)
    up = np.zeros(flat.shape, dtype=bool)
    if hi.size:
        vh = flat[hi]
        s2 = spec.sigma2(vh)
        noise = gen.standard_normal(hi.size)
        w = vh + (a_hi - vh + spec.mu(vh)) * dt + np.sqrt(s2 * dt) * noise
        w = np.minimum(w, upper)
        if inflow is None and boundary != "clip":
            u = gen.random(hi.size)
            s2dt = s2 * dt
            ok = s2dt > 0.0
            safe = np.where(ok, s2dt, 1.0)
            dead = (w <= 0.0) | (u < np.where(
                ok & (w > 0.0), np.exp(-2.0 * vh * np.maximum(w, 0.0) / safe),
                0.0))
            if stop_level is not None:
                up[hi] = inside = u < np.where(ok & (w < stop_level), np.exp(
                    -2.0 * (stop_level - vh) * (stop_level - w) / safe), 0.0)
                dead &= ~(inside | (w >= stop_level))
            w = np.where(dead, 0.0, w)
        new[hi] = np.maximum(w, 0.0)
    if lo.size:
        x = _masked_kernel(gen, flat[lo], a_lo, spec.mu_over_x(flat[lo]),
                           spec.sigma2_over_x(flat[lo]), dt)
        new[lo] = np.minimum(x, upper)
    new = new.reshape(v.shape)
    if stop_level is None:
        return new, None
    return new, up.reshape(v.shape) | (new >= stop_level)


_REFERENCE_SPECS = {
    "feller": feller(),                      # 0-d ratios
    "feller_b0": CoefficientSpec(LinearDrift(1.0), LinearDiffusion(1.0)),
    "logistic": logistic_spec(),
    "power": CoefficientSpec(PowerDrift(1.0, 1.0, 1.0, 2.0),
                             PowerDiffusion(1.0, 1.5)),
    "wright_fisher": CoefficientSpec(SelectionMutation(0.6, 0.2),
                                     WrightFisher(), DomainInterval(1.0)),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_SPECS))
@pytest.mark.parametrize("boundary", ["exact", "bridge", "clip"])
@pytest.mark.parametrize("inflow", [None, "scalar", "per_component"])
@pytest.mark.parametrize("stop_level", [None, 2e-3, 0.5, 2.0])
def test_step_equals_the_masked_reference_bit_for_bit(name, boundary, inflow,
                                                      stop_level):
    # states at 0, near it, around the switch level, past the stopping
    # level and, for Wright-Fisher, at upper = 1 where sigma2 vanishes; a
    # level of 2e-3 leaves paths past it in reach of 0, one past upper
    # keeps Wright-Fisher's sigma2 = 0 states below it
    spec, dt = _REFERENCE_SPECS[name], 2e-3
    v = np.tile([0.0, 1e-4, 2e-3, 0.05, 0.079, 0.08, 0.2, 0.45, 0.6, 0.99,
                 1.0], 30)
    a = {None: None, "scalar": 0.3,
         "per_component": np.linspace(0.0, 0.5, v.size)}[inflow]
    gen, ref_gen = substream(61, 1), substream(61, 1)
    new = ref = v
    for _ in range(25):
        new, crossed = _step(spec, new, dt, gen, boundary, a, stop_level)
        ref, ref_crossed = _masked_step(spec, ref, dt, ref_gen, boundary, a,
                                        stop_level)
        assert np.array_equal(new, ref)
        assert np.array_equal(crossed, ref_crossed)
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("mu_x, s2_x", [
    (np.float64(0.0), np.float64(2.0)),      # Feller: the scalar constants
    (np.float64(1.0), np.float64(2.0)),      # |b dt| < 1e-10
    (np.float64(0.3), np.float64(0.0)),      # c <= 0: the drift ODE
    (np.float64(-60.0), np.float64(1.0)),    # b dt = 61 clipped to 50 at dt 1
    (None, None),                            # array ratios
])
@pytest.mark.parametrize("inflow", [0.0, 0.4, "per_component"])
def test_exact_kernel_equals_the_masked_reference_bit_for_bit(mu_x, s2_x,
                                                              inflow):
    old = substream(62, 1).uniform(0.0, 0.1, 300)
    if mu_x is None:
        mu_x, s2_x = 1.0 - 10.0 * old, np.where(old < 0.05, 2.0, 0.0)
    a = np.linspace(0.0, 0.5, old.size) if inflow == "per_component" \
        else inflow
    gen, ref_gen = substream(62, 2), substream(62, 2)
    for dt in (1e-3, 1.0):
        new = _exact_kernel(gen, old, a, mu_x, s2_x, dt)
        ref = _masked_kernel(ref_gen, old, a, mu_x, s2_x, dt)
        assert np.array_equal(new, ref)
    assert gen.random() == ref_gen.random()


def test_censoring_counted():
    st_ = single_batch_stats(logistic_spec(), 1.0, dt=0.01, seed=5,
                             replicates=200, tag=4, max_steps=5)
    assert st_.censored > 0


# -- exact boundary kernels -------------------------------------------------------

def test_switch_level_bounds():
    assert switch_level(1e-3) == pytest.approx(0.04)
    assert switch_level(1e-3, stop_level=0.01) == pytest.approx(0.005)
    assert switch_level(1.0, upper=1.0) == pytest.approx(0.25)


def test_inflow_kernel_stationary_gamma_law():
    # dY = (a - bY) dt + sqrt(cY) dB is Gamma(2a/c, c/(2b)) in equilibrium;
    # the kernel is exact for this model, so coarse steps must reproduce it
    a, b, c = 0.6, 1.0, 2.0
    gen = substream(999, 42)
    n = 4096
    y = np.full(n, 0.5)
    mu_ratio = np.full(n, 1.0 - b)   # kernel linearizes b = 1 - mu(x)/x
    s2_ratio = np.full(n, c)
    inflow = np.full(n, a)
    for _ in range(40):
        y = _exact_inflow_substep(gen, y, inflow, mu_ratio, s2_ratio, 0.5)
    res = stats.kstest(y, stats.gamma(2.0 * a / c, scale=c / (2.0 * b)).cdf)
    assert res.pvalue > 0.01


def test_inflow_kernel_zero_inflow_absorbs():
    gen = substream(7, 43)
    y = np.full(20000, 0.02)
    zero = np.zeros_like(y)
    out = _exact_inflow_substep(gen, y, zero, np.zeros_like(y),
                                np.full_like(y, 2.0), 0.05)
    # positive absorption atom, and no negative values
    assert np.mean(out == 0.0) > 0.5
    assert np.all(out >= 0.0)


def _draw_every_component(gen, old, inflow, mu_x, s2_x, dt):
    # reference: the kernel formulas with a Poisson and a Gamma draw for
    # every component, absorbed ones included
    b = 1.0 - mu_x
    c = s2_x
    bdt = np.clip(b * dt, -50.0, 50.0)
    em = -np.expm1(-bdt)
    small = np.abs(bdt) < 1e-10
    f = np.where(small, c * dt * 0.25 * (1.0 - 0.5 * bdt),
                 c * em / np.where(small, 1.0, 4.0 * b))
    decay = old * np.exp(-bdt)
    ode = decay + inflow * np.where(small, dt * (1.0 - 0.5 * bdt),
                                    em / np.where(small, 1.0, b))
    ok = c > 0.0
    f_safe = np.where(ok, f, 1.0)
    k = gen.poisson(np.where(ok, decay / (2.0 * f_safe), 0.0))
    shape = np.where(ok, 2.0 * inflow / np.where(ok, c, 1.0), 0.0) + k
    return np.where(ok, gen.gamma(shape, 2.0 * f_safe), ode)


def test_inflow_kernel_skips_absorbed_without_moving_the_stream():
    # Absorbed components (old == 0, inflow == 0) are not drawn for; this is
    # invisible only because numpy's Poisson(0) and Gamma(shape 0) return 0
    # without consuming bits.  Pin that: same values and same stream state as
    # a reference that draws for every component.
    setup = substream(2024, 45)
    n = 6000
    kind = setup.integers(0, 6, n)
    old = np.where(kind == 0, 0.0, setup.uniform(0.0, 0.04, n))  # absorbed
    old[kind == 1] = 0.0                                         # entrance
    old[kind == 2] = setup.uniform(0.1, 3.0, (kind == 2).sum())  # Euler range
    inflow = np.where(kind == 0, 0.0, setup.uniform(0.0, 2.0, n))
    inflow[kind == 3] = 0.0
    mu_x = setup.uniform(-2.0, 0.5, n)
    mu_x[kind == 4] = 1.0                                        # b dt = 0
    s2_x = setup.uniform(0.5, 3.0, n)
    s2_x[kind == 5] = setup.choice([0.0, -1.0], (kind == 5).sum())  # c <= 0
    s2_x[(kind == 0) & (setup.random(n) < 0.3)] = 0.0
    for dt in (1e-3, 0.05):
        gen, ref_gen = substream(77, 46), substream(77, 46)
        out = _exact_inflow_substep(gen, old, inflow, mu_x, s2_x, dt)
        ref = _draw_every_component(ref_gen, old, inflow, mu_x, s2_x, dt)
        assert np.array_equal(out, ref)
        assert gen.random() == ref_gen.random()
        assert np.all(out[kind == 0] == 0.0)
        assert np.any(out[kind == 1] > 0.0)


@pytest.mark.parametrize("top", [-1.0, -8.0])
def test_inflow_kernel_broadcast_ratios_match_full_ratios(top):
    # the level split passes island ratios of shape (r, 1, islands) against
    # states (r, levels, islands); tiny island totals take the small-|b dt|
    # series, which must land on every level of its island and nowhere
    # else: the same values and draws as the flat reference formulas on fully
    # broadcast ratios.  top -1 leaves few totals tiny (the series on an index subset), top -8
    # most of them (one masked pass)
    setup = substream(2024, 48)
    v = 10.0 ** setup.uniform(-12.0, top, (50, 4, 6))
    inflow = setup.uniform(0.1, 1.0, v.shape)
    tot = v.sum(axis=-2, keepdims=True)
    spec = logistic_spec()
    mu_x, s2_x = spec.mu_over_x(tot), spec.sigma2_over_x(tot)
    assert np.any(np.abs(1.0 - mu_x) * 2e-3 < 1e-10)
    gen, ref_gen = substream(77, 48), substream(77, 48)
    out = _exact_inflow_substep(gen, v, inflow, mu_x, s2_x, 2e-3)
    ref = _draw_every_component(ref_gen, v.ravel(), inflow.ravel(),
                                np.broadcast_to(mu_x, v.shape).ravel(),
                                np.broadcast_to(s2_x, v.shape).ravel(), 2e-3)
    assert np.array_equal(out, ref.reshape(v.shape))
    assert gen.random() == ref_gen.random()


def test_inflow_kernel_zero_inflow_rows():
    # the zero-inflow cases: 0 stays 0 whatever c is, and c <= 0 decays to
    # old * e^{-b dt} exactly
    gen = substream(7, 47)
    old = np.array([0.0, 0.0, 0.01, 0.02, 0.03])
    mu_x = np.array([0.3, 0.3, 0.3, -0.5, 0.3])
    s2_x = np.array([2.0, 0.0, 0.0, -1.0, 2.0])
    dt = 0.01
    out = _exact_inflow_substep(gen, old, 0.0, mu_x, s2_x, dt)
    assert out[0] == 0.0 and out[1] == 0.0
    assert np.array_equal(out[2:4], old[2:4] * np.exp(-(1.0 - mu_x[2:4]) * dt))
    assert out[4] >= 0.0


def test_inflow_kernel_degenerate_diffusion_is_ode():
    gen = substream(7, 44)
    y = np.array([1.0])
    out = _exact_inflow_substep(gen, y, np.array([0.3]), np.array([0.0]),
                                np.array([0.0]), 0.1)
    # c = 0: exact ODE step of dY = (a - Y) dt
    expected = 1.0 * math.exp(-0.1) + 0.3 * (1.0 - math.exp(-0.1))
    assert out[0] == pytest.approx(expected, rel=1e-12)


# -- systems ----------------------------------------------------------------------

def test_migration_matrix_validation():
    with pytest.raises(ConfigError):
        MigrationMatrix(np.array([[0.5, 0.6], [0.0, 0.5]]))  # row sum > 1
    with pytest.raises(ConfigError):
        MigrationMatrix(np.array([[-0.1, 0.5], [0.5, 0.5]]))
    with pytest.raises(ConfigError):
        MigrationMatrix(np.ones((2, 3)))
    m = MigrationMatrix.uniform(4)
    assert m.n_islands == 4


def test_uniform_system_shapes_and_trap():
    g = TimeGrid(0.0, 0.5, 0.01)
    p = simulate_system(logistic_spec(), 3, 0.0, np.zeros(3), g, seed=1)
    assert p.values.shape == (g.n_steps + 1, 3)
    assert np.all(p.values == 0.0)  # no mass, no immigration


@pytest.mark.parametrize("mode", ["unsplit", "levels", "loop_free"])
@pytest.mark.parametrize("topology", [3, MigrationMatrix.uniform(3)],
                         ids=["count", "matrix"])
def test_system_determinism(topology, mode):
    g = TimeGrid(0.0, 0.5, 0.01)
    x0 = np.array([0.5, 0.2, 0.0])
    a = simulate_system(logistic_spec(), topology, 0.0, x0, g, seed=9,
                        mode=mode, k_max=2)
    b = simulate_system(logistic_spec(), topology, 0.0, x0, g, seed=9,
                        mode=mode, k_max=2)
    assert np.array_equal(a.values, b.values)
    total = a.total() if mode == "unsplit" else a.unsplit().total()
    assert total.shape == (g.n_steps + 1,)


def test_level_system_levels_sum_to_plausible_total():
    g = TimeGrid(0.0, 1.0, 0.01)
    p = simulate_system(logistic_spec(), 4, 1.0, np.zeros(4), g, seed=13,
                        mode="levels", k_max=3)
    assert p.values.shape == (g.n_steps + 1, 4, 4)
    assert np.all(p.values >= 0.0)
    assert p.dropped_mass >= 0.0


def test_loop_free_drops_mass_at_cap():
    g = TimeGrid(0.0, 1.0, 0.01)
    p = simulate_system(logistic_spec(), 4, 1.0, np.zeros(4), g, seed=14,
                        mode="loop_free", k_max=0)
    assert p.dropped_mass > 0.0


def test_level_sums_stay_in_a_bounded_domain():
    # each level is capped at 1 on its own, so without the level-sum cap an
    # island's total overshoots 1 and the Wright-Fisher sigma2 turns negative
    spec = CoefficientSpec(SelectionMutation(0.6, 0.2), WrightFisher(),
                           DomainInterval(1.0))
    g = TimeGrid(0.0, 0.3, 2e-3)
    x0 = np.array([0.05, 0.0, 0.99, 0.002])
    p = simulate_system(spec, 4, 0.5, x0, g, seed=3, mode="levels", k_max=3)
    sums = p.values.sum(axis=1)
    assert not np.isnan(p.values).any() and sums.max() <= 1.0
    red = {"max": lambda b: b.max(axis=1)}
    res = sample_system_stats(spec, 4, 0.5, x0, g, 3, 70,
                              range(g.n_steps + 1), red, tag=1,
                              mode="levels", k_max=3)
    assert not np.isnan(res["max"]).any()
    assert res["max"].max() <= 1.0


def test_system_storage_guard_raises_before_allocating():
    g = TimeGrid(0.0, 1.0, 1e-4)  # 10 001 nodes x 10 000 islands = 800 MB
    with pytest.raises(ConfigError, match="too large"):
        simulate_system(logistic_spec(), 10_000, 0.0, np.zeros(10_000), g,
                        seed=0)


def test_batch_engines_report_a_repeated_node_once():
    g = TimeGrid(0.0, 0.1, 0.01)
    assert _report_nodes([5, 0, 5], g) == [0, 5]
    with pytest.raises(ConfigError):
        _report_nodes([g.n_steps + 1], g)
    red = {"m": lambda b: b.sum(axis=1)}
    kw = dict(grid=g, seed=1, replicates=100, reducers=red, tag=1)
    twice = sample_system_stats(logistic_spec(), 3, 0.0, np.full(3, 0.2),
                                report_nodes=[5, 5, 0], **kw)["m"]
    once = sample_system_stats(logistic_spec(), 3, 0.0, np.full(3, 0.2),
                               report_nodes=[0, 5], **kw)["m"]
    assert np.array_equal(twice, once)
    tkw = dict(grid=g, seed=1, replicates=100, tag=1,
               reducers={"V": total_mass_reducer})
    twice = sample_tree_stats(logistic_spec(), (0.2,), 0.0, 0.1,
                              report_nodes=[5, 5], **tkw)["V"]
    once = sample_tree_stats(logistic_spec(), (0.2,), 0.0, 0.1,
                             report_nodes=[5], **tkw)["V"]
    assert twice.shape == (1, 100) and np.array_equal(twice, once)


def test_system_stats_validation():
    g = TimeGrid(0.0, 0.5, 0.01)
    with pytest.raises(ConfigError):
        sample_system_stats(logistic_spec(), 3, 0.0, np.zeros(2), g, 1, 100,
                            [g.n_steps], {"m": lambda b: b.sum(axis=1)}, tag=1)
    with pytest.raises(ConfigError):
        sample_system_stats(logistic_spec(), 3, 0.0, np.zeros(3), g, 1, 100,
                            [g.n_steps], {"m": lambda b: b.sum(axis=1)}, tag=1,
                            mode="bogus")
    with pytest.raises(ConfigError):
        sample_system_stats(logistic_spec(), 3, 0.0, np.zeros(3), g, 1, 100,
                            [g.n_steps + 7], {"m": lambda b: b.sum(axis=1)},
                            tag=1)


def test_system_stats_deterministic_and_keyed_by_tag():
    g = TimeGrid(0.0, 0.5, 0.01)
    red = {"total": lambda b: b.sum(axis=1)}
    kw = dict(theta=0.5, x0=np.full(3, 0.2), grid=g, seed=6, replicates=400,
              report_nodes=[g.n_steps], reducers=red)
    a = sample_system_stats(logistic_spec(), 3, tag=1, **kw)
    b = sample_system_stats(logistic_spec(), 3, tag=1, **kw)
    c = sample_system_stats(logistic_spec(), 3, tag=2, **kw)
    assert np.array_equal(a["total"], b["total"])
    assert not np.array_equal(a["total"], c["total"])


def test_level_sum_matches_unsplit_distribution():
    # the level decomposition reproduces the plain system's total in law
    # (linear diffusion); two-sample KS on final totals
    g = TimeGrid(0.0, 1.0, 0.01)
    red = {"total": lambda b: b.sum(axis=1)}
    kw = dict(theta=1.0, x0=np.full(4, 0.25), grid=g, seed=30,
              replicates=4000, report_nodes=[g.n_steps], reducers=red)
    unsplit = sample_system_stats(logistic_spec(), 4, tag=1, **kw)
    levels = sample_system_stats(logistic_spec(), 4, tag=2, mode="levels",
                                 k_max=6, **kw)
    res = stats.ks_2samp(unsplit["total"][0], levels["total"][0])
    assert res.pvalue > 0.01


def test_exact_and_clip_boundaries_agree_away_from_zero():
    # starting well above 0 for a short horizon the exact engine must agree in
    # mean with plain truncated Euler, written out here as the reference
    spec = logistic_spec()
    g = TimeGrid(0.0, 0.25, 2e-3)
    red = {"total": lambda b: b.sum(axis=1)}
    ex = sample_system_stats(spec, 2, 0.0, np.full(2, 1.0), g, 31, 4000,
                             [g.n_steps], red, tag=1)["total"][0]
    gen = substream(31, 2)
    v = np.ones((4000, 2))
    for _ in range(g.n_steps):
        drift = v.mean(axis=1, keepdims=True) - v + spec.mu(v)
        v = np.maximum(v + drift * g.dt + np.sqrt(spec.sigma2(v) * g.dt)
                       * gen.standard_normal(v.shape), 0.0)
    cl = v.sum(axis=1)
    m1, m2 = ex.mean(), cl.mean()
    s1 = ex.std(ddof=1) / math.sqrt(4000)
    s2 = cl.std(ddof=1) / math.sqrt(4000)
    assert abs(m1 - m2) < 4.0 * (s1 + s2) + 0.01


@pytest.mark.parametrize("mode", ["unsplit", "levels", "loop_free"])
def test_object_level_system_matches_the_batch_engine(mode):
    # small masses with inflow: a clamped object-level step inflates the
    # total by 5 to 20 combined SE here; both ops must take the exact step
    spec = logistic_spec()
    g = TimeGrid(0.0, 1.0, 1e-2)
    x0 = np.full(5, 0.05)
    obj = np.array([simulate_system(spec, 5, 0.5, x0, g, seed=s, mode=mode,
                                    k_max=3).values[-1].sum()
                    for s in range(400)])
    batch = sample_system_stats(spec, 5, 0.5, x0, g, 1, 4000, [g.n_steps],
                                {"total": lambda b: b.sum(axis=1)}, tag=1,
                                mode=mode, k_max=3)["total"][0]
    se = math.hypot(obj.std(ddof=1) / math.sqrt(obj.size),
                    batch.std(ddof=1) / math.sqrt(batch.size))
    assert abs(obj.mean() - batch.mean()) < 4.0 * se


# -- CSV export -------------------------------------------------------------------

def test_export_path_csv_format(tmp_path):
    g = TimeGrid(0.0, 0.1, 0.05)
    p = simulate_system(logistic_spec(), 2, 0.0, np.array([0.5, 0.25]), g,
                        seed=2)
    f = tmp_path / "path.csv"
    export_path_csv(p, str(f))
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "t,island,level,value"
    assert lines[1] == "0.0,0,-1,0.5"
    assert "np.float64" not in lines[1]
    # 3 nodes x 2 islands
    assert len(lines) == 1 + 3 * 2


def test_export_level_path_csv_has_level_rows(tmp_path):
    g = TimeGrid(0.0, 0.1, 0.05)
    p = simulate_system(logistic_spec(), 2, 1.0, np.zeros(2), g, seed=2,
                        mode="levels", k_max=1)
    f = tmp_path / "path.csv"
    export_path_csv(p, str(f))
    lines = f.read_text().strip().split("\n")
    levels = {int(line.split(",")[2]) for line in lines[1:]}
    assert levels == {-1, 0, 1}
