"""Excursion sampling and the tree of excursions.

The quantitative checks lean on the scale-function identities: immigrants
arrive at rate theta/S(delta), an island of area A spawns Poisson(A/S(delta))
daughters, and a path from eps reaches delta with probability
S(eps)/S(delta).
"""

import math

import numpy as np
import pytest
from scipy import integrate

from islandsim import (
    CoefficientSpec,
    ConfigError,
    DomainInterval,
    LinearDiffusion,
    LinearDrift,
    Logistic,
    TimeGrid,
    build_tree,
    sample_excursion,
    sample_tree_stats,
    scale_function,
    spectrum,
    export_tree_csv,
    export_spectrum_csv,
)
from islandsim.exceptions import SolverError
from islandsim.virgin_island import (
    SLOT_BUDGET,
    _pick_slots,
    bin_count_reducer,
    excursion_mass_above,
    total_mass_reducer,
)


def logistic_spec():
    return CoefficientSpec(Logistic(1.0, 1.0), LinearDiffusion(1.0),
                           DomainInterval())


def critical_feller():
    # dY = -Y dt + sqrt(2Y) dB: E Y_t = y e^{-t}, S(delta) = e^delta - 1
    return CoefficientSpec(LinearDrift(0.0), LinearDiffusion(1.0),
                           DomainInterval())


def subcritical_spec():
    # Theta = 1/(1-c) = 0.5: trees die out fast, counts stay bounded
    return CoefficientSpec(LinearDrift(-1.0), LinearDiffusion(1.0),
                           DomainInterval())


# -- excursions -------------------------------------------------------------------

def test_excursion_mass_above_is_inverse_scale():
    spec = logistic_spec()
    for d in (0.05, 0.2, 1.0):
        assert excursion_mass_above(spec, d) == pytest.approx(
            1.0 / scale_function(spec, d), rel=1e-9)


def test_sample_excursion_starts_at_delta_and_dies():
    g = TimeGrid(0.0, 40.0, 0.01)
    exc = sample_excursion(subcritical_spec(), 0.1, g, seed=4, method="direct")
    assert exc.path.values[0] == pytest.approx(0.1)
    assert not exc.censored
    assert exc.path.values[-1] == 0.0
    assert exc.area > 0.0 and exc.peak >= 0.1
    assert exc.value_at(-1.0) == 0.0


def test_sample_excursion_censoring_flag():
    g = TimeGrid(0.0, 0.02, 0.01)
    hits = sum(sample_excursion(logistic_spec(), 0.5, g, seed=s,
                                method="direct").censored
               for s in range(20))
    assert hits > 0  # two steps rarely kill a 0.5 start


def test_rejection_attempts_scale_like_inverse_acceptance():
    # acceptance per attempt is S(eps)/S(delta) with eps = delta/1000, a
    # near-linear scale, so mean attempts sit near 1000
    g = TimeGrid(0.0, 20.0, 0.01)
    att = [sample_excursion(subcritical_spec(), 0.1, g, seed=s,
                            method="rejection", island_key=s).attempts
           for s in range(30)]
    assert 200 < np.mean(att) < 4000


def test_excursion_input_validation():
    g = TimeGrid(0.0, 1.0, 0.01)
    with pytest.raises(ConfigError):
        sample_excursion(logistic_spec(), 0.0, g, seed=0)
    with pytest.raises(ConfigError):
        sample_excursion(logistic_spec(), 0.1, g, seed=0, method="magic")


# -- single-tree object engine ------------------------------------------------------

def test_tree_initial_mass_is_exact():
    g = TimeGrid(0.0, 2.0, 0.01)
    tree = build_tree(logistic_spec(), (0.7, 0.3), 0.5, 2.0, 0.1, g, seed=8)
    assert tree.total_mass(0.0) == pytest.approx(1.0)
    roots = [i for i in tree.islands if i.parent_id is None]
    assert len(roots) >= 2


def test_tree_immigrant_count_matches_rate():
    # immigrants are Poisson(theta T / S(delta)); subcritical spec keeps the
    # tree small.  4 sigma band around the expected count.
    spec = subcritical_spec()
    theta, T, delta = 1.0, 20.0, 0.1
    g = TimeGrid(0.0, T, 0.01)
    expected = theta * T / scale_function(spec, delta)
    tree = build_tree(spec, (), theta, T, delta, g, seed=15)
    immigrants = sum(1 for i in tree.islands
                     if i.parent_id is None and i.s > 0.0)
    assert abs(immigrants - expected) < 4.0 * math.sqrt(expected)


def test_tree_direct_children_mean_matches_area_rate():
    # each island births Poisson(area/S(delta)) daughters; with the cap at
    # generation 1 the daughters of the single root are countable directly
    spec = logistic_spec()
    delta = 0.2
    g = TimeGrid(0.0, 6.0, 0.01)
    S = scale_function(spec, delta)
    diffs, variances = [], []
    for s in range(250):
        tree = build_tree(spec, (0.5,), 0.0, 6.0, delta, g, seed=1000 + s,
                          generation_cap=1)
        root = next(i for i in tree.islands if i.parent_id is None)
        kids = sum(1 for i in tree.islands if i.parent_id == root.id)
        lam = root.area / S
        diffs.append(kids - lam)
        variances.append(lam)
    z = np.sum(diffs) / math.sqrt(np.sum(variances))
    assert abs(z) < 4.0


def test_tree_generation_cap_drops_births():
    g = TimeGrid(0.0, 4.0, 0.01)
    tree = build_tree(logistic_spec(), (1.0,), 1.0, 4.0, 0.1, g, seed=5,
                      generation_cap=0)
    assert all(i.generation == 0 for i in tree.islands)
    assert tree.dropped_births > 0


def test_tree_validation():
    g = TimeGrid(0.0, 1.0, 0.01)
    with pytest.raises(ConfigError):
        build_tree(logistic_spec(), (), -1.0, 1.0, 0.1, g, seed=0)
    with pytest.raises(ConfigError):
        build_tree(logistic_spec(), (0.5,), 0.0, 1.0, -0.1, g, seed=0)


# -- spectrum ----------------------------------------------------------------------

def test_spectrum_counts_roots_at_time_zero():
    g = TimeGrid(0.0, 1.0, 0.01)
    tree = build_tree(logistic_spec(), (0.7,), 0.0, 1.0, 0.1, g, seed=2)
    snap = spectrum(tree, 0.0, (0.1, 0.5, 1.0))
    assert snap.counts.sum() == 1
    assert snap.counts[1] == 1  # 0.7 lies in [0.5, 1.0)


def test_spectrum_export(tmp_path):
    g = TimeGrid(0.0, 1.0, 0.01)
    tree = build_tree(logistic_spec(), (0.7,), 0.5, 1.0, 0.1, g, seed=2)
    snap = spectrum(tree, 1.0, (0.1, 0.5, 1.0, 2.0))
    f = tmp_path / "spec.csv"
    export_spectrum_csv(snap, str(f))
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "t,bin_lo,bin_hi,count"
    assert len(lines) == 4


# -- tree CSV ----------------------------------------------------------------------

def test_export_tree_csv_format(tmp_path):
    g = TimeGrid(0.0, 0.05, 0.01)  # short horizon forces censoring
    tree = build_tree(logistic_spec(), (0.8,), 0.0, 0.05, 0.1, g, seed=3)
    f = tmp_path / "tree.csv"
    export_tree_csv(tree, str(f))
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "island_id,parent_id,generation,s,T0,peak,area"
    root_row = lines[1].split(",")
    assert root_row[1] == ""  # roots have no parent
    assert "np.float64" not in lines[1]
    if tree.censored_count:
        assert any(row.split(",")[4] == "inf" for row in lines[1:])


# -- replicated ensemble engine ------------------------------------------------------

def test_tree_stats_initial_mass_and_determinism():
    g = TimeGrid(0.0, 1.0, 0.01)
    red = {"V": total_mass_reducer}
    a = sample_tree_stats(logistic_spec(), (0.4, 0.6), 0.0, 0.1, g, seed=9,
                          replicates=300, report_nodes=[0, g.n_steps],
                          reducers=red, tag=1)
    b = sample_tree_stats(logistic_spec(), (0.4, 0.6), 0.0, 0.1, g, seed=9,
                          replicates=300, report_nodes=[0, g.n_steps],
                          reducers=red, tag=1)
    assert np.allclose(a["V"][0], 1.0)  # V_0 = sum of root masses, exactly
    assert np.array_equal(a["V"], b["V"])


def test_tree_stats_against_object_engine():
    # two independent implementations of the same law: the flat-slot ensemble
    # and the island-object builder must agree on E[V_t]
    spec = logistic_spec()
    g = TimeGrid(0.0, 1.0, 0.01)
    t = 1.0
    ens = sample_tree_stats(spec, (0.5,), 0.0, 0.1, g, seed=40,
                            replicates=4000, report_nodes=[g.node_of(t)],
                            reducers={"V": total_mass_reducer}, tag=2)
    v_ens = ens["V"][0]
    m1 = v_ens.mean()
    s1 = v_ens.std(ddof=1) / math.sqrt(v_ens.size)
    objs = np.array([build_tree(spec, (0.5,), 0.0, t, 0.1, g,
                                seed=5000 + s).total_mass(t)
                     for s in range(400)])
    m2 = objs.mean()
    s2 = objs.std(ddof=1) / math.sqrt(objs.size)
    assert abs(m1 - m2) < 4.0 * (s1 + s2)


def test_smaller_delta_recovers_more_mass():
    # the delta-cutoff only discards mass, so shrinking delta cannot lower
    # the mean total
    spec = logistic_spec()
    g = TimeGrid(0.0, 1.0, 0.01)
    red = {"V": total_mass_reducer}
    kw = dict(x_init=(0.5,), theta=0.0, grid=g, seed=41, replicates=6000,
              report_nodes=[g.n_steps], reducers=red)
    coarse = sample_tree_stats(spec, delta=0.25, tag=3, **kw)["V"][0]
    fine = sample_tree_stats(spec, delta=0.05, tag=4, **kw)["V"][0]
    se = coarse.std(ddof=1) / 77.0 + fine.std(ddof=1) / 77.0
    assert fine.mean() > coarse.mean() - 3.0 * se


def test_pick_slots_never_picks_zero_weight():
    # inverse CDF with side="right": a zero-weight slot (first, inner or
    # last) is never picked, also when u * mass rounds up to mass (which
    # takes a subnormal mass)
    u_top = np.nextafter(1.0, 0.0)
    cum = np.cumsum([0.0, 1.0, 0.0, 1.5, 0.0])
    u = np.array([u_top, 0.0, 1.0 / 2.5, 0.3, u_top])
    assert _pick_slots(cum, u).tolist() == [1, 1, 3, 3, 3]
    tiny = np.cumsum([0.0, 5e-324, 0.0])
    assert u_top * tiny[-1] == tiny[-1]
    assert _pick_slots(tiny, np.array([0.0, u_top])).tolist() == [1, 1]
    u = np.random.default_rng(3).random(20000)
    picks = _pick_slots(cum, u)
    assert np.all(np.diff(picks) >= 0)  # slot order
    assert set(picks.tolist()) == {1, 3}
    assert abs(np.mean(picks == 3) - 0.6) < 4.0 * math.sqrt(0.24 / u.size)


def test_tree_stats_dropped_births_match_root_area_rate():
    # generation_cap=0 drops every birth of the root: their mean count is
    # E int_0^T Y dt / S(delta) = y (1 - e^{-T}) / S(delta); SE from tags
    y, T, delta = 1.0, 1.0, 0.1
    g = TimeGrid(0.0, T, 0.005)
    reps = 2000
    per_rep = [sample_tree_stats(critical_feller(), (y,), 0.0, delta, g,
                                 seed=61, replicates=reps, report_nodes=[],
                                 reducers={}, tag=tag, generation_cap=0)
               ["_dropped_births"] / reps for tag in range(8)]
    expected = y * (1.0 - math.exp(-T)) / math.expm1(delta)
    se = np.std(per_rep, ddof=1) / math.sqrt(len(per_rep))
    assert abs(np.mean(per_rep) - expected) < 4.0 * se


def test_tree_stats_immigrant_count_matches_rate():
    # immigrants land with value delta exactly; counted at every node they
    # add up to Poisson(theta T / S(delta)) per replicate (mean = variance)
    theta, T, delta = 2.0, 1.0, 0.1
    g = TimeGrid(0.0, T, 0.01)

    def newborns(rep, val, r):
        return np.bincount(rep[val == delta], minlength=r).astype(float)

    res = sample_tree_stats(critical_feller(), (), theta, delta, g, seed=62,
                            replicates=4000, report_nodes=range(1, 101),
                            reducers={"n": newborns}, tag=1,
                            generation_cap=0)
    counts = res["n"].sum(axis=0)
    expected = theta * T / math.expm1(delta)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - expected) < 4.0 * se
    assert abs(counts.var(ddof=1) / expected - 1.0) < 0.1


def test_tree_stats_slot_guard():
    # a tiny delta makes the first step's births pass the slot budget: the
    # engine refuses before it allocates them
    spec = CoefficientSpec(Logistic(3.0, 1.0), LinearDiffusion(1.0),
                           DomainInterval())
    g = TimeGrid(0.0, 1.0, 1e-3)
    with pytest.raises(SolverError, match="raise delta"):
        sample_tree_stats(spec, (1.0,), 0.0, 1e-9, g, seed=0,
                          replicates=1000, report_nodes=[g.n_steps],
                          reducers={"V": total_mass_reducer}, tag=0)
    with pytest.raises(SolverError, match="raise delta"):  # no draw at all
        sample_tree_stats(spec, (1.0,), 0.0, 1e-300, g, seed=0,
                          replicates=1000, report_nodes=[g.n_steps],
                          reducers={"V": total_mass_reducer}, tag=0)


def test_tree_stats_dropped_births_take_no_slots():
    # with generation_cap 0 every birth is dropped and only counted: a tiny
    # delta makes the dropped mean pass the slot budget with nothing to
    # allocate, and only a mean past numpy's Poisson limit stops the run
    spec = CoefficientSpec(Logistic(3.0, 1.0), LinearDiffusion(1.0),
                           DomainInterval())
    g = TimeGrid(0.0, 0.1, 1e-3)
    kw = dict(seed=0, replicates=1000, report_nodes=[g.n_steps],
              reducers={"V": total_mass_reducer}, tag=0, generation_cap=0)
    res = sample_tree_stats(spec, (1.0,), 0.0, 1e-9, g, **kw)
    assert res["_dropped_births"] > SLOT_BUDGET
    with pytest.raises(SolverError, match="Poisson mean") as err:
        sample_tree_stats(spec, (1.0,), 0.0, 1e-300, g, **kw)
    assert "slot" not in str(err.value)


def test_bin_count_reducer():
    rep = np.array([0, 0, 1, 2, 2, 2])
    val = np.array([0.3, 0.7, 0.5, 0.1, 0.4, 0.9])
    counts = bin_count_reducer(0.25, 0.75)(rep, val, 4)
    assert counts.tolist() == [2, 1, 1, 0]


def test_tree_stats_validation():
    g = TimeGrid(0.0, 1.0, 0.01)
    red = {"V": total_mass_reducer}
    with pytest.raises(ConfigError):
        sample_tree_stats(logistic_spec(), (-0.5,), 0.0, 0.1, g, seed=0,
                          replicates=100, report_nodes=[0], reducers=red,
                          tag=0)
    with pytest.raises(ConfigError):
        sample_tree_stats(logistic_spec(), (), 0.0, 2.0, g, seed=0,
                          replicates=100, report_nodes=[0], reducers=red,
                          tag=0, boundary="nope")
