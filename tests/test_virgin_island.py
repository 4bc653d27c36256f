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
    export_tree_csv,
    export_spectrum_csv,
)
from islandsim.exceptions import SolverError
from islandsim import virgin_island
from islandsim.virgin_island import (
    RECORD_BYTES,
    SLOT_BUDGET,
    SLOT_BYTES,
    _pick_slots,
    bin_count_reducer,
    excursion_mass_above,
    total_mass_reducer,
)

# a RuntimeWarning from the engines (an overflow, a division by 0) fails
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


# -- one recorded tree ------------------------------------------------------------

def test_tree_initial_mass_is_exact():
    g = TimeGrid(0.0, 2.0, 0.01)
    tree = build_tree(logistic_spec(), (0.7, 0.3), 0.5, 2.0, 0.1, g, seed=8)
    assert tree.total_mass(0.0) == pytest.approx(1.0)
    roots = (tree.parent < 0) & (tree.birth == 0)
    assert roots.sum() == 2
    assert np.all(tree.peak[:2] >= [0.7, 0.3])  # ids 0, 1 in x_init order


def test_tree_totals_are_the_slot_engine_replicate():
    # build_tree is replicate 0 of sample_tree_stats(replicates=1, tag=0):
    # its total mass at every node is that engine's reducer, bit for bit
    spec, g = logistic_spec(), TimeGrid(0.0, 1.0, 0.01)
    tree = build_tree(spec, (0.7, 0.3), 1.0, 1.0, 0.1, g, seed=8)
    ref = sample_tree_stats(spec, (0.7, 0.3), 1.0, 0.1, g, seed=8,
                            replicates=1, report_nodes=range(g.n_steps + 1),
                            reducers={"V": total_mass_reducer}, tag=0)
    assert tree.parent.size > 10
    assert np.array_equal(tree.totals, ref["V"][:, 0])
    assert tree.totals[-1] == pytest.approx(tree.spectrum_values.sum(),
                                            rel=1e-12)


def test_tree_records_follow_birth_order():
    g = TimeGrid(0.0, 1.0, 0.01)
    tree = build_tree(logistic_spec(), (0.5,), 2.0, 1.0, 0.1, g, seed=3)
    assert np.all(np.diff(tree.birth) >= 0)
    kids = tree.parent >= 0
    assert np.all(tree.parent[kids] < np.flatnonzero(kids))
    assert np.all(tree.birth[tree.parent[kids]] < tree.birth[kids])
    assert np.array_equal(tree.generation[kids],
                          tree.generation[tree.parent[kids]] + 1)
    assert np.all(tree.generation[~kids] == 0)
    dead = tree.death >= 0
    assert np.all(tree.death[dead] > tree.birth[dead])
    assert np.all(tree.peak[1:] >= 0.1)
    assert np.all(tree.area[tree.birth < g.n_steps] > 0.0)


def test_tree_immigrant_count_matches_rate():
    # immigrants are Poisson(theta T / S(delta)); subcritical spec keeps the
    # tree small.  4 sigma band around the expected count.
    spec = subcritical_spec()
    theta, T, delta = 1.0, 20.0, 0.1
    g = TimeGrid(0.0, T, 0.01)
    expected = theta * T / scale_function(spec, delta)
    tree = build_tree(spec, (), theta, T, delta, g, seed=15)
    immigrants = np.count_nonzero((tree.parent < 0) & (tree.birth > 0))
    assert abs(immigrants - expected) < 4.0 * math.sqrt(expected)


def test_tree_direct_children_mean_matches_area_rate():
    # each island births Poisson(area/S(delta)) daughters; with the cap at
    # generation 1 the daughters of the single root are countable directly
    # (births at the next node make the rate the left Riemann sum, which
    # misses the trapezoid area by 0.5 * 0.5 dt / S per tree, z ~ 0.1)
    spec = logistic_spec()
    delta = 0.2
    g = TimeGrid(0.0, 6.0, 0.01)
    S = scale_function(spec, delta)
    diffs, variances = [], []
    for s in range(250):
        tree = build_tree(spec, (0.5,), 0.0, 6.0, delta, g, seed=1000 + s,
                          generation_cap=1)
        kids = np.count_nonzero(tree.parent == 0)
        lam = tree.area[0] / S
        diffs.append(kids - lam)
        variances.append(lam)
    z = np.sum(diffs) / math.sqrt(np.sum(variances))
    assert abs(z) < 4.0


def test_tree_generation_cap_drops_births():
    g = TimeGrid(0.0, 4.0, 0.01)
    tree = build_tree(logistic_spec(), (1.0,), 1.0, 4.0, 0.1, g, seed=5,
                      generation_cap=0)
    assert np.all(tree.generation == 0)
    assert tree.dropped_births > 0


def test_tree_validation():
    g = TimeGrid(0.0, 1.0, 0.01)
    empty = build_tree(logistic_spec(), (0.0,), 0.0, 1.0, 0.1, g, seed=0)
    assert empty.parent.size == 0 and not empty.totals.any()
    with pytest.raises(ConfigError):
        build_tree(logistic_spec(), (), -1.0, 1.0, 0.1, g, seed=0)
    with pytest.raises(ConfigError):
        build_tree(logistic_spec(), (0.5,), 0.0, 1.0, -0.1, g, seed=0)
    for bad in ((math.nan,), (math.inf,)):
        with pytest.raises(ConfigError, match="finite"):
            build_tree(logistic_spec(), bad, 0.0, 1.0, 0.1, g, seed=0)
    for theta in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            build_tree(logistic_spec(), (0.5,), theta, 1.0, 0.1, g, seed=0)
    for t in (0.123, math.nan, 1.5):
        with pytest.raises(ConfigError, match="grid"):
            build_tree(logistic_spec(), (0.5,), 0.0, 1.0, 0.1, g, seed=0,
                       spectrum_time=t)


def test_tree_path_budget():
    # every island costs a slot and a record, 80 bytes of the 256 MB.  At
    # delta 1e-9 the first step's immigrants (mean ~1e7) or the root's
    # daughters (~5e6) would pass the 3.4e6 islands that fit; at 1e-300
    # numpy could not even draw them.  The tree refuses before the draw.
    spec = logistic_spec()
    g = TimeGrid(0.0, 0.1, 0.01)
    for theta, delta in ((1.0, 1e-9), (1.0, 1e-300), (0.0, 1e-9)):
        with pytest.raises(SolverError, match="raise delta") as err:
            build_tree(spec, (0.5,), theta, 0.1, delta, g, seed=0)
        assert "islands at 80 bytes each" in str(err.value)
        assert len(str(err.value)) < 200
    # dropped births take neither slot nor record: only numpy's limit stops
    # them
    tree = build_tree(spec, (0.5,), 0.0, 0.1, 1e-9, g, seed=0,
                      generation_cap=0)
    assert tree.dropped_births > SLOT_BUDGET // (SLOT_BYTES + RECORD_BYTES)
    with pytest.raises(SolverError, match="Poisson mean"):
        build_tree(spec, (0.5,), 0.0, 0.1, 1e-300, g, seed=0,
                   generation_cap=0)


def test_tree_records_share_the_slot_budget(monkeypatch):
    # the records of dead islands stay charged: a budget of 40 islands stops
    # a tree whose live islands never number 40
    g = TimeGrid(0.0, 2.0, 0.01)
    tree = build_tree(subcritical_spec(), (), 2.0, 2.0, 0.1, g, seed=4)
    live = np.array([np.count_nonzero((tree.birth <= k) & ((tree.death < 0)
                                                           | (tree.death > k)))
                     for k in range(g.n_steps + 1)])
    assert live.max() < 40 < tree.parent.size
    monkeypatch.setattr(virgin_island, "SLOT_BUDGET",
                        40 * (SLOT_BYTES + RECORD_BYTES))
    with pytest.raises(SolverError, match="raise delta"):
        build_tree(subcritical_spec(), (), 2.0, 2.0, 0.1, g, seed=4)


# -- spectrum ----------------------------------------------------------------------

def test_spectrum_counts_roots_at_time_zero():
    g = TimeGrid(0.0, 1.0, 0.01)
    tree = build_tree(logistic_spec(), (0.7,), 0.0, 1.0, 0.1, g, seed=2,
                      spectrum_time=0.0)
    snap = tree.spectrum((0.1, 0.5, 1.0))
    assert snap.time == 0.0
    assert snap.counts.sum() == 1
    assert snap.counts[1] == 1  # 0.7 lies in [0.5, 1.0)


def test_spectrum_export(tmp_path):
    g = TimeGrid(0.0, 1.0, 0.01)
    tree = build_tree(logistic_spec(), (0.7,), 0.5, 1.0, 0.1, g, seed=2)
    snap = tree.spectrum((0.1, 0.5, 1.0, 2.0))
    assert snap.time == 1.0  # the horizon by default
    f = tmp_path / "spec.csv"
    export_spectrum_csv(snap, str(f))
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "t,bin_lo,bin_hi,count"
    assert len(lines) == 4


def test_spectrum_is_the_masses_at_its_node():
    g = TimeGrid(0.0, 1.0, 0.01)
    tree = build_tree(logistic_spec(), (0.7,), 1.0, 1.0, 0.1, g, seed=2,
                      spectrum_time=0.5)
    assert tree.spectrum_values.sum() == pytest.approx(tree.total_mass(0.5),
                                                       rel=1e-12)
    alive = (tree.birth <= 50) & ((tree.death < 0) | (tree.death > 50))
    assert np.count_nonzero(tree.spectrum_values) == alive.sum()


# -- tree CSV ----------------------------------------------------------------------

def test_export_tree_csv_format(tmp_path):
    g = TimeGrid(0.0, 0.05, 0.01)  # short horizon forces censoring
    tree = build_tree(logistic_spec(), (0.8,), 0.0, 0.05, 0.1, g, seed=3)
    f = tmp_path / "tree.csv"
    export_tree_csv(tree, str(f))
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "island_id,parent_id,generation,s,T0,peak,area"
    root_row = lines[1].split(",")
    assert root_row[:4] == ["0", "", "0", "0.0"]  # roots have no parent
    assert "np.float64" not in lines[1]
    assert len(lines) == tree.parent.size + 1
    if np.any(tree.death < 0):
        assert any(row.split(",")[4] == "inf" for row in lines[1:])
    for row in lines[1:]:  # s and T0 lie on grid nodes
        s, t0 = row.split(",")[3:5]
        assert float(s) / 0.01 == pytest.approx(round(float(s) / 0.01))
        if t0 != "inf":
            assert float(t0) / 0.01 == pytest.approx(round(float(t0) / 0.01))


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


def feller_laplace(lam, x, theta, t, c=0.0, beta=1.0):
    """E exp(-lam Z_t) for dZ = (theta + c Z) dt + sqrt(2 beta Z) dW, Z_0 = x."""
    if c == 0.0:
        d = 1.0 + lam * beta * t
        growth = 1.0
    else:
        growth = math.exp(c * t)
        d = 1.0 + lam * beta * math.expm1(c * t) / c
    return d ** (-theta / beta) * math.exp(-lam * x * growth / d)


def test_tree_stats_match_the_feller_laplace_transform():
    # Feller branching: the tree's total mass is the CIR law as delta -> 0
    # (excursion representation; Pitman and Yor 1982).  At delta 0.005 the
    # cutoff bias is well inside 4 SE at this budget; frozen seed
    spec = CoefficientSpec(LinearDrift(0.0), LinearDiffusion(1.0),
                           DomainInterval())
    x, theta, t = 1.0, 0.5, 1.0
    g = TimeGrid(0.0, t, 2e-3)
    lams = (0.5, 1.0, 4.0)
    red = {lam: (lambda lam: lambda rep, val, r: np.exp(
        -lam * total_mass_reducer(rep, val, r)))(lam) for lam in lams}
    res = sample_tree_stats(spec, (x,), theta, 0.005, g, seed=5,
                            replicates=4000, report_nodes=[g.n_steps],
                            reducers=red, tag=1)
    for lam in lams:
        v = res[lam][0]
        z = (v.mean() - feller_laplace(lam, x, theta, t)) \
            / (v.std(ddof=1) / math.sqrt(v.size))
        assert abs(z) <= 4.0, (lam, z)


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
    with pytest.raises(SolverError, match="raise delta") as err:  # no draw
        sample_tree_stats(spec, (1.0,), 0.0, 1e-300, g, seed=0,
                          replicates=1000, report_nodes=[g.n_steps],
                          reducers={"V": total_mass_reducer}, tag=0)
    assert "(1e+300 islands at 24 bytes each)" in str(err.value)
    assert len(str(err.value)) < 200


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


@pytest.mark.parametrize("cap, total, count, dropped", [
    (0, 223.01855542583712, 772.0, 1025),    # every slot capped
    (1, 292.64215780941106, 1107.0, 214),    # some slots capped
    (50, 271.710872053846, 1082.0, 0),       # no slot capped
])
def test_tree_stats_totals_are_pinned(cap, total, count, dropped):
    # the birth draws skip the capped-slot masks when all or no slots are
    # capped; these are the engine's totals with the masks always applied
    res = sample_tree_stats(critical_feller(), (0.3, 0.1), 1.0, 0.05,
                            TimeGrid(0.0, 0.5, 2e-3), 7, 200, [125, 250],
                            {"V": total_mass_reducer,
                             "n": bin_count_reducer(0.05, 1.0)},
                            tag=1, generation_cap=cap)
    assert float(res["V"].sum()) == total
    assert float(res["n"].sum()) == count
    assert res["_dropped_births"] == dropped


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
