"""Experiment runners: functional classes, gating, reports, verdicts."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from islandsim import (
    CoefficientSpec,
    ConfigError,
    CustomDiffusion,
    DomainInterval,
    ExpDecreasingConcave,
    ExperimentConfig,
    ExperimentReport,
    LinearDiffusion,
    LinearDrift,
    Logistic,
    MixedMonomial,
    PiecewisePolynomial,
    PowerDiffusion,
    SmoothedStep,
    TimeGrid,
    WrightFisher,
    run_analyze,
    run_comparison,
    run_convergence,
    run_duality,
    run_identity_suite,
    tent,
)
from islandsim.analytics import scale_function
from islandsim.experiments import (_SPLIT_SD, _chi2_ppf, _split_levels,
                                   config_hash, snapshot_config)
from islandsim.sde import single_batch_stats


def logistic_spec():
    return CoefficientSpec(Logistic(1.0, 1.0), LinearDiffusion(1.0),
                           DomainInterval())


def feller_spec():
    return CoefficientSpec(LinearDrift(0.0), LinearDiffusion(1.0),
                           DomainInterval())


def base_cfg(spec=None, **kw):
    kw.setdefault("grid", TimeGrid(0.0, 0.5, 0.01))
    kw.setdefault("replicates", 200)
    kw.setdefault("seed", 17)
    kw.setdefault("delta", 0.1)
    return ExperimentConfig(spec=spec or logistic_spec(), **kw)


# -- functionals -------------------------------------------------------------------

def test_exp_decreasing_concave_evaluates():
    fn = ExpDecreasingConcave((1.0, 2.0), (0.25, 0.5))
    rows = np.array([[0.0, 1.0], [0.0, 0.5]])
    out = fn.evaluate(rows)
    assert out[0] == pytest.approx(0.0)
    assert out[1] == pytest.approx(1.0 - math.exp(-(1.0 + 1.0)))
    assert fn.cls == "F+-"


def test_monomial_and_step_evaluate():
    mono = MixedMonomial((0.25, 0.5))
    rows = np.array([[2.0], [3.0]])
    assert mono.evaluate(rows)[0] == pytest.approx(6.0)
    step = SmoothedStep((0.5,), (0.2,), (0.5,))
    vals = step.evaluate(np.array([[0.0, 0.5 + 0.1, 10.0]]))
    assert vals[0] == 0.0 and vals[2] == 1.0 and 0.0 < vals[1] < 1.0
    assert step.cls == "F+pm"


def test_functional_validation():
    with pytest.raises(ConfigError):
        ExpDecreasingConcave((-1.0,), (0.5,))
    with pytest.raises(ConfigError):
        ExpDecreasingConcave((1.0, 2.0), (0.5,))


def test_tent_shape():
    f = tent(0.5, 1.5)
    assert f(np.array([1.0]))[0] == pytest.approx(1.0)
    assert f(np.array([0.4]))[0] == 0.0
    assert f(np.array([1.6]))[0] == 0.0
    assert f(np.array([0.75]))[0] == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        tent(1.5, 0.5)


# -- gating ------------------------------------------------------------------------

def test_comparison_rejects_inadmissible_class():
    # Wright-Fisher sigma2 is subadditive only: the decreasing-concave class
    # needs superadditivity
    spec = CoefficientSpec(Logistic(1.0, 1.0), WrightFisher(),
                           DomainInterval(1.0))
    cfg = base_cfg(spec, topology=3, delta=0.05,
                   functionals=(ExpDecreasingConcave((1.0,), (0.5,)),))
    with pytest.raises(ConfigError, match="F\\+-"):
        run_comparison(cfg)


def test_comparison_needs_topology_and_functionals():
    with pytest.raises(ConfigError):
        run_comparison(base_cfg(functionals=()))
    with pytest.raises(ConfigError):
        run_comparison(base_cfg(
            functionals=(ExpDecreasingConcave((1.0,), (0.5,)),)))


def test_convergence_requires_linear_diffusion():
    spec = CoefficientSpec(Logistic(1.0, 1.0), PowerDiffusion(1.0, 1.5),
                           DomainInterval())
    with pytest.raises(ConfigError):
        run_convergence(base_cfg(spec))


def test_duality_requires_logistic_linear():
    with pytest.raises(ConfigError):
        run_duality(base_cfg(feller_spec()))


# -- runners produce coherent reports -----------------------------------------------

def test_comparison_report_structure(tmp_path):
    fns = (ExpDecreasingConcave((1.0,), (0.5,)), MixedMonomial((0.25,)))
    cfg = base_cfg(topology=4, x_init=(0.2, 0.2), functionals=fns)
    rep = run_comparison(cfg)
    assert len(rep.rows) == 2
    assert set(rep.verdicts) == {fns[0].label, fns[1].label, "all_ordered"}
    csv_path, json_path = rep.write(str(tmp_path))
    header = open(csv_path).readline().strip().split(",")
    assert header[:4] == ["functional", "class", "mean_system", "se_system"]
    doc = json.load(open(json_path))
    assert set(doc) == {"experiment", "config_hash", "seed", "metrics",
                        "verdicts", "config"}
    assert doc["experiment"] == "comparison"
    assert doc["seed"] == 17


def test_convergence_report_rows_follow_ladder():
    cfg = base_cfg(theta=1.0, n_ladder=(1, 4, 8), eval_time=0.5,
                   replicates=300)
    rep = run_convergence(cfg)
    assert [int(r[0]) for r in rep.rows] == [1, 4, 8]
    assert "gap_shrinks" in rep.verdicts


def test_identity_report_and_se_shrink():
    cfg_small = base_cfg(feller_spec(), replicates=400, theta=1.0,
                         grid=TimeGrid(0.0, 4.0, 0.01), eps=0.05)
    cfg_big = base_cfg(feller_spec(), replicates=6400, theta=1.0,
                       grid=TimeGrid(0.0, 4.0, 0.01), eps=0.05)
    rep_s = run_identity_suite(cfg_small)
    rep_b = run_identity_suite(cfg_big)
    checks = [r[0] for r in rep_s.rows]
    assert checks == ["area_identity", "q_mass_identity",
                      "speed_snapshot_chi2"]
    assert set(rep_s.verdicts) == {"area_within_5pct", "q_mass_within_5pct",
                                   "speed_snapshot_chi2_ok"}
    se_col = 3
    assert rep_b.rows[0][se_col] < 0.8 * rep_s.rows[0][se_col]
    assert rep_b.rows[1][se_col] < 0.8 * rep_s.rows[1][se_col]


def _levels(spec, eps, delta, dt, replicates):
    ends = (scale_function(spec, eps), scale_function(spec, delta))
    return _split_levels(spec, eps, delta, dt, ends, replicates)


@pytest.mark.parametrize("spec, eps, delta, dt, replicates, inner", [
    (feller_spec(), 1e-3, 0.1, 1e-3, 30000, 1),   # floor 32 beta dt = 0.032
    (feller_spec(), 1e-3, 0.1, 1e-4, 1000, 3),    # 0.0032, 0.016, 0.08
    (feller_spec(), 0.05, 10.0, 1e-3, 100, 3),    # eps resolved: 0.25, ...
    (feller_spec(), 1e-3, 0.1, 1e-2, 100, 0),     # floor 0.32 above delta
    (feller_spec(), 1e-6, 400.0, 1e-3, 100, 6),   # 0.032 ... 100
    (feller_spec(), 1e-6, 400.0, 1e-3, 3, 2),     # replicates stages at most
    (CoefficientSpec(LinearDrift(0.0), WrightFisher(),
                     DomainInterval(upper=1.0)), 1e-3, 0.9, 1e-3, 500, 3),
    (CoefficientSpec(Logistic(1.0, 1.0), PowerDiffusion(2.0, 1.5)),
     1e-3, 0.5, 1e-3, 500, 4),                 # floor 0.032**2
])
def test_split_levels_stay_above_the_floor_the_step_resolves(
        spec, eps, delta, dt, replicates, inner):
    levels, launches = _levels(spec, eps, delta, dt, replicates)
    assert levels[0] == eps and levels[-1] == delta
    assert all(b > a for a, b in zip(levels, levels[1:]))
    assert len(levels) == inner + 2 and len(launches) == inner + 1
    assert sum(launches) == replicates and min(launches) >= 1

    def resolved(y):
        return math.sqrt(float(spec.sigma2(y)) * dt) <= _SPLIT_SD * y
    assert all(resolved(y) for y in levels[1:-1])
    if inner and not resolved(eps):  # the first inner level is the floor
        assert not resolved(levels[1] * (1.0 - 1e-12))
    if isinstance(spec.diffusion, LinearDiffusion):
        floor = 32.0 * spec.diffusion.beta * dt
        assert all(y >= floor * (1.0 - 1e-12) for y in levels[1:-1])


def test_split_levels_take_a_custom_sigma2_below_zero():
    # a custom sigma2 may dip below 0 on a piece; the floor test must not
    # raise there (identities exits 0 on such a config)
    poly = PiecewisePolynomial((0.0, 0.04, 0.05),
                               ((0.0, 2.0), (-0.01,), (0.0, 2.0)))
    spec = CoefficientSpec(LinearDrift(0.0), CustomDiffusion(poly))
    levels, launches = _levels(spec, 1e-3, 0.1, 1e-3, 200)
    assert all(b > a for a, b in zip(levels, levels[1:]))
    assert sum(launches) == 200 and min(launches) >= 1


def test_split_launches_follow_the_stage_hit_odds():
    # one launch each, the rest in proportion to sqrt((1 - p_j)/p_j),
    # p_j = S(L_j)/S(L_j+1), rounded by largest remainders
    spec = feller_spec()
    levels, launches = _levels(spec, 1e-3, 0.1, 1e-4, 10_000)
    s = [scale_function(spec, y) for y in levels]
    odds = np.sqrt([b / a - 1.0 for a, b in zip(s, s[1:])])
    ideal = (10_000 - odds.size) * odds / odds.sum()
    assert np.all(np.abs(np.asarray(launches) - 1 - ideal) < 1.0)


def test_identities_without_an_admissible_level_is_the_plain_estimator():
    # dt 1e-2 puts the floor (0.32) above delta: one stage, tag 32, eps
    # launches, and the row and metrics of the unsplit estimator exactly
    cfg = base_cfg(feller_spec(), replicates=500, theta=1.0, eps=1e-3,
                   grid=TimeGrid(0.0, 1.0, 0.01))
    rep = run_identity_suite(cfg)
    s_eps = scale_function(cfg.spec, 1e-3)
    q_quad = 1.0 / scale_function(cfg.spec, 0.1)
    hit = single_batch_stats(cfg.spec, 1e-3, 0.01, 17, 500, tag=32,
                             max_steps=100, stop_level=0.1).hit
    p = float(hit.mean())
    se = float(hit.std(ddof=1) / math.sqrt(500))
    gap = p / s_eps / q_quad - 1.0
    assert rep.rows[1] == ("q_mass_identity", q_quad, p / s_eps, se / s_eps,
                           gap, abs(gap) <= 0.05)
    assert rep.metrics["q_mass"] == {"quadrature": q_quad, "mc": p / s_eps,
                                     "rel_gap": gap}


def test_split_q_mass_matches_the_plain_estimator_on_feller():
    # dt 1e-3: levels 1e-3, 0.032, 0.1.  The stage to the floor is unbiased
    # against the exact S(eps)/S(0.032), and the split estimate agrees with
    # plain eps launches at the same budget
    n = 20_000
    cfg = base_cfg(feller_spec(), replicates=n, theta=1.0, eps=1e-3,
                   grid=TimeGrid(0.0, 1.0, 1e-3), seed=5)
    rep = run_identity_suite(cfg)
    q = rep.metrics["q_mass"]
    levels, launches = q["levels"], q["launches"]
    assert len(levels) == 3 and sum(launches) == n
    p0 = q["hit_fraction"][0]
    exact = scale_function(cfg.spec, 1e-3) / scale_function(cfg.spec, levels[1])
    assert abs(p0 - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / launches[0])
    split_se = rep.rows[1][3]
    hit = single_batch_stats(cfg.spec, 1e-3, 1e-3, 6, n, tag=32,
                             max_steps=1000, stop_level=0.1).hit
    s_eps = scale_function(cfg.spec, 1e-3)
    plain = float(hit.mean()) / s_eps
    plain_se = float(hit.std(ddof=1)) / math.sqrt(n) / s_eps
    assert split_se < plain_se
    assert abs(q["mc"] - plain) <= 4.0 * math.hypot(split_se, plain_se)


def test_chi2_quantile_is_scipy_stats_bit_for_bit():
    for dof in range(1, 65):
        assert _chi2_ppf(dof) == float(stats.chi2.ppf(0.99, dof)), dof


def test_chi2_quantile_inversion_matches_scipy_stats():
    # above the table the 0.99 quantile is inverted in the module; scipy's
    # own value is a few ulp from the true one, so compare at 1e-12 relative
    # (about 4500 ulp; the inversion stays within ~100)
    for dof in range(65, 1001):
        ref = float(stats.chi2.ppf(0.99, dof))
        assert _chi2_ppf(dof) == pytest.approx(ref, rel=1e-12, abs=0), dof


def test_analyze_rows_logistic_and_feller():
    rep = run_analyze(base_cfg())
    names = [r[0] for r in rep.rows]
    assert names[:2] == ["criterion", "verdict"]
    assert "rho" in names and "normalizer" in names
    assert rep.rows[0][1] == pytest.approx(math.sqrt(math.pi / 2), abs=1e-6)
    assert rep.rows[1][1] == "survival"
    ys = [y for y, _ in rep.metrics["survival"]]
    assert ys == sorted(ys)

    rep_f = run_analyze(base_cfg(feller_spec()))
    assert rep_f.rows[1][1] == "extinction"
    assert all(r[0] != "rho" for r in rep_f.rows)
    assert rep_f.verdicts["extinct_for_sure"]


def test_duality_runner_smoke():
    cfg = base_cfg(replicates=1500, n_part=200, mv_replicates=400,
                   duality_points=((1.0, 1.0, 0.5),), delta=0.05)
    rep = run_duality(cfg)
    assert len(rep.rows) == 1
    assert "all_within_budget" in rep.verdicts
    t, x, y, lhs, se_l, rhs, se_r, gap = rep.rows[0]
    assert gap == pytest.approx(lhs - rhs)


# -- config plumbing -----------------------------------------------------------------

def test_config_hash_tracks_content():
    a = base_cfg()
    b = base_cfg()
    c = base_cfg(replicates=300)
    assert config_hash(snapshot_config(a)) == config_hash(snapshot_config(b))
    assert config_hash(snapshot_config(a)) != config_hash(snapshot_config(c))


def test_snapshot_serializes_functionals():
    cfg = base_cfg(functionals=(MixedMonomial((0.5,)),))
    snap = snapshot_config(cfg)
    assert snap["functionals"][0]["kind"] == "MixedMonomial"
    json.dumps(snap)  # JSON-safe end to end


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        base_cfg(replicates=10)
    with pytest.raises(ConfigError):
        base_cfg(delta=-0.1)
    with pytest.raises(ConfigError):
        base_cfg(theta=-1.0)


def test_report_write_is_deterministic(tmp_path):
    cfg = base_cfg(theta=1.0, n_ladder=(1, 4), eval_time=0.5)
    rep = run_convergence(cfg)
    p1 = rep.write(str(tmp_path / "a"))
    p2 = rep.write(str(tmp_path / "b"))
    assert open(p1[0], "rb").read() == open(p2[0], "rb").read()
    assert open(p1[1], "rb").read() == open(p2[1], "rb").read()
    # a report with a table: the CSV paths, the report's own first, then
    # the JSON path
    rep = run_analyze(base_cfg())
    assert set(rep.tables) == {"survival"}
    for sub in ("c", "d"):
        out = tmp_path / sub
        assert rep.write(str(out)) == tuple(
            str(out / n) for n in ("analyze.csv", "survival.csv",
                                   "analyze.json"))
    for name in ("analyze.csv", "survival.csv", "analyze.json"):
        assert (tmp_path / "c" / name).read_bytes() == \
            (tmp_path / "d" / name).read_bytes(), name


def test_report_write_streams_each_rows_object_once(tmp_path):
    # rows may be generators: write iterates each one once, in table order
    def rows(n):
        yield from ((i, 0.5 * i, i % 2 == 0) for i in range(n))

    rep = ExperimentReport("demo", 3, {"k": 1}, ("i", "x", "even"), rows(3),
                           {"m": 1.0}, {"ok": True},
                           {"one": (("i", "x", "even"), rows(1)),
                            "two": (("i", "x", "even"), rows(2))})
    paths = rep.write(str(tmp_path / "out"))
    assert paths == tuple(str(tmp_path / "out" / n) for n in
                          ("demo.csv", "one.csv", "two.csv", "demo.json"))
    assert (tmp_path / "out" / "demo.csv").read_text() == (
        "i,x,even\n0,0.0,true\n1,0.5,false\n2,1.0,true\n")
    assert (tmp_path / "out" / "two.csv").read_text().count("\n") == 3
    doc = json.loads((tmp_path / "out" / "demo.json").read_text())
    assert doc["metrics"] == {"m": 1.0} and doc["verdicts"] == {"ok": True}
