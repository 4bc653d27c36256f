"""Experiment runners: functional classes, gating, reports, verdicts."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from islandsim import (
    CoefficientSpec,
    ConfigError,
    DomainInterval,
    ExpDecreasingConcave,
    ExperimentConfig,
    LinearDiffusion,
    LinearDrift,
    Logistic,
    MixedMonomial,
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
from islandsim.experiments import _chi2_ppf, config_hash, snapshot_config


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


def test_chi2_quantile_is_scipy_stats_bit_for_bit():
    for dof in range(1, 65):
        assert _chi2_ppf(0.99, dof) == float(stats.chi2.ppf(0.99, dof)), dof


def test_chi2_quantile_inversion_matches_scipy_stats():
    # above the table and off q = 0.99 the quantile is inverted in the
    # module; scipy's own value is a few ulp from the true one, so compare
    # at 1e-12 relative (about 4500 ulp; the inversion stays within ~100)
    cases = [(0.99, dof) for dof in range(65, 1001)]
    # q = 0.001 at dof 1 starts from the small-x power law, not Wilson-Hilferty
    cases += [(q, dof) for q in (0.001, 0.5, 0.95, 0.999)
              for dof in (1, 4, 100)]
    for q, dof in cases:
        ref = float(stats.chi2.ppf(q, dof))
        assert _chi2_ppf(q, dof) == pytest.approx(ref, rel=1e-12, abs=0), \
            (q, dof)


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
