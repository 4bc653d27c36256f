"""Acceptance suite: one end-to-end check per shipped guarantee.

Every test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (surfaced by the
-rA report sections) and asserts the same condition, so the printed verdict
and the pytest outcome always agree.  Monte Carlo budgets, tolerances and
seeds are frozen; the estimators are unbiased and the frozen seeds were
drawn once, not tuned against the assertions' direction.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest
from scipy import integrate, stats

from islandsim import (
    CoefficientSpec,
    DomainInterval,
    ExpDecreasingConcave,
    ExperimentConfig,
    LinearDiffusion,
    LinearDrift,
    Logistic,
    SelectionMutation,
    TimeGrid,
    WrightFisher,
    classify_regime,
    cli_main,
    duality_gap,
    extinction_criterion,
    extinction_probability,
    gamma_rho_pdf,
    logistic_criterion,
    run_comparison,
    run_convergence,
    sample_system_stats,
    scale_function,
    simulate_system,
    single_batch_stats,
    solve_rho,
)

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def feller_spec():
    return CoefficientSpec(LinearDrift(0.0), LinearDiffusion(1.0))


def logistic_spec():
    return CoefficientSpec(Logistic(1.0, 1.0), LinearDiffusion(1.0))


def verdict(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_critical_feller_theta():
    t0 = time.monotonic()
    theta = extinction_criterion(feller_spec())
    el = time.monotonic() - t0
    ok = abs(theta - 1.0) <= 1e-6 and el < 1.0
    verdict(1, ok, f"critical Feller criterion {theta:.8f} "
                   f"(target 1 within 1e-6), {el:.3f}s")


def test_criterion_02_logistic_criterion_anchor():
    direct = logistic_criterion(1.0, 1.0, 1.0)
    via_quad = extinction_criterion(logistic_spec())
    regime = classify_regime(direct)
    ok = (abs(direct - SQRT_HALF_PI) <= 1e-6
          and abs(direct - via_quad) <= 1e-6
          and regime == "survival")
    verdict(2, ok, f"logistic criterion {direct:.8f} vs sqrt(pi/2)="
                   f"{SQRT_HALF_PI:.8f}, quadrature {via_quad:.8f}, "
                   f"regime {regime}")


def test_criterion_03_stepping_stone_anchor():
    spec = CoefficientSpec(SelectionMutation(1.0, 1.0), WrightFisher(),
                           DomainInterval(1.0))
    theta = extinction_criterion(spec)
    target = math.e - 2.0
    regime = classify_regime(theta)
    ok = abs(theta - target) <= 1e-6 and regime == "extinction"
    verdict(3, ok, f"selection-mutation criterion {theta:.8f} vs e-2="
                   f"{target:.8f}, regime {regime}")


def test_criterion_04_rho_and_invariant_law():
    t0 = time.monotonic()
    sol = solve_rho(1.0, 1.0, 1.0)
    total, _ = integrate.quad(lambda x: float(gamma_rho_pdf(sol, x)),
                              0.0, 40.0, limit=200)
    probs = [extinction_probability(sol, y) for y in (0.0, 0.5, 1.0, 2.0, 4.0)]
    el = time.monotonic() - t0
    decreasing = all(a > b for a, b in zip(probs, probs[1:]))
    ok = (sol.residual < 1e-8 and abs(total - 1.0) <= 1e-6
          and probs[0] == 1.0 and decreasing and el < 5.0)
    verdict(4, ok, f"rho={sol.rho:.8f} residual={sol.residual:.2e}, "
                   f"law mass {total:.8f}, extinction curve "
                   f"{[round(p, 6) for p in probs]}, {el:.2f}s")


def test_criterion_05_excursion_area_identity():
    eps = dt = 1e-3
    t0 = time.monotonic()
    parts = []
    ok = True
    for name, spec in (("feller", feller_spec()),
                       ("logistic", logistic_spec())):
        theta = extinction_criterion(spec)
        st = single_batch_stats(spec, eps, dt, seed=301, replicates=1_000_000,
                                tag=51, max_steps=100_000)
        assert st.area.min() >= 0.0 and st.peak.min() >= 0.0
        est = st.area.mean() / scale_function(spec, eps)
        rel = abs(est - theta) / theta
        ok = ok and rel <= 0.05 and st.censored == 0
        parts.append(f"{name} {est:.4f} vs {theta:.4f} (rel {rel:.3f})")
    el = time.monotonic() - t0
    ok = ok and el < 300.0
    verdict(5, ok, "mean area / S(eps): " + "; ".join(parts) + f", {el:.0f}s")


def test_criterion_06_q_mass_identity():
    spec = feller_spec()
    n_scale = 10_000
    target = 1.0 / scale_function(spec, 0.1)
    t0 = time.monotonic()
    st = single_batch_stats(spec, 1.0 / n_scale, 2e-4, seed=203,
                            replicates=1_000_000, tag=52, max_steps=200_000,
                            stop_level=0.1)
    el = time.monotonic() - t0
    assert st.area.min() >= 0.0
    est = n_scale * st.hit.mean()
    rel = abs(est - target) / target
    ok = rel <= 0.05 and el < 300.0
    verdict(6, ok, f"N*P(sup >= 0.1) = {est:.4f} vs 1/S(0.1) = "
                   f"{target:.4f} (rel {rel:.3f}), {el:.0f}s")


def test_criterion_07_duality():
    t0 = time.monotonic()
    lhs, rhs, se_l, se_r = duality_gap(
        1.0, 1.0, 1.0, x=1.0, y=1.0, t=0.5,
        mc={"replicates": 100_000, "n_part": 2000,
            "grid": TimeGrid(0.0, 0.5, 1e-3), "delta": 0.02,
            "seed": 901, "mv_replicates": 10_000})
    el = time.monotonic() - t0
    gap = abs(lhs - rhs)
    tol = 0.02 + 3.0 * (se_l + se_r)
    ok = gap <= tol and el < 600.0
    verdict(7, ok, f"tree side {lhs:.4f}({se_l:.4f}) vs mean-field side "
                   f"{rhs:.4f}({se_r:.4f}), gap {gap:.4f} <= {tol:.4f}, "
                   f"{el:.0f}s")


def test_criterion_08_comparison_ordering():
    fns = tuple(ExpDecreasingConcave((lam,), (t,))
                for lam in (0.5, 1.0, 2.0) for t in (0.5, 1.0))
    cfg = ExperimentConfig(spec=logistic_spec(), grid=TimeGrid(0.0, 1.0, 2e-3),
                           replicates=100_000, seed=801, delta=0.01,
                           theta=0.0, topology=20, x_init=(0.05,) * 20,
                           functionals=fns)
    t0 = time.monotonic()
    report = run_comparison(cfg)
    el = time.monotonic() - t0
    cells = [f"{row[0]}: gap {row[7]:+.4f} thr {row[8]:.4f}"
             for row in report.rows]
    ok = report.verdicts["all_ordered"] and el < 900.0
    verdict(8, ok, f"system <= tree + 3SE in 6/6 cells ({'; '.join(cells)}), "
                   f"{el:.0f}s")


def test_criterion_09_convergence_trend():
    cfg = ExperimentConfig(spec=logistic_spec(), grid=TimeGrid(0.0, 1.0, 0.02),
                           replicates=100_000, seed=802, delta=0.1,
                           theta=1.0, x_init=(), tree_dt=4e-3,
                           n_ladder=(10, 200), tent_support=(0.5, 1.5),
                           eval_time=1.0)
    t0 = time.monotonic()
    report = run_convergence(cfg)
    el = time.monotonic() - t0
    g10 = report.metrics["N=10"]["gap"]
    g200 = report.metrics["N=200"]["gap"]
    ok = report.verdicts["gap_shrinks"] and g200 < g10
    verdict(9, ok, f"tent-sum gap N=200 {g200:.4f} < N=10 {g10:.4f}, {el:.0f}s")


def _run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(args)
    assert rc == 0, buf.getvalue()


def test_criterion_10_determinism_and_range(tmp_path):
    cfg = {"drift": {"family": "logistic", "params": {"gamma": 1.0, "K": 1.0}},
           "diffusion": {"family": "linear", "params": {"beta": 1.0}},
           "domain": {"upper": "inf"},
           "mode": "uniform", "topology": 5, "theta": 0.3,
           "x_init": [0.2, 0.2, 0.2, 0.2, 0.2],
           "horizon": 0.5, "dt": 0.005, "delta": 0.1, "replicates": 400}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    outs = []
    for sub, seed, names in (("simulate", "42", ("simulate.csv", "simulate.json")),
                             ("tree", "7", ("tree.csv",))):
        pair = []
        for rerun in ("a", "b"):
            out = tmp_path / f"{sub}_{rerun}"
            out.mkdir()
            _run_cli([sub, "--config", str(cfg_path), "--seed", seed,
                      "--out", str(out)])
            pair.append(tuple((out / n).read_bytes() for n in names))
        identical = pair[0] == pair[1]
        outs.append((sub, identical))

    sim_csv = (tmp_path / "simulate_a" / "simulate.csv").read_text().splitlines()
    sim_vals = [float(line.rsplit(",", 1)[1]) for line in sim_csv[1:]]
    unbounded_ok = min(sim_vals) >= 0.0

    wf = CoefficientSpec(SelectionMutation(0.6, 0.2), WrightFisher(),
                         DomainInterval(1.0))
    sp = simulate_system(wf, 8, 0.2, np.full(8, 0.5),
                         TimeGrid(0.0, 1.0, 2e-3), seed=64)
    bounded_ok = sp.values.min() >= 0.0 and sp.values.max() <= 1.0

    grid = TimeGrid(0.0, 1.0, 0.01)
    red = {"total": lambda b: b.sum(axis=1)}
    kw = dict(theta=1.0, x0=np.full(4, 0.25), grid=grid, seed=61,
              replicates=10_000, report_nodes=[grid.n_steps], reducers=red)
    unsplit = sample_system_stats(logistic_spec(), 4, tag=1, **kw)
    levels = sample_system_stats(logistic_spec(), 4, tag=2, mode="levels",
                                 k_max=6, **kw)
    ks = stats.ks_2samp(unsplit["total"][0], levels["total"][0])
    level_ok = ks.pvalue > 0.01

    ok = all(ident for _, ident in outs) and unbounded_ok and bounded_ok \
        and level_ok
    detail = (", ".join(f"{sub} rerun byte-identical={ident}"
                        for sub, ident in outs)
              + f", path values >= 0: {unbounded_ok}"
              + f", bounded domain stays in [0,1]: {bounded_ok}"
              + f", level-sum KS p={ks.pvalue:.3f}")
    verdict(10, ok, detail)
