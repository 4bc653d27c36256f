"""Command line driver: formats, determinism, exit codes."""

import json
import math
import os
import time

import pytest

from islandsim.cli import cli_main

LOGISTIC = {
    "drift.family": "logistic",
    "drift.params.gamma": 1.0,
    "drift.params.K": 1.0,
    "diffusion.family": "linear",
    "diffusion.params.beta": 1.0,
    "domain.upper": "inf",
    "replicates": 400,
    "horizon": 0.5,
    "dt": 0.005,
    "delta": 0.1,
    "seed": 7,
}


def write_cfg(tmp_path, name="cfg.json", **extra):
    cfg = dict(LOGISTIC)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_analyze_criterion_in_csv_and_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert cli_main(["analyze", "--config", cfg, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "criterion," in captured
    rows = dict(line.split(",", 1)
                for line in open(os.path.join(out, "analyze.csv"))
                .read().strip().split("\n")[1:])
    assert float(rows["criterion"]) == pytest.approx(math.sqrt(math.pi / 2),
                                                     abs=1e-6)
    assert rows["verdict"] == "survival"
    surv = open(os.path.join(out, "survival.csv")).read().strip().split("\n")
    assert surv[0] == "y,extinction_prob"
    probs = [float(r.split(",")[1]) for r in surv[1:]]
    assert probs[0] == 1.0
    assert all(b < a for a, b in zip(probs, probs[1:]))


def test_simulate_modes(tmp_path):
    for mode, extra in (("single", {}),
                        ("uniform", {"topology": 3, "theta": 1.0}),
                        ("levels", {"topology": 2, "theta": 1.0, "k_max": 2}),
                        ("matrix", {"topology": {
                            "entries": [[0.5, 0.5], [0.5, 0.5]]}}),
                        ("loop_free", {"topology": 2, "theta": 1.0,
                                       "k_max": 1})):
        cfg = write_cfg(tmp_path, f"{mode}.json", mode=mode,
                        x_init=[0.5], **extra)
        out = str(tmp_path / mode)
        assert cli_main(["simulate", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "simulate.csv")).read().split("\n")
        assert lines[0] == "t,island,level,value"
        doc = json.load(open(os.path.join(out, "simulate.json")))
        assert doc["config"]["mode"] == mode
        assert "final_total" in doc["metrics"]


def test_simulate_reads_topology_in_every_system_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, mode="uniform", topology=20, x_init=[0.05] * 20)
    out = str(tmp_path / "u")
    assert cli_main(["simulate", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "simulate.csv")).read().strip().split("\n")
    assert {int(r.split(",")[1]) for r in rows[1:]} == set(range(20))
    cfg = write_cfg(tmp_path, "old.json", mode="levels", n_islands=3)
    assert cli_main(["simulate", "--config", cfg, "--out", out]) == 2
    assert "topology" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["single", "uniform"])
def test_simulate_huge_grid_exits_2(tmp_path, capsys, mode):
    cfg = write_cfg(tmp_path, mode=mode, dt=1e-9)
    assert cli_main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "h")]) == 2
    assert "too large" in capsys.readouterr().err


def test_simulate_matrix_mode_applies_theta(tmp_path):
    cfg = write_cfg(tmp_path, mode="matrix", x_init=[0.0, 0.0], theta=1.0,
                    topology={"entries": [[0.5, 0.5], [0.5, 0.5]]})
    out = str(tmp_path / "m")
    assert cli_main(["simulate", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, "simulate.json")))
    assert doc["metrics"]["final_total"] > 0.0


def test_tree_outputs(tmp_path):
    cfg = write_cfg(tmp_path, theta=1.0, bin_edges=[0.1, 0.5, 1.0],
                    x_init=[0.5])
    out = str(tmp_path / "t")
    assert cli_main(["tree", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "tree.csv")).read().strip().split("\n")
    assert lines[0] == "island_id,parent_id,generation,s,T0,peak,area"
    spec_lines = open(os.path.join(out, "spectrum.csv")).read().strip()
    assert spec_lines.startswith("t,bin_lo,bin_hi,count")
    doc = json.load(open(os.path.join(out, "tree.json")))
    assert doc["metrics"]["islands"] == len(lines) - 1


def test_duality_byte_determinism(tmp_path):
    cfg = write_cfg(tmp_path, replicates=1200, n_part=150,
                    mv_replicates=300, delta=0.05,
                    duality_points=[[1.0, 1.0, 0.5]])
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert cli_main(["duality", "--config", cfg, "--seed", "42",
                     "--out", out1]) == 0
    assert cli_main(["duality", "--config", cfg, "--seed", "42",
                     "--out", out2]) == 0
    for name in ("duality.csv", "duality.json"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2
    header = open(os.path.join(out1, "duality.csv")).readline().strip()
    assert header == "t,x,y,lhs,se_lhs,rhs,se_rhs,gap"


def test_seed_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, replicates=1200, n_part=150,
                    mv_replicates=300, delta=0.05,
                    duality_points=[[1.0, 1.0, 0.5]])
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    cli_main(["duality", "--config", cfg, "--seed", "1", "--out", out1])
    cli_main(["duality", "--config", cfg, "--seed", "2", "--out", out2])
    a = open(os.path.join(out1, "duality.csv")).read()
    b = open(os.path.join(out2, "duality.csv")).read()
    assert a != b


def test_compare_and_converge_run(tmp_path):
    cfg = write_cfg(
        tmp_path, topology=4, x_init=[0.2, 0.2], theta=0.0,
        functionals=[{"kind": "one_minus_exp", "lambdas": [1.0],
                      "times": [0.5]}])
    out = str(tmp_path / "cmp")
    assert cli_main(["compare", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "comparison.csv"))

    cfg2 = write_cfg(tmp_path, "conv.json", theta=1.0, n_ladder=[1, 4],
                     eval_time=0.5)
    out2 = str(tmp_path / "conv")
    assert cli_main(["converge", "--config", cfg2, "--out", out2]) == 0
    assert os.path.exists(os.path.join(out2, "convergence.json"))


def test_compare_functionals_on_one_node_share_its_row(tmp_path):
    # 0.5 and 0.5000000001 are one node at dt 0.005: the engines report it
    # once and both functionals read that row
    cfg = write_cfg(
        tmp_path, topology=4, x_init=[0.2, 0.2], theta=0.0,
        functionals=[{"kind": "one_minus_exp", "lambdas": [1.0],
                      "times": [0.5]},
                     {"kind": "one_minus_exp", "lambdas": [0.5, 0.5],
                      "times": [0.5, 0.5000000001]}])
    out = str(tmp_path / "cmp")
    assert cli_main(["compare", "--config", cfg, "--out", out]) == 0
    m = json.load(open(os.path.join(out, "comparison.json")))["metrics"]
    a, b = m["one_minus_exp[1@0.5]"], m["one_minus_exp[0.5@0.5,0.5@0.5]"]
    for key in ("mean_system", "mean_loop_free", "mean_tree"):
        assert a[key] == b[key]


def test_compare_functionals_with_one_label_exit_2(tmp_path, capsys):
    # both print as one_minus_exp[1@0.5]; one would overwrite the other's
    # metrics and verdict in comparison.json
    cfg = write_cfg(
        tmp_path, topology=4, x_init=[0.2, 0.2], theta=0.0,
        functionals=[{"kind": "one_minus_exp", "lambdas": [1.0],
                      "times": [t]} for t in (0.5, 0.5000000001)])
    assert cli_main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "cmp")]) == 2
    assert "one_minus_exp[1@0.5] repeats" in capsys.readouterr().err


def test_duality_tiny_delta_outgrows_the_tree_slots_exits_3(tmp_path, capsys):
    # supercritical logistic, delta 1e-9: the first step's births alone pass
    # the 256 MB slot budget, so the run stops before allocating them
    cfg = write_cfg(tmp_path, **{"drift.params.gamma": 3.0}, delta=1e-9,
                    replicates=1000, n_part=100,
                    duality_points=[[1.0, 1.0, 0.5]])
    assert cli_main(["duality", "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3
    assert "raise delta" in capsys.readouterr().err


def test_tree_tiny_delta_outgrows_the_path_budget_exits_3(tmp_path, capsys):
    # delta 1e-9 asks for about 1e8 immigrants, 1e-300 for a Poisson mean
    # numpy cannot draw: both stop before the draw, within seconds
    for delta in (1e-9, 1e-300):
        cfg = write_cfg(tmp_path, theta=1.0, x_init=[0.5], horizon=0.1,
                        dt=0.01, delta=delta)
        t0 = time.perf_counter()
        assert cli_main(["tree", "--config", cfg,
                         "--out", str(tmp_path / "t")]) == 3
        assert time.perf_counter() - t0 < 30.0
        assert "raise delta" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tree", "compare", "duality",
                                     "identities", "converge"])
def test_delta_1e_300_keeps_the_exit_contract(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, delta=1e-300, theta=1.0, x_init=[0.5],
                    horizon=0.1, dt=0.01, topology=4, n_ladder=[1, 4],
                    eval_time=0.1, n_part=100,
                    duality_points=[[1.0, 1.0, 0.1]],
                    functionals=[{"kind": "one_minus_exp", "lambdas": [1.0],
                                  "times": [0.1]}])
    assert cli_main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) in (2, 3)
    assert len(capsys.readouterr().err) < 300


def test_compare_tiny_delta_with_cap_0_allocates_nothing(tmp_path):
    # with generation_cap 0 the tree only counts its births: their mean
    # passes the slot budget at delta 1e-9, but no slot is allocated
    cfg = write_cfg(tmp_path, **{"drift.params.gamma": 3.0}, delta=1e-9,
                    topology=4, x_init=[0.2, 0.2], theta=0.0,
                    generation_cap=0,
                    functionals=[{"kind": "one_minus_exp", "lambdas": [1.0],
                                  "times": [0.5]}])
    assert cli_main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "cmp")]) == 0


def test_tree_horizon_under_half_a_step_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, horizon=1e-9, dt=1.0, x_init=[0.5])
    assert cli_main(["tree", "--config", cfg,
                     "--out", str(tmp_path / "t")]) == 2
    assert "one step" in capsys.readouterr().err


def test_identities_run(tmp_path):
    cfg = write_cfg(tmp_path, theta=1.0, eps=0.05, horizon=2.0)
    out = str(tmp_path / "ids")
    assert cli_main(["identities", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, "identities.json")))
    assert "speed_snapshot_chi2_ok" in doc["verdicts"]


# -- exit codes ---------------------------------------------------------------------

def test_unknown_flag_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli_main(["analyze", "--config", cfg, "--frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    assert cli_main(["analyze", "--config", "/nonexistent.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["analyze", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_unknown_family_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{"drift.family": "cubic"})
    assert cli_main(["analyze", "--config", cfg]) == 2
    assert "cubic" in capsys.readouterr().err


def test_mismatched_functional_class_exits_2(tmp_path, capsys):
    cfg = tmp_path / "wf.json"
    cfg.write_text(json.dumps({
        "drift": {"family": "logistic", "params": {"gamma": 1.0, "K": 1.0}},
        "diffusion": {"family": "wright_fisher", "params": {}},
        "domain": {"upper": 1.0},
        "replicates": 200, "horizon": 0.5, "dt": 0.005, "delta": 0.05,
        "topology": 3,
        "functionals": [{"kind": "one_minus_exp", "lambdas": [1.0],
                         "times": [0.5]}]}))
    assert cli_main(["compare", "--config", str(cfg)]) == 2
    assert "class" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    # mu(x) = x cancels the restoring drift: the criterion integral diverges
    cfg = tmp_path / "div.json"
    cfg.write_text(json.dumps({
        "drift": {"family": "linear", "params": {"c": 1.0}},
        "diffusion": {"family": "linear", "params": {"beta": 1.0}},
        "domain": {"upper": "inf"}}))
    assert cli_main(["analyze", "--config", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def _power_cfg(tmp_path, kappa3):
    cfg = tmp_path / f"power_{kappa3}.json"
    cfg.write_text(json.dumps({
        "drift": {"family": "power",
                  "params": {"c1": 1.0, "kappa1": 1.0, "c2": 1.0, "kappa2": 2.0}},
        "diffusion": {"family": "power",
                      "params": {"c3": 1.0, "kappa3": kappa3}}}))
    return str(cfg)


def test_analyze_power_diffusion_singular_at_zero(tmp_path, capsys):
    # sigma2(y)/y = y^{1/2} vanishes at 0, so 2/(sigma2(y)/y) is singular
    # there; Theta = int_0^inf 2 y^{-1/2} exp(-(4/3) y^{3/2}) dy
    # = (4/3) (3/4)^{1/3} Gamma(1/3)
    out = str(tmp_path / "out")
    assert cli_main(["analyze", "--config", _power_cfg(tmp_path, 1.5),
                     "--out", out]) == 0
    capsys.readouterr()
    rows = dict(line.split(",", 1)
                for line in open(os.path.join(out, "analyze.csv"))
                .read().strip().split("\n")[1:])
    target = (4.0 / 3.0) * 0.75 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0)
    assert target == pytest.approx(3.2453029, rel=1e-7)
    assert float(rows["criterion"]) == pytest.approx(target, rel=1e-4)


def test_analyze_power_diffusion_divergent_at_zero_exits_3(tmp_path, capsys):
    # kappa3 = 2: the criterion integrand is 2/y near 0, not integrable
    assert cli_main(["analyze", "--config", _power_cfg(tmp_path, 2.0),
                     "--out", str(tmp_path / "out")]) == 3
    assert "diverge" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert cli_main([]) == 2
    capsys.readouterr()
