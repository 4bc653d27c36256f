"""Command line driver: formats, determinism, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import islandsim
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


def test_simulate_single_follows_boundary(tmp_path):
    paths = {}
    for boundary in ("exact", "clip"):
        cfg = write_cfg(tmp_path, f"{boundary}.json", mode="single",
                        x_init=[0.01], boundary=boundary)
        out = str(tmp_path / boundary)
        assert cli_main(["simulate", "--config", cfg, "--out", out]) == 0
        paths[boundary] = open(os.path.join(out, "simulate.csv")).read()
    assert paths["exact"] != paths["clip"]


@pytest.mark.parametrize("command", ["simulate", "analyze", "compare"])
def test_unknown_boundary_exits_2_before_any_engine_runs(tmp_path, capsys,
                                                         monkeypatch, command):
    def engine(*args, **kwargs):
        raise AssertionError("an engine ran before the config was checked")

    monkeypatch.setattr("islandsim.experiments.sample_system_stats", engine)
    monkeypatch.setattr("islandsim.experiments.simulate_system", engine)
    cfg = write_cfg(tmp_path, mode="uniform", topology=3, x_init=[0.2],
                    boundary="bogus")
    assert cli_main([command, "--config", cfg,
                     "--out", str(tmp_path / "b")]) == 2
    assert "boundary" in capsys.readouterr().err


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


def test_tree_files_end_lines_with_lf(tmp_path):
    # like every other CSV of the package; csv.writer's default is CRLF
    cfg = write_cfg(tmp_path, theta=1.0, bin_edges=[0.1, 0.5, 1.0],
                    x_init=[0.5])
    out = tmp_path / "t"
    assert cli_main(["tree", "--config", cfg, "--out", str(out)]) == 0
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["spectrum.csv", "tree.csv", "tree.json"]
    for f in files:
        assert b"\r" not in f.read_bytes(), f.name


def test_tree_json_does_not_depend_on_the_out_dir(tmp_path):
    cfg = write_cfg(tmp_path, theta=1.0, bin_edges=[0.1, 0.5, 1.0],
                    x_init=[0.5])
    outs = [str(tmp_path / "a"), str(tmp_path / "deeper" / "b")]
    for out in outs:
        assert cli_main(["tree", "--config", cfg, "--out", out]) == 0
    docs = [open(os.path.join(out, "tree.json"), "rb").read() for out in outs]
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["metrics"]["spectrum_csv"] == "spectrum.csv"


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
    # delta 1e-9 asks for about 1e7 immigrants in the first step, past the
    # 3.4e6 islands of the budget, and 1e-300 for a Poisson mean numpy
    # cannot draw: both stop before the draw, within seconds
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


_BIG = 10 ** 400  # a JSON integer past the float range
_HUGE = 10 ** 18  # a float-sized budget past every array budget
_ONE = [{"kind": "one_minus_exp", "lambdas": [1.0], "times": [0.5]}]


@pytest.mark.parametrize("command, extra, key", [
    ("compare", {"horizon": math.inf}, "horizon"),
    ("tree", {"horizon": math.inf}, "horizon"),
    ("analyze", {"dt": math.nan}, "dt"),
    ("tree", {"eval_time": math.nan, "bin_edges": [0.1, 1.0]}, "eval_time"),
    ("tree", {"eval_time": 0.123, "dt": 0.01}, "eval_time"),
    ("compare", {"theta": math.nan}, "theta"),
    ("tree", {"theta": math.nan}, "theta"),
    ("tree", {"theta": math.inf}, "theta"),
    ("tree", {"x_init": [math.nan]}, "x_init"),
    ("tree", {"bin_edges": ["a", "b"]}, "bin_edges"),
    ("tree", {"generation_cap": "x"}, "generation_cap"),
    ("tree", {"x_init": 0.5}, "x_init"),
    ("tree", {"delta": "x"}, "delta"),
    ("compare", {"topology": True}, "topology"),
    ("compare", {"topology": {"entries": [["a"]]}}, "topology"),
    ("duality", {"duality_points": [1.0]}, "duality_points"),
    ("compare", {"functionals": [{"kind": "one_minus_exp", "lambdas": "x",
                                  "times": [0.5]}]}, "lambdas"),
    ("duality", {"n_part": 0}, "n_part"),
    ("duality", {"n_part": 1}, "n_part"),
    ("duality", {"mv_replicates": 0}, "mv_replicates"),
    ("identities", {"eps": 0.0}, "eps"),
    ("identities", {"eps": 0.1}, "eps"),              # eps == delta
    ("identities", {"eps": 0.5}, "eps"),
    ("identities", {"replicates": 150.7}, "replicates"),  # not truncated
    ("identities", {"seed": 2.9}, "seed"),
    ("compare", {"seed": True}, "seed"),
    ("identities", {"seed": -1}, "seed"),
    # integers too large for a float, anywhere in the config
    ("analyze", {"drift.params.gamma": _BIG}, "drift.params.gamma"),
    ("analyze", {"domain.upper": _BIG}, "domain.upper"),
    ("compare", {"topology": {"entries": [[_BIG]]}}, "topology.entries"),
    ("tree", {"bin_edges": [0.1, _BIG]}, "bin_edges"),
    ("compare", {"functionals": [{"kind": "one_minus_exp", "lambdas": [_BIG],
                                  "times": [0.5]}]}, "lambdas"),
    ("duality", {"duality_points": [[_BIG, 1.0, 0.5]]}, "duality_points"),
    ("converge", {"tent_support": [0.5, _BIG]}, "tent_support"),
    ("tree", {"eval_time": _BIG}, "eval_time"),
    ("analyze", {"y_grid": [_BIG]}, "y_grid"),
    ("simulate", {"theta": _BIG}, "theta"),
    ("tree", {"theta": _BIG}, "theta"),
    ("tree", {"x_init": [_BIG]}, "x_init"),
    ("simulate", {"dt": _BIG}, "dt"),  # named without its 401 digits
    # strings are refused, not parsed
    ("simulate", {"dt": "0.01"}, "dt"),
    ("simulate", {"horizon": "0.5"}, "horizon"),
    ("simulate", {"delta": "0.1"}, "delta"),
    *(("compare", {"diag_fraction": bad, "functionals": _ONE}, "diag_fraction")
      for bad in (math.nan, math.inf, 1e300)),
    # an infinite weight or support would write NaN into the report
    ("compare", {"functionals": [{"kind": "one_minus_exp",
                                  "lambdas": [math.inf], "times": [0.5]}]},
     "lambdas"),
    ("converge", {"tent_support": [0.5, math.inf]}, "tent_support"),
    # well-formed budgets whose arrays would pass 256 MB: exit 2 before the
    # allocation, not numpy's MemoryError (exit 1) or a run without end
    *(("compare", {key: _HUGE, "functionals": _ONE}, key)
      for key in ("replicates", "k_max", "topology")),
    ("converge", {"replicates": _HUGE}, "replicates"),
    ("converge", {"n_ladder": [2, _HUGE]}, "n_ladder"),
    *(("duality", {key: _HUGE}, key)
      for key in ("n_part", "replicates", "mv_replicates")),
    ("identities", {"replicates": _HUGE}, "replicates"),
    ("simulate", {"mode": "levels", "k_max": _HUGE}, "k_max"),
])
def test_bad_config_value_exits_2_and_names_it(tmp_path, capsys, command,
                                               extra, key):
    cfg = write_cfg(tmp_path, **{"topology": 2, "x_init": [0.5],
                                 "theta": 1.0, **extra})
    assert cli_main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert key in err or "horizon and dt must be finite" in err
    assert len(err) < 300
    assert not os.path.exists(tmp_path / "o")  # refused before any output


@pytest.mark.parametrize("command, extra, key, engine", [
    *(("duality", {key: _HUGE}, key, "islandsim.mean_field.sample_tree_stats")
      for key in ("n_part", "mv_replicates")),
    ("compare", {"k_max": _HUGE, "functionals": _ONE}, "k_max",
     "islandsim.experiments.sample_system_stats"),
    ("converge", {"n_ladder": [2, _HUGE]}, "n_ladder",
     "islandsim.experiments.sample_tree_stats"),
])
def test_budget_is_refused_before_the_first_engine_runs(tmp_path, capsys,
                                                        monkeypatch, command,
                                                        extra, key, engine):
    # the mean field, the loop-free run and the last ladder rung come last,
    # but their budgets are checked before the first engine starts
    def first_engine(*args, **kwargs):
        raise AssertionError("an engine ran before the budget was checked")

    monkeypatch.setattr(engine, first_engine)
    cfg = write_cfg(tmp_path, **{"topology": 2, "x_init": [0.5],
                                 "theta": 1.0, **extra})
    assert cli_main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


# key -> (well-formed values, malformed ones); well-formed values can still
# fail a check (an off-grid dt) or outgrow the tree (delta 1e-300), and
# null keeps the default
_TREE_FUZZ = {
    "delta": ((0.1, 0.3, 1e-300, None),
              (0.0, -1.0, math.nan, math.inf, -math.inf, "x", [0.1])),
    "theta": ((0.0, 1.0, None), (-1.0, math.nan, math.inf, "x", [1.0])),
    "x_init": (([], [0.5], [0.2, 0.0], [1e300], None),
               ([-0.1], [math.nan], [math.inf], ["a"], 0.5, "x")),
    "horizon": ((0.1, 0.2, None), (0.0, -1.0, math.nan, math.inf, "x",
                                   [0.1])),
    "dt": ((0.01, 0.05, 0.03, None),
           (0.0, 1e-300, math.nan, math.inf, -math.inf, "x")),
    "eval_time": ((0.0, 0.1, 0.05, None), (0.123, -1.0, math.nan, math.inf,
                                           "x", [0.1])),
    "bin_edges": (([0.1, 0.5], [0.1, math.inf], None),
                  ([0.5, 0.1], [], [0.0, 1.0], [math.nan, 1.0], ["a", "b"],
                   0.5, "x")),
    "generation_cap": ((0, 1, 50, -1, None), (2.5, math.nan, "x", [1])),
}


def _fuzz_value(good, bad):
    # three draws in four well-formed, so whole configs often run
    return st.one_of(st.sampled_from(good), st.sampled_from(good),
                     st.sampled_from(good), st.sampled_from(bad))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({}, optional={
    key: _fuzz_value(*values) for key, values in _TREE_FUZZ.items()}))
def test_tree_fuzzed_config_keeps_the_exit_contract(tmp_path_factory, extra):
    # any value of these keys, however malformed, ends in exit 0, 2 or 3
    cfg = dict(LOGISTIC, horizon=0.1, dt=0.01)
    cfg.update(extra)
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = cli_main(["tree", "--config", str(path), "--out", str(tmp)])
    assert rc in (0, 2, 3)


# identities and duality values per key, well-formed or not; the budgets
# stay tiny (about 100 replicates, 10 to 1000 steps, a few particles), so a
# run takes milliseconds
_IDENTITIES_FUZZ = {
    "eps": (1e-3, 0.02, None, 0.0, -1e-3, 0.1, 0.5, math.nan, math.inf, "x"),
    "delta": (0.1, 0.3, None, 0.0, 1e-300, -1.0, math.nan, math.inf, "x"),
    "bin_edges": ([0.3, 0.5], [0.3, 1.0, math.inf], None, [0.5, 0.3],
                  [0.05, 0.5], [0.3, math.nan], [], "x"),
    # 1e-3 and 1e-4 put the splitting floor 32 beta dt inside (eps, delta)
    "dt": (0.01, 0.02, 1e-3, 1e-4, None, 0.0, 0.03, math.nan, math.inf, "x"),
    "horizon": (0.1, 0.2, None, 0.0, -1.0, math.inf, "x"),
    "replicates": (100, 101, 99, 0, 2.5, "x", _HUGE),
}
_DUALITY_FUZZ = {
    "n_part": (2, 5, 0, 1, -3, 2.5, math.nan, "x", _HUGE),
    "mv_replicates": (1, 4, 12, None, 0, -1, 2.5, "x", _HUGE),
    "duality_points": (
        [[1.0, 1.0, 0.1]], [[0.5, 2.0, 0.0]],
        [[0.2, 0.3, 0.05], [1.0, 1.0, 0.1]], [[1.0, 1.0, -0.1]],
        [[math.nan, 1.0, 0.1]], [[1.0, math.inf, 0.1]],
        [[1.0, 1.0, math.inf]], [[1.0, 1.0, math.nan]], [[1.0, 1.0, 0.123]],
        [1.0], [["a", 1.0, 1.0]], []),
    "horizon": (0.1, None, 0.0, math.inf),
}
# the run keys every command reads, and those of compare, converge, simulate
# and analyze: strings, booleans, floats for integers, Infinity and integers
# past the float range among them
_COMMON_FUZZ = {
    "seed": (0, 7, 2 ** 70, None, -1, 2.5, True, "7", math.inf, _BIG),
    "replicates": (100, 120, None, 99, 0, 100.0, False, "100", math.inf, _BIG,
                   _HUGE),
    "dt": (0.01, 0.02, None, 0.0, 0.03, -0.01, True, "0.01", math.nan,
           math.inf, _BIG),
    "delta": (0.1, 0.3, None, 0.0, -1.0, 1e-300, True, "0.1", math.inf, _BIG),
    "horizon": (0.1, 0.2, None, 0.0, -1.0, False, "0.1", math.inf, _BIG),
}
_AT_01 = [{"kind": "one_minus_exp", "lambdas": [1.0], "times": [0.1]}]
_FUNCTIONAL_FUZZ = (
    _AT_01, None, [], [{"kind": "monomial", "times": [0.1, 0.05]}],
    [{"kind": "step", "thresholds": [0.1], "widths": [0.2], "times": [0.1]}],
    [{"kind": "step", "thresholds": [0.1], "widths": [0.0], "times": [0.1]}],
    [{"kind": "one_minus_exp", "lambdas": [1.0], "times": [0.123]}],
    [{"kind": "one_minus_exp", "lambdas": [math.inf], "times": [0.1]}],
    [{"kind": "one_minus_exp", "lambdas": [-1.0], "times": [0.1]}],
    [{"kind": "one_minus_exp", "lambdas": [_BIG], "times": [0.1]}],
    [{"kind": "cubic"}], "x")
_TOPOLOGY_FUZZ = (2, 3, {"entries": [[0.5, 0.5], [0.5, 0.5]]}, None, 0, -1,
                  2.5, True, "2", [[1.0]], {"entries": [[math.nan]]},
                  {"entries": [[math.inf, 0.0], [0.0, 1.0]]}, _BIG, _HUGE)
_X_INIT_FUZZ = ([0.2], [0.1, 0.1], [], None, [0.1] * 4, [-0.1], [math.nan],
                [math.inf], ["a"], 0.5, [True], [_BIG])
_COMPARE_FUZZ = dict(
    _COMMON_FUZZ, topology=_TOPOLOGY_FUZZ, x_init=_X_INIT_FUZZ,
    functionals=_FUNCTIONAL_FUZZ,
    theta=(0.0, 1.0, None, -1.0, math.nan, math.inf, "1", True, _BIG),
    diag_fraction=(0.1, 0.5, 1.0, 0.0, None, -0.1, 1.5, math.nan, math.inf,
                   1e300, "x", True, _BIG),
    k_max=(0, 2, None, -1, 2.5, "x", True, _BIG, _HUGE),
    generation_cap=(0, 1, None, -1, 2.5, "x", _BIG),
    tree_dt=(0.01, 0.02, None, 0.03, 0.0, -0.01, math.nan, math.inf, "x"),
    boundary=("exact", "clip", "bridge", None, "bogus", 1, True, ["exact"]))
_CONVERGE_FUZZ = dict(
    _COMMON_FUZZ, x_init=_X_INIT_FUZZ, theta=_COMPARE_FUZZ["theta"],
    n_ladder=([1, 2], [3], [2, 1], None, [], [0], [-1], [2.5], [math.inf],
              [math.nan], [True], ["a"], "x", [_BIG], [2, _HUGE]),
    tent_support=([0.5, 1.5], [0.1, 0.3], None, [1.5, 0.5], [0.0, 1.0],
                  [0.5], [0.5, 1.0, 2.0], [math.nan, 1.0], [0.5, math.inf],
                  [], "x", [0.5, _BIG]),
    eval_time=(0.1, 0.05, 0.0, None, 0.123, -1.0, math.nan, math.inf, "x",
               _BIG))
_SIMULATE_FUZZ = dict(
    _COMMON_FUZZ, topology=_TOPOLOGY_FUZZ, x_init=_X_INIT_FUZZ,
    theta=_COMPARE_FUZZ["theta"], k_max=_COMPARE_FUZZ["k_max"],
    boundary=_COMPARE_FUZZ["boundary"],
    mode=("single", "uniform", "matrix", "levels", "loop_free", None, "bogus",
          1, True, ["single"], {"mode": "single"}))
_ANALYZE_FUZZ = dict(
    _COMMON_FUZZ,
    y_grid=([0.0, 1.0], [2.0], None, [], [-1.0], [math.nan], [math.inf],
            ["a"], "x", 1.0, [_BIG]))


def _pairs_of_keys(values):
    # one or two keys off a well-formed base config at a time, so a small
    # example budget reaches each malformed value with the rest well-formed
    return st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=2,
                    unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                        {k: st.sampled_from(values[k]) for k in keys}))


@pytest.mark.parametrize("command, values, base", [
    ("identities", _IDENTITIES_FUZZ, {"theta": 1.0, "eps": 0.02}),
    ("duality", _DUALITY_FUZZ, {"n_part": 3, "mv_replicates": 6}),
    ("compare", _COMPARE_FUZZ, {"topology": 2, "x_init": [0.2],
                                "functionals": _AT_01}),
    ("converge", _CONVERGE_FUZZ, {"n_ladder": [1, 2], "x_init": [0.2],
                                  "theta": 1.0}),
    ("simulate", _SIMULATE_FUZZ, {"topology": 2, "x_init": [0.2]}),
    ("analyze", _ANALYZE_FUZZ, {}),
])
def test_fuzzed_run_config_keeps_the_exit_contract(tmp_path_factory, command,
                                                   values, base):
    # about two draws per value, at least 60
    @settings(max_examples=max(60, 2 * sum(map(len, values.values()))),
              deadline=None, derandomize=True)
    @given(_pairs_of_keys(values))
    def run(extra):
        cfg = dict(LOGISTIC, horizon=0.1, dt=0.01, replicates=100, **base)
        cfg.update(extra)
        tmp = tmp_path_factory.mktemp("fuzz")
        path = tmp / "cfg.json"
        path.write_text(json.dumps(cfg))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = cli_main([command, "--config", str(path), "--out", str(tmp)])
        assert rc in (0, 2, 3)
    run()


def test_identities_run(tmp_path):
    cfg = write_cfg(tmp_path, theta=1.0, eps=0.05, horizon=2.0)
    out = str(tmp_path / "ids")
    assert cli_main(["identities", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, "identities.json")))
    assert "speed_snapshot_chi2_ok" in doc["verdicts"]


def test_identities_run_loads_no_scipy_stats(tmp_path):
    # scipy.stats costs about 0.5 s of start-up; the chi-square quantile
    # is computed in the package, so neither the import nor a run loads it
    cfg = tmp_path / "feller.json"
    cfg.write_text(json.dumps({
        "drift": {"family": "linear", "params": {"c": 0.0}},
        "diffusion": {"family": "linear", "params": {"beta": 1.0}},
        "eps": 1e-3, "dt": 1e-2, "horizon": 2.0, "delta": 0.1,
        "theta": 1.0, "replicates": 200}))
    code = (
        "import sys\n"
        "def stats():\n"
        "    return [m for m in sys.modules\n"
        "            if m == 'scipy.stats' or m.startswith('scipy.stats.')]\n"
        "import islandsim\n"
        "from islandsim.cli import cli_main\n"
        "assert not stats(), stats()\n"
        f"assert cli_main(['identities', '--config', {str(cfg)!r},\n"
        f"                 '--out', {str(tmp_path / 'ids')!r}]) == 0\n"
        "assert not stats(), stats()\n")
    src = os.path.dirname(os.path.dirname(islandsim.__file__))
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    doc = json.load(open(tmp_path / "ids" / "identities.json"))
    assert doc["metrics"]["speed_snapshot"]["crit_99"] == \
        float(stats.chi2.ppf(0.99, 4))


def test_runs_load_no_scipy_integrate_optimize_or_stats(tmp_path):
    # the analytics integrate with their own Gauss-Kronrod rule, so the
    # import and the commands that run quadrature load none of these
    logistic = write_cfg(tmp_path, "logistic.json")
    tree = write_cfg(tmp_path, "tree.json", theta=1.0, x_init=[0.5],
                     bin_edges=[0.1, 0.5, 1.0])
    feller = tmp_path / "feller.json"
    feller.write_text(json.dumps({
        "drift": {"family": "linear", "params": {"c": 0.0}},
        "diffusion": {"family": "linear", "params": {"beta": 1.0}},
        "eps": 1e-3, "dt": 1e-2, "horizon": 2.0, "delta": 0.1,
        "theta": 1.0, "replicates": 200}))
    code = (
        "import sys\n"
        "def heavy():\n"
        "    return [m for m in sys.modules if m.startswith(\n"
        "        ('scipy.integrate', 'scipy.optimize', 'scipy.stats'))]\n"
        "import islandsim\n"
        "from islandsim.cli import cli_main\n"
        "assert not heavy(), heavy()\n"
        f"for cmd, cfg in (('analyze', {logistic!r}),\n"
        f"                 ('identities', {str(feller)!r}),\n"
        f"                 ('tree', {tree!r})):\n"
        f"    out = {str(tmp_path)!r} + '/' + cmd\n"
        "    assert cli_main([cmd, '--config', cfg, '--out', out]) == 0, cmd\n"
        "    assert not heavy(), (cmd, heavy())\n")
    src = os.path.dirname(os.path.dirname(islandsim.__file__))
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr

# the files each command writes into --out (the README's table)
_FILES = {"analyze": ["analyze.csv", "analyze.json", "survival.csv"],
          "simulate": ["simulate.csv", "simulate.json"],
          "tree": ["spectrum.csv", "tree.csv", "tree.json"],
          "duality": ["duality.csv", "duality.json"],
          "compare": ["comparison.csv", "comparison.json"],
          "converge": ["convergence.csv", "convergence.json"],
          "identities": ["identities.csv", "identities.json"]}


def test_every_command_runs_with_scipy_imports_blocked(tmp_path):
    # numpy is the only runtime dependency: with a finder in front that
    # refuses every scipy import, the package imports and all seven
    # commands run, and no scipy module is ever loaded; each writes the
    # files of its row in the README table, and a tree without bin_edges
    # writes no spectrum.csv
    logistic = {"drift": {"family": "logistic",
                          "params": {"gamma": 1.0, "K": 1.0}},
                "diffusion": {"family": "linear", "params": {"beta": 1.0}}}
    small = dict(logistic, dt=0.01, horizon=0.5, delta=0.1, replicates=100)
    one = [{"kind": "one_minus_exp", "lambdas": [1.0], "times": [0.5]}]
    configs = {
        "analyze": logistic,
        "simulate": dict(small, mode="levels", topology=3, k_max=2,
                         theta=1.0, x_init=[0.2] * 3),
        "tree": dict(small, theta=1.0, x_init=[0.5], eval_time=0.3,
                     bin_edges=[0.1, 0.5, 1.0]),
        "duality": dict(small, duality_points=[[1.0, 1.0, 0.5]], n_part=100,
                        mv_replicates=100),
        "compare": dict(small, topology=4, x_init=[0.05] * 4,
                        functionals=one),
        "converge": dict(small, x_init=[0.05], n_ladder=[2, 4],
                         functionals=one),
        "identities": {"drift": {"family": "linear", "params": {"c": 0.0}},
                       "diffusion": {"family": "linear",
                                     "params": {"beta": 1.0}},
                       "eps": 1e-3, "dt": 1e-2, "horizon": 2.0,
                       "delta": 0.1, "theta": 1.0, "replicates": 200},
    }
    runs = {cmd: cmd for cmd in configs}
    configs["tree_without_bins"] = dict(small, theta=1.0, x_init=[0.5])
    runs["tree_without_bins"] = "tree"
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import islandsim\n"
        "from islandsim.cli import cli_main\n"
        "assert not scipy_modules(), scipy_modules()\n"
        f"for name, cmd in {runs!r}.items():\n"
        f"    cfg = {str(tmp_path)!r} + '/' + name + '.json'\n"
        f"    out = {str(tmp_path)!r} + '/out/' + name\n"
        "    assert cli_main([cmd, '--config', cfg, '--out', out]) == 0, cmd\n"
        "    assert not scipy_modules(), (cmd, scipy_modules())\n")
    src = os.path.dirname(os.path.dirname(islandsim.__file__))
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert sorted(os.listdir(tmp_path / "out")) == sorted(configs)
    for name, cmd in runs.items():
        files = [f for f in _FILES[cmd]
                 if name == cmd or f != "spectrum.csv"]
        assert sorted(os.listdir(tmp_path / "out" / name)) == files, name


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


def test_overflowing_growth_criterion_exits_3(tmp_path, capsys):
    # gamma 40, beta 0.01: the survival criterion's integrand
    # exp(39 x - 0.2 x^2) peaks near e^1900, past the float range
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({
        "drift": {"family": "logistic", "params": {"gamma": 40.0, "K": 1.0}},
        "diffusion": {"family": "linear", "params": {"beta": 0.01}}}))
    assert cli_main(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
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
