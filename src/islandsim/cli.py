"""Command line driver.

Subcommands: analyze, simulate, tree, duality, compare, converge,
identities.  Every run loads a JSON config (see `config`), applies the
command line overrides (--seed, --replicates, --dt, --delta), executes, and
writes CSV plus JSON summary files into --out.  Exit codes: 0 success, 2
configuration or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import build_spec, load_config
from .exceptions import (ConfigError, DivergenceError, DomainError,
                         RegimeError, SolverError)
from .experiments import (ExperimentConfig, ExperimentReport,
                          ExpDecreasingConcave, MixedMonomial, SmoothedStep,
                          _system_x0, run_analyze, run_comparison,
                          run_convergence, run_duality, run_identity_suite,
                          snapshot_config)
from .sde import (MigrationMatrix, TimeGrid, export_path_csv, simulate_single,
                  simulate_system)
from .virgin_island import build_tree, export_spectrum_csv, export_tree_csv

__all__ = ["cli_main", "main"]

_COMMANDS = ("analyze", "simulate", "tree", "duality", "compare", "converge",
             "identities")
# simulate mode -> simulate_system mode; "single" runs simulate_single
_SYSTEM_MODES = {"uniform": "unsplit", "matrix": "unsplit", "levels": "levels",
                 "loop_free": "loop_free"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="islandsim",
        description="Island-diffusion simulation and analytics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} task")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
    return parser


def _functional_from(entry: dict):
    kind = entry.get("kind")
    try:
        if kind == "one_minus_exp":
            return ExpDecreasingConcave(tuple(entry["lambdas"]),
                                        tuple(entry["times"]))
        if kind == "monomial":
            return MixedMonomial(tuple(entry["times"]))
        if kind == "step":
            return SmoothedStep(tuple(entry["thresholds"]),
                                tuple(entry["widths"]), tuple(entry["times"]))
    except KeyError as e:
        raise ConfigError(f"functional {kind!r} misses field {e.args[0]!r}") from None
    raise ConfigError(f"unknown functional kind {kind!r}; "
                      "choose one_minus_exp, monomial, or step")


def _topology_from(raw):
    if raw is None or isinstance(raw, int):
        return raw
    if isinstance(raw, dict) and "entries" in raw:
        return MigrationMatrix(np.asarray(raw["entries"], dtype=float))
    raise ConfigError("topology must be an island count or {'entries': [[...]]}")


def _experiment_config(raw: dict, spec, args) -> ExperimentConfig:
    seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
    dt = args.dt if args.dt is not None else float(raw.get("dt", 1e-3))
    delta = args.delta if args.delta is not None else float(raw.get("delta", 0.05))
    replicates = args.replicates if args.replicates is not None \
        else int(raw.get("replicates", 1000))
    horizon = float(raw.get("horizon", 1.0))
    kwargs = {}
    for key in ("theta", "x_init", "tree_dt", "boundary", "generation_cap",
                "n_ladder", "tent_support", "eval_time", "eps", "bin_edges",
                "n_part", "mv_replicates", "duality_points", "diag_fraction",
                "k_max", "y_grid"):
        if key in raw:
            kwargs[key] = tuple(raw[key]) if isinstance(raw[key], list) \
                else raw[key]
    if "duality_points" in kwargs:
        kwargs["duality_points"] = tuple(
            tuple(p) for p in raw["duality_points"])
    if "functionals" in raw:
        kwargs["functionals"] = tuple(_functional_from(e)
                                      for e in raw["functionals"])
    kwargs["topology"] = _topology_from(raw.get("topology"))
    return ExperimentConfig(spec=spec, grid=TimeGrid(0.0, horizon, dt),
                            replicates=replicates, seed=seed, delta=delta,
                            **kwargs)


def _cmd_analyze(raw, spec, args) -> int:
    cfg = _experiment_config(raw, spec, args)
    report = run_analyze(cfg)
    csv_path, _ = report.write(args.out)
    curve = report.metrics["survival"]
    surv = os.path.join(args.out, "survival.csv")
    with open(surv, "w", newline="") as fh:
        fh.write("y,extinction_prob\n")
        for y, p in curve:
            fh.write(f"{y!r},{p!r}\n")
    for name, value in report.rows:
        print(f"{name},{value!r}" if isinstance(value, float)
              else f"{name},{value}")
    print("y,extinction_prob")
    for y, p in curve:
        print(f"{y!r},{p!r}")
    print(f"wrote {csv_path} and {surv}")
    return 0


def _cmd_simulate(raw, spec, args) -> int:
    cfg = _experiment_config(raw, spec, args)
    mode = raw.get("mode", "uniform")
    if mode == "single":
        x0 = cfg.x_init[0] if cfg.x_init else 0.5
        path = simulate_single(spec, x0, cfg.grid, cfg.seed)
    elif mode in _SYSTEM_MODES:
        if "n_islands" in raw:
            raise ConfigError("simulate takes the island count from "
                              "'topology'; 'n_islands' is not a key")
        top = 5 if cfg.topology is None else cfg.topology
        if mode == "matrix" and not isinstance(top, MigrationMatrix):
            raise ConfigError("matrix mode needs topology.entries")
        x0 = _system_x0(cfg.x_init, top.n_islands
                        if isinstance(top, MigrationMatrix) else top)
        path = simulate_system(spec, top, cfg.theta, x0, cfg.grid, cfg.seed,
                               mode=_SYSTEM_MODES[mode], k_max=cfg.k_max)
    else:
        raise ConfigError(f"unknown simulate mode {mode!r}")
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "simulate.csv")
    export_path_csv(path, csv_path)
    snap = snapshot_config(cfg)
    snap["mode"] = mode
    vals = path.values
    ExperimentReport("simulate", cfg.seed, snap, (), [],
                     {"nodes": int(vals.shape[0]),
                      "final_total": float(np.sum(vals[-1]))}).write_json(args.out)
    print(f"wrote {csv_path}")
    return 0


def _cmd_tree(raw, spec, args) -> int:
    cfg = _experiment_config(raw, spec, args)
    tree = build_tree(spec, cfg.x_init, cfg.theta, cfg.grid.horizon,
                      cfg.delta, cfg.grid, cfg.seed,
                      generation_cap=cfg.generation_cap,
                      boundary=cfg.boundary)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "tree.csv")
    export_tree_csv(tree, csv_path)
    extras = {}
    if "bin_edges" in raw:
        t_snap = cfg.eval_time if cfg.eval_time is not None else cfg.grid.horizon
        snap_t = tree.spectrum(t_snap, cfg.bin_edges)
        spec_path = os.path.join(args.out, "spectrum.csv")
        export_spectrum_csv(snap_t, spec_path)
        extras["spectrum_csv"] = spec_path
    snap = snapshot_config(cfg)
    ExperimentReport("tree", cfg.seed, snap, (), [],
                     {"islands": len(tree.islands),
                      "censored": tree.censored_count,
                      "dropped_births": tree.dropped_births,
                      "total_mass_at_horizon": tree.total_mass(cfg.grid.horizon),
                      **extras}).write_json(args.out)
    print(f"wrote {csv_path}")
    return 0


def _run_report(runner, raw, spec, args) -> int:
    cfg = _experiment_config(raw, spec, args)
    report = runner(cfg)
    csv_path, json_path = report.write(args.out)
    for name, ok in report.verdicts.items():
        print(f"verdict,{name},{'pass' if ok else 'fail'}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        raw = load_config(args.config)
        spec = build_spec(raw)
        if args.command == "analyze":
            return _cmd_analyze(raw, spec, args)
        if args.command == "simulate":
            return _cmd_simulate(raw, spec, args)
        if args.command == "tree":
            return _cmd_tree(raw, spec, args)
        runner = {"duality": run_duality, "compare": run_comparison,
                  "converge": run_convergence,
                  "identities": run_identity_suite}[args.command]
        return _run_report(runner, raw, spec, args)
    except (ConfigError, DomainError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DivergenceError, SolverError, RegimeError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
