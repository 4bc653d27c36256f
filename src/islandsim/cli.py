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
                  simulate_system, write_csv)
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


_NUMBERS = "a list of numbers"
_POINTS = "a list of [x, y, t] lists of numbers"
_SQUARE = "a square list of lists of numbers"
# JSON types of the run keys a config may set (boundary is checked later);
# JSON null leaves a key at its default
_KEY_TYPES = {
    **dict.fromkeys("dt delta horizon theta tree_dt eval_time eps "
                    "diag_fraction".split(), "a number"),
    **dict.fromkeys("seed replicates generation_cap n_part mv_replicates "
                    "k_max".split(), "an integer"),
    **dict.fromkeys("x_init n_ladder tent_support bin_edges y_grid".split(),
                    _NUMBERS),
    "duality_points": _POINTS, "boundary": None}
# defaults the command line fills in; dt, delta and horizon become floats
_DEFAULTS = {"seed": 0, "replicates": 1000, "dt": 1e-3, "delta": 0.05,
             "horizon": 1.0}
# functional kind -> class and its list fields, in constructor order
_FUNCTIONALS = {"one_minus_exp": (ExpDecreasingConcave, ("lambdas", "times")),
                "monomial": (MixedMonomial, ("times",)),
                "step": (SmoothedStep, ("thresholds", "widths", "times"))}


def _has_type(value, kind: str) -> bool:
    if kind in ("a number", "an integer"):
        return not isinstance(value, bool) and isinstance(
            value, int if kind == "an integer" else (int, float))
    if not isinstance(value, list):
        return False
    if kind == _NUMBERS:
        return all(_has_type(v, "a number") for v in value)
    width = 3 if kind == _POINTS else len(value)  # _SQUARE: one row per island
    return all(_has_type(v, _NUMBERS) and len(v) == width for v in value)


def _functional_from(entry):
    if not isinstance(entry, dict):
        raise ConfigError(f"functionals entries must be objects, got {entry!r}")
    kind = entry.get("kind")
    if kind not in _FUNCTIONALS:
        raise ConfigError(f"unknown functional kind {kind!r}; "
                          "choose one_minus_exp, monomial, or step")
    cls, fields = _FUNCTIONALS[kind]
    for name in fields:
        if name not in entry:
            raise ConfigError(f"functional {kind!r} misses field {name!r}")
        if not _has_type(entry[name], _NUMBERS):
            raise ConfigError(f"functional {kind!r} field {name!r} must be "
                              f"{_NUMBERS}, got {entry[name]!r}")
    return cls(*(tuple(entry[name]) for name in fields))


def _topology_from(raw):
    if raw is None or _has_type(raw, "an integer"):
        return raw
    if isinstance(raw, dict) and "entries" in raw:
        if not _has_type(raw["entries"], _SQUARE):
            raise ConfigError(f"topology.entries must be {_SQUARE}, "
                              f"got {raw['entries']!r}")
        return MigrationMatrix(np.asarray(raw["entries"], dtype=float))
    raise ConfigError("topology must be an island count or {'entries': [[...]]}")


def _experiment_config(raw: dict, spec, args) -> ExperimentConfig:
    kwargs = dict(_DEFAULTS)
    for key, kind in _KEY_TYPES.items():
        value = getattr(args, key, None)  # --seed, --replicates, --dt, --delta
        if value is None:
            value = raw.get(key)
        if value is None:
            continue
        if kind and not _has_type(value, kind):
            raise ConfigError(f"{key} must be {kind}, got {value!r}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    if "duality_points" in kwargs:
        kwargs["duality_points"] = tuple(map(tuple, kwargs["duality_points"]))
    functionals = raw.get("functionals")
    if functionals is not None:
        if not isinstance(functionals, list):
            raise ConfigError(f"functionals must be a list, got {functionals!r}")
        kwargs["functionals"] = tuple(map(_functional_from, functionals))
    kwargs["topology"] = _topology_from(raw.get("topology"))
    grid = TimeGrid(0.0, float(kwargs.pop("horizon")), float(kwargs.pop("dt")))
    kwargs["delta"] = float(kwargs["delta"])
    return ExperimentConfig(spec=spec, grid=grid, **kwargs)


def _cmd_analyze(raw, spec, args) -> int:
    cfg = _experiment_config(raw, spec, args)
    report = run_analyze(cfg)
    csv_path, _ = report.write(args.out)
    curve = report.metrics["survival"]
    surv = os.path.join(args.out, "survival.csv")
    write_csv(surv, ("y", "extinction_prob"), curve)
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
        path = simulate_single(spec, x0, cfg.grid, cfg.seed,
                               boundary=cfg.boundary)
    elif isinstance(mode, str) and mode in _SYSTEM_MODES:
        if "n_islands" in raw:
            raise ConfigError("simulate takes the island count from "
                              "'topology'; 'n_islands' is not a key")
        top = 5 if cfg.topology is None else cfg.topology
        if mode == "matrix" and not isinstance(top, MigrationMatrix):
            raise ConfigError("matrix mode needs topology.entries")
        x0 = _system_x0(cfg.x_init, top)
        path = simulate_system(spec, top, cfg.theta, x0, cfg.grid, cfg.seed,
                               mode=_SYSTEM_MODES[mode], k_max=cfg.k_max)
    else:
        raise ConfigError(f"unknown simulate mode {mode!r}")
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "simulate.csv")
    export_path_csv(path, csv_path)
    snap = snapshot_config(cfg)
    snap["mode"] = mode
    ExperimentReport("simulate", cfg.seed, snap, (), [],
                     {"nodes": len(path.values),
                      "final_total": float(path.total()[-1])}).write_json(args.out)
    print(f"wrote {csv_path}")
    return 0


def _cmd_tree(raw, spec, args) -> int:
    cfg = _experiment_config(raw, spec, args)
    tree = build_tree(spec, cfg.x_init, cfg.theta, cfg.delta, cfg.grid,
                      cfg.seed,
                      generation_cap=cfg.generation_cap,
                      boundary=cfg.boundary, spectrum_time=cfg.eval_time)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "tree.csv")
    export_tree_csv(tree, csv_path)
    extras = {}
    if "bin_edges" in raw:
        export_spectrum_csv(tree.spectrum(cfg.bin_edges),
                            os.path.join(args.out, "spectrum.csv"))
        extras["spectrum_csv"] = "spectrum.csv"  # next to tree.json
    ExperimentReport("tree", cfg.seed, snapshot_config(cfg), (), [],
                     {"islands": tree.parent.size,
                      "censored": int(np.count_nonzero(tree.death < 0)),
                      "dropped_births": tree.dropped_births,
                      "total_mass_at_horizon": float(tree.totals[-1]),
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
