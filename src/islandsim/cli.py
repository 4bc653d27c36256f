"""Command line driver.

Subcommands: analyze, simulate, tree, duality, compare, converge,
identities.  Every run loads a JSON config (see `config`), applies the
command line overrides (--seed, --replicates, --dt, --delta), runs the
command's `experiments` runner and writes its report into --out with
`ExperimentReport.write`.  Exit codes: 0 success, 2 configuration or usage
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import build_spec, load_config
from .exceptions import (ConfigError, DivergenceError, DomainError,
                         RegimeError, SolverError)
from .experiments import (_SYSTEM_MODES, ExperimentConfig,
                          ExpDecreasingConcave, MixedMonomial, SmoothedStep,
                          run_analyze, run_comparison, run_convergence,
                          run_duality, run_identity_suite, run_simulate,
                          run_tree)
from .sde import MigrationMatrix, TimeGrid

__all__ = ["cli_main", "main"]

_COMMANDS = ("analyze", "simulate", "tree", "duality", "compare", "converge",
             "identities")


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


def _simulate_mode(raw):
    """The simulate mode; a system mode refuses the retired n_islands key."""
    mode = raw.get("mode", "uniform")
    if "n_islands" in raw and isinstance(mode, str) and mode in _SYSTEM_MODES:
        raise ConfigError("simulate takes the island count from "
                          "'topology'; 'n_islands' is not a key")
    return mode


def _stdout_lines(command: str, report, paths) -> list:
    """analyze's rows and survival curve, or the verdicts; then the files."""
    if command == "analyze":
        lines = [f"{name},{value!r}" if isinstance(value, float)
                 else f"{name},{value}" for name, value in report.rows]
        lines += ["y,extinction_prob"] + [
            f"{y!r},{p!r}" for y, p in report.metrics["survival"]]
    else:
        lines = [f"verdict,{name},{'pass' if ok else 'fail'}"
                 for name, ok in report.verdicts.items()]
    shown = paths[:1] if command in ("simulate", "tree") else paths[:2]
    return lines + ["wrote " + " and ".join(shown)]


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        raw = load_config(args.config)
        cfg = _experiment_config(raw, build_spec(raw), args)
        # looked up at call time, so a wrapped runner is the one called
        runner = {"analyze": run_analyze,
                  "simulate": lambda c: run_simulate(c, _simulate_mode(raw)),
                  "tree": lambda c: run_tree(c, "bin_edges" in raw),
                  "duality": run_duality, "compare": run_comparison,
                  "converge": run_convergence,
                  "identities": run_identity_suite}[args.command]
        report = runner(cfg)
        for line in _stdout_lines(args.command, report,
                                  report.write(args.out)):
            print(line)
        return 0
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
