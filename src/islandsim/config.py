"""Declarative JSON configuration for coefficient specs and experiments.

A config is JSON-compatible text.  Coefficient keys follow the dotted paths
`drift.family`, `drift.params.*`, `diffusion.family`, `diffusion.params.*`,
`domain.upper` (the string "inf" is accepted), and `structure.*` booleans;
either nested objects or literal dotted keys work.  Remaining top-level keys
are experiment settings picked up by the command line driver (seed,
replicates, dt, horizon, delta, theta, x_init, topology, functionals, ...).
"""

from __future__ import annotations

import json
import math
import sys

from .coefficients import (CoefficientSpec, CustomDiffusion, CustomDrift,
                           DIFFUSION_FAMILIES, DRIFT_FAMILIES,
                           DeclaredStructure, DomainInterval,
                           PiecewisePolynomial)
from .exceptions import ConfigError

__all__ = ["load_config", "build_spec", "nest_keys"]

_STRUCTURE_FLAGS = set(DeclaredStructure.__dataclass_fields__)


def nest_keys(flat: dict) -> dict:
    """Expand dotted keys into nested dicts; nested input passes through."""
    out: dict = {}
    for key, value in flat.items():
        parts = str(key).split(".")
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"config key {key!r} conflicts with a scalar")
        leaf = parts[-1]
        if isinstance(value, dict):
            sub = nest_keys(value)
            existing = node.get(leaf)
            if isinstance(existing, dict):
                existing.update(sub)
            else:
                node[leaf] = sub
        else:
            if isinstance(node.get(leaf), dict):
                raise ConfigError(f"config key {key!r} conflicts with a section")
            node[leaf] = value
    return out


def _build_poly(params: dict) -> PiecewisePolynomial:
    try:
        return PiecewisePolynomial(
            tuple(params["breakpoints"]),
            tuple(tuple(piece) for piece in params["coefficients"]))
    except KeyError as e:
        raise ConfigError(f"custom family needs {e.args[0]!r} in params") from None


def _build_family(section: dict, table: dict, label: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{label} section must be an object")
    family = section.get("family")
    if family not in table:
        raise ConfigError(f"unknown {label} family {family!r}; "
                          f"choose from {sorted(table)}")
    params = section.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{label}.params must be an object")
    cls = table[family]
    if cls in (CustomDrift, CustomDiffusion):
        return cls(_build_poly(params))
    try:
        return cls(**params)
    except TypeError as e:
        raise ConfigError(f"bad {label} params for {family!r}: {e}") from None


def build_spec(cfg: dict) -> CoefficientSpec:
    """Construct a CoefficientSpec from a (possibly dotted-key) mapping."""
    cfg = nest_keys(cfg)
    if "drift" not in cfg or "diffusion" not in cfg:
        raise ConfigError("config needs 'drift' and 'diffusion' sections")
    drift = _build_family(cfg["drift"], DRIFT_FAMILIES, "drift")
    diffusion = _build_family(cfg["diffusion"], DIFFUSION_FAMILIES,
                              "diffusion")
    upper = cfg.get("domain", {}).get("upper", math.inf)
    if isinstance(upper, str):
        if upper.lower() not in ("inf", "infinity"):
            raise ConfigError(f"domain.upper must be a number or 'inf', "
                              f"got {upper!r}")
        upper = math.inf
    domain = DomainInterval(float(upper))
    structure = None
    if "structure" in cfg:
        flags = cfg["structure"]
        if not isinstance(flags, dict):
            raise ConfigError("structure section must be an object of booleans")
        unknown = set(flags) - _STRUCTURE_FLAGS
        if unknown:
            raise ConfigError(f"unknown structure flags: {sorted(unknown)}")
        structure = DeclaredStructure(**{k: bool(v) for k, v in flags.items()})
    return CoefficientSpec(drift, diffusion, domain, structure)


def _check_numbers(node, key: str) -> None:
    """Refuse a JSON integer too large for a float, naming its key."""
    if isinstance(node, dict):
        for k, v in node.items():
            _check_numbers(v, f"{key}.{k}" if key else str(k))
    elif isinstance(node, list):
        for v in node:
            _check_numbers(v, key)
    elif isinstance(node, int) and abs(node) > sys.float_info.max:
        raise ConfigError(f"{key} holds an integer too large for a float")


def load_config(path: str) -> dict:
    """Read a JSON config file, expand dotted keys and check its numbers."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path!r} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = nest_keys(raw)
    _check_numbers(raw, "")
    return raw
