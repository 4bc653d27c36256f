"""McKean-Vlasov particle solver and the tree/mean-field duality check.

The nonlinear process dM = (E M - M + mu(M)) dt + sqrt(sigma2(M)) dB is
approximated by a synchronously coupled particle system: every particle sees
the current empirical mean instead of E M_t.  The empirical mean sums the
sorted values, so it depends only on their multiset and is therefore
invariant under any permutation of the particles; reassigning the
per-particle noise streams permutes the particle values but reproduces the
mean curve bit for bit.  Stepping is by default the plain clamp scheme,
truncated Euler clamped into [0, upper] on one noise stream per particle (0
is not absorbing: the mean-inflow term re-ignites particles); "exact" takes
the batch engines' vector step with the mean as inflow.  Only the clamp
keeps the mean curve bit-exact under particle permutation, since only it
draws per particle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .coefficients import CoefficientSpec, LinearDiffusion, Logistic
from .exceptions import ConfigError, DomainError
from .sde import TimeGrid, _check_budget, _euler, _step
from .virgin_island import sample_tree_stats, total_mass_reducer

__all__ = ["ParticleEnsemble", "simulate_mckean_vlasov", "duality_gap"]


def _noise_columns(seed: int, purpose: int, n_steps: int, keys) -> np.ndarray:
    """Stack per-key streams into columns: shape (n_steps, len(keys))."""
    return np.stack([rngmod.substream(seed, purpose, *k)
                     .standard_normal(n_steps) for k in keys], axis=1)


@dataclass
class ParticleEnsemble:
    """Synchronously coupled particles: the empirical mean at every grid node
    and the particle values at the last one."""

    mean_curve: np.ndarray
    final_values: np.ndarray


def simulate_mckean_vlasov(spec: CoefficientSpec, init, n_part: int,
                           grid: TimeGrid, seed: int, ensemble_tag: int = 0,
                           particle_keys=None,
                           boundary: str = "clip") -> ParticleEnsemble:
    """Run one particle ensemble from a point mass or a sampled initial law.

    init: a nonnegative float (point mass) or a callable gen -> (n_part,)
    array drawing the initial values.  particle_keys reassigns the noise
    substream of each particle (default: its index); any permutation of the
    default keys yields the identical empirical-mean curve.

    boundary "clip" is the plain truncated Euler scheme on per-particle
    streams (bit-exact under key permutation).  "exact" steps the particles
    with the batch engines' vector step `sde._step`, the empirical mean as
    inflow: below `switch_level` the inflow-aware local kernel, removing the
    clamp bias near 0 that distorts laws with mass at small values, above it
    clamped Euler.  It draws from one sequential stream per ensemble, so
    permutation invariance then holds in law rather than bit for bit.
    Particle values, and under "clip" the noise of every step, over 256 MB
    raise ConfigError before any draw.
    """
    n_part = int(n_part)
    if n_part < 2:
        raise ConfigError("need at least two particles")
    if boundary not in ("clip", "exact"):
        raise ConfigError(f"unknown boundary scheme {boundary!r}")
    _check_budget(8 * n_part * (grid.n_steps if boundary == "clip" else 1),
                  "n_part")
    if callable(init):
        v = np.asarray(init(rngmod.substream(seed, rngmod.INIT, ensemble_tag)),
                       dtype=float)
        if v.shape != (n_part,):
            raise ConfigError("init sampler must return one value per particle")
    else:
        v = np.full(n_part, float(init))
    if np.any(v < 0.0) or np.any(v > spec.domain.upper):
        raise DomainError("initial particle values outside the domain")
    if particle_keys is None:
        particle_keys = range(n_part)
    keys = [(ensemble_tag, int(k)) for k in particle_keys]
    if len(keys) != n_part:
        raise ConfigError("particle_keys must have one entry per particle")
    n = grid.n_steps
    dt = grid.dt
    upper = spec.domain.upper
    if boundary == "clip":
        noise = _noise_columns(seed, rngmod.MEAN_FIELD, n, keys)
        gen = None
    else:
        noise = None
        gen = rngmod.substream(seed, rngmod.MEAN_FIELD, ensemble_tag)
    mean_curve = np.empty(n + 1)
    for k in range(n + 1):
        mean_curve[k] = np.sort(v).sum() / n_part
        if k == n:
            break
        if gen is None:
            v = np.clip(_euler(v, mean_curve[k] - v + spec.mu(v),
                               spec.sigma2(v) * dt, noise[k], dt), 0.0, upper)
        else:
            v, _ = _step(spec, v, dt, gen, boundary, mean_curve[k])
    return ParticleEnsemble(mean_curve=mean_curve, final_values=v)


def duality_gap(gamma: float, K: float, beta: float, x: float, y: float,
                t: float, mc):
    """Both sides of the logistic duality with standard errors.

    lhs = E exp(-(gamma/beta) x V_t) over virgin-island trees grown from the
    single root mass y with no immigration; rhs = E exp(-(gamma/beta) y M_t)
    over McKean-Vlasov particles started at x.  Returns (lhs, rhs, se_lhs,
    se_rhs).

    mc is a mapping of Monte Carlo controls: replicates (tree count), n_part,
    grid (spanning [0, t]), delta, seed; optional mv_replicates (total
    particle count, default 5 * n_part, rounded up to whole ensembles),
    tree_dt (coarser step for the tree side, default grid.dt) and boundary
    (default "exact").  The tree takes the boundary as given; the particles
    take "exact" under "exact" and the clamp otherwise ("bridge" has no
    meaning where the mean inflow keeps 0 from absorbing).
    The mean-field SE is taken across all particles of all ensembles;
    within-ensemble coupling through the empirical mean is O(1/n_part), and
    running several independent ensembles keeps the SE honest.  Final
    particle values over 256 MB in all (kept for the SE) raise ConfigError
    before the tree side runs.
    """
    if min(gamma, K, beta) <= 0.0:
        raise ConfigError("gamma, K, beta must be positive")
    if not all(0.0 <= v < math.inf for v in (x, y, t)):
        raise ConfigError("x, y and t must be finite and nonnegative")
    c = gamma / beta
    if t == 0.0:
        exact = math.exp(-c * x * y)
        return exact, exact, 0.0, 0.0
    replicates = int(mc["replicates"])
    n_part = int(mc["n_part"])
    grid = mc["grid"]
    delta = float(mc["delta"])
    seed = int(mc["seed"])
    boundary = mc.get("boundary", "exact")
    mv_total = int(mc.get("mv_replicates", 5 * n_part))
    if n_part < 2:
        raise ConfigError(f"n_part must be at least 2, got {n_part}")
    if mv_total < 1:
        raise ConfigError(f"mv_replicates must be positive, got {mv_total}")
    n_ensembles = -(-mv_total // n_part)
    if grid.t0 != 0.0 or abs(grid.horizon - t) > 1e-9 * max(1.0, t):
        raise ConfigError("mc grid must span [0, t]")
    _check_budget(8 * n_ensembles * n_part, "n_part or mv_replicates")
    tree_dt = float(mc.get("tree_dt", grid.dt))
    tree_grid = grid if tree_dt == grid.dt else TimeGrid(0.0, t, tree_dt)
    spec = CoefficientSpec(Logistic(gamma, K), LinearDiffusion(beta))
    res = sample_tree_stats(spec, (y,), 0.0, delta, tree_grid, seed,
                            replicates, [tree_grid.n_steps],
                            {"V": total_mass_reducer}, tag=11,
                            boundary=boundary)
    g = np.exp(-c * x * res["V"][0])
    lhs = float(g.mean())
    se_lhs = float(g.std(ddof=1) / math.sqrt(g.size))
    vals = []
    for e in range(n_ensembles):
        ens = simulate_mckean_vlasov(
            spec, x, n_part, grid, seed, ensemble_tag=e,
            boundary="exact" if boundary == "exact" else "clip")
        vals.append(np.exp(-c * y * ens.final_values))
    vals = np.concatenate(vals)
    rhs = float(vals.mean())
    se_rhs = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return lhs, rhs, se_lhs, se_rhs
