"""Simulation of single islands and island systems near an absorbing 0.

Stepping rule: Euler steps of dY = (a - Y + mu(Y)) dt + sqrt(sigma2(Y)) dB,
kept in [0, upper]; under the default "exact" handling, a component below
`switch_level(dt)` takes the exact transition of the locally linearized
model (`_exact_kernel`) instead.  Both coefficients vanish at 0, so a state
that reaches 0 with no inflow stays exactly 0.

Boundary handling at 0.  The plain clamp ("clip") is disastrously biased
where 0 is absorbing: paths that ought to die keep getting reflected up (at
dt = 1e-3 it inflates the mean excursion area from level 1e-3 by ~+80%).
Single-island ops therefore default to "exact": the hybrid above.  Their
Euler steps ("bridge" takes them at every level) kill a path that steps to
or below 0, or with the Brownian-bridge probability
exp(-2 v w / (sigma2(v) dt)) on a step from v to w, and stopping levels get
the matching up-crossing correction; "clip" stays as an option there.
Island systems always step exactly and take no boundary option: with inflow
0 is an entrance point, and the exact kernel leaves there without the clamp
bias that inflates a whole system's mass.

One vector step.  An island of a system, an excursion and a mean-field
particle all run the same equation; only the inflow a differs: the routed
mass plus theta/N in a system, none on an excursion or a single island
(0 absorbs), the mean E M_t in the mean field.  Every such step is `_step`,
which draws nothing for absorbed components: the batch engines
(`single_batch_stats`, `virgin_island.sample_tree_stats`, the exact branch
of the mean-field solver), both system ops in every mode, and
`simulate_single`, which loops it over a 1-element array.  The level split
passes `_step` frozen coefficient ratios, the island totals' mu/x and
sigma2/x, in place of the ratios of each component's own value.

Island systems.  One op, `simulate_system`, runs a system under uniform
(island count) or matrix migration with immigration theta/N in three modes:
"unsplit", "levels" (the level decomposition) and "loop_free" (the
hierarchy between the system and the tree).  `sample_system_stats` streams
replicates of the same modes; both take every step through `_system_step`.

Noise layout.  Object-level ops (those returning a Path) draw from one
stream: (seed, SINGLE, 0) for `simulate_single`, (seed, mode purpose) for
`simulate_system`.  A system path's draws are therefore not keyed by
island: adding an island or raising the level cap changes the noise every
component sees.  Per-island keys would need a per-component scalar loop, a
second copy of the step, and no caller relies on them.  Object-level ops
refuse (ConfigError) a stored path over 256 MB.  The batch Monte Carlo
engines trade that for throughput: replicates are processed in fixed-size
chunks, each chunk fed by its own (seed, tag, chunk) stream, so results
are reproducible and independent of worker count but not invariant to the
chunk size (a documented constant).  Before their first allocation or
draw, they refuse (ConfigError) a budget whose returned arrays or
per-chunk state would pass the same 256 MB.  No file I/O happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .coefficients import CoefficientSpec
from .exceptions import ConfigError, DomainError

# fixed batch chunks (replicates per stream); results depend on them, never on
# worker count.  A single-island chunk steps until its longest lifetime ends,
# mostly on a few live paths at a fixed cost per step, so CHUNK is large enough
# that a run pays that tail about once: on a 2-core host 131 072 took
# acceptance 5 and 6 from 39 s to 9 s at flat peak RSS (262 144 added 15 MB),
# and a million paths still make 8 chunks.
CHUNK = 131_072
SYSTEM_CHUNK = 256


# ---------------------------------------------------------------------------
# time grid and path containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0, t0+dt, ..., t0 + n_steps*dt = horizon."""

    t0: float
    horizon: float
    dt: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for x in (self.t0, self.horizon, self.dt)):
            raise ConfigError("t0, horizon and dt must be finite")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.horizon <= self.t0:
            raise ConfigError("horizon must exceed t0")
        n = (self.horizon - self.t0) / self.dt
        if abs(n - round(n)) > 1e-6 * max(1.0, n):
            raise ConfigError("(horizon - t0) must be an integer multiple of dt")
        if self.n_steps < 1:
            raise ConfigError("horizon must lie at least one step dt past t0")

    @property
    def n_steps(self) -> int:
        return int(round((self.horizon - self.t0) / self.dt))

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def node_of(self, t: float, name: str = "t") -> int:
        """Nearest node index for t (must lie on the grid within 1e-6 dt)."""
        k = (t - self.t0) / self.dt
        if not math.isfinite(k) or abs(k - round(k)) > 1e-6:
            raise ConfigError(f"{name}={t} is not on the grid")
        k = int(round(k))
        if not 0 <= k <= self.n_steps:
            raise ConfigError(f"{name}={t} outside the grid")
        return k


@dataclass(frozen=True)
class Path:
    """Values on a grid, one row per node: shape (nodes,) for a single
    island, (nodes, islands) for a system and (nodes, levels, islands) for a
    level-split one.

    dropped_mass is the time integral of the would-be inflow into the first
    truncated level (mass the level cap threw away); 0 without levels.
    """

    grid: TimeGrid
    values: np.ndarray
    dropped_mass: float = 0.0

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.n_steps + 1 or self.values.ndim > 3:
            raise ConfigError("values must have one row per grid node")

    def total(self) -> np.ndarray:
        """The sum over every axis but time, per node."""
        return self.values.reshape(len(self.values), -1).sum(axis=1)


# ---------------------------------------------------------------------------
# migration input
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MigrationMatrix:
    """Substochastic routing: entries[j, i] is the rate share j -> i."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("migration matrix must be square")
        if np.any(m < 0):
            raise ConfigError("migration entries must be nonnegative")
        if np.any(m.sum(axis=1) > 1.0 + 1e-12):
            raise ConfigError("migration row sums must not exceed 1")
        object.__setattr__(self, "entries", m)

    @property
    def n_islands(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

def _check_x0(spec: CoefficientSpec, x0) -> None:
    if not spec.domain.contains(x0):
        raise DomainError("initial state outside the domain")


def _check_boundary(boundary: str) -> None:
    """Reject a boundary mode of the single-island, tree and mean-field ops."""
    if boundary not in ("exact", "bridge", "clip"):
        raise ConfigError("boundary must be 'exact', 'bridge' or 'clip'")


def _check_storage(grid: TimeGrid, width: int) -> None:
    """Refuse an object-level path of `width` floats per node over 256 MB."""
    if (grid.n_steps + 1) * width * 8 > 2**28:
        raise ConfigError("grid too large for full storage; use the batch engines")


def _check_budget(nbytes: int, keys: str) -> None:
    """Refuse arrays over 256 MB, naming the config keys that size them."""
    if nbytes > 2**28:
        raise ConfigError(f"{keys}: {nbytes / 2**20:.3g} MB of arrays would "
                          "pass the 256 MB budget")


# ---------------------------------------------------------------------------
# island systems: routing, inflow and the one step body
# ---------------------------------------------------------------------------

# mode -> noise purpose of `simulate_system`; `sample_system_stats` keys its
# chunk streams by the mode's position (1, 2, 3) instead
_SYSTEM_PURPOSE = {"unsplit": rngmod.SYSTEM, "levels": rngmod.LEVELS,
                   "loop_free": rngmod.LOOP_FREE}


def _n_islands(topology) -> int:
    """The island count, at least 1, of an int or a MigrationMatrix."""
    N = topology.n_islands if isinstance(topology, MigrationMatrix) \
        else int(topology)
    if N < 1:
        raise ConfigError("need at least one island")
    return N


def _check_system(spec: CoefficientSpec, topology, theta: float, x0,
                  mode: str, k_max: int):
    """Validate system inputs; return (x0 as an array, level cap or None)."""
    N = _n_islands(topology)
    if theta < 0:
        raise ConfigError("theta must be nonnegative")
    if mode not in _SYSTEM_PURPOSE:
        raise ConfigError(f"unknown mode {mode!r}")
    if int(k_max) < 0:
        raise ConfigError("k_max must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (N,):
        raise ConfigError("x0 must have one entry per island")
    _check_x0(spec, x0)
    return x0, (None if mode == "unsplit" else int(k_max))


def _check_state(x0: np.ndarray, lead: tuple, k_max: int | None) -> None:
    """Refuse a `_start_state(x0, lead, k_max)` over the array budget."""
    levels = 1 if k_max is None else k_max + 1
    _check_budget(8 * math.prod(lead) * levels * x0.size,
                  "topology, n_ladder or k_max")


def _start_state(x0: np.ndarray, lead: tuple, k_max: int | None) -> np.ndarray:
    """x0 repeated over the leading axes; with levels, all of it in level 0."""
    _check_state(x0, lead, k_max)
    if k_max is None:
        return np.broadcast_to(x0, lead + x0.shape).copy()
    v = np.zeros(lead + (k_max + 1, x0.size))
    v[..., 0, :] = x0
    return v


def _route(topology, x: np.ndarray) -> np.ndarray:
    """Migration inflow into each island from x (..., islands): the island
    mean (shape (..., 1)) for an island count, x @ m for a MigrationMatrix.
    A count is never made a uniform matrix: that is O(N^2) and not bitwise
    equal to the mean."""
    if isinstance(topology, MigrationMatrix):
        return x @ topology.entries
    return x.mean(axis=-1, keepdims=True)


def _system_inflow(topology, theta: float, v: np.ndarray, split: bool):
    """Inflow into every component of v, and the total rate out of the cap.

    Unsplit: route(v) + theta/N.  Split (v is (..., levels, islands)):
    theta/N into level 0 and route(level k-1) into level k; the rate out of
    the cap is what route(top level) sends on, summed over all islands and
    leading axes.
    """
    N = v.shape[-1]
    if not split:
        return _route(topology, v) + theta / N, 0.0
    inflow = np.empty_like(v)
    inflow[..., 0, :] = theta / N
    inflow[..., 1:, :] = _route(topology, v[..., :-1, :])
    top = _route(topology, v[..., -1, :])
    return inflow, float(top.sum()) * (N / top.shape[-1])


def _euler(v, rate, s2dt, noise, dt: float) -> np.ndarray:
    """Euler step v + rate dt + sqrt(s2dt) noise, rate = inflow - v + mu(v)."""
    return v + rate * dt + np.sqrt(s2dt) * noise


def _system_step(spec: CoefficientSpec, topology, theta: float, v: np.ndarray,
                 mode: str, dt: float, gen):
    """One exact system step, `_step` with the inflow; returns (new state,
    rate out of the cap).

    "levels" shares the island totals' coefficients out in proportion: each
    level steps with the ratios mu(tot)/tot and sigma2(tot)/tot of its
    island, the linear-ratio form the exact kernel freezes.  Levels are
    capped one by one, so on a bounded domain their sum can pass `upper`
    (and Wright-Fisher sigma2(sum) turn negative); such an island's levels
    are scaled by upper / sum, the others multiplied by exactly 1.
    """
    upper = spec.domain.upper
    inflow, lost = _system_inflow(topology, theta, v, mode != "unsplit")
    if mode != "levels":
        v, _ = _step(spec, v, dt, gen, "exact", inflow)
        return v, lost
    tot = v.sum(axis=-2, keepdims=True)
    v, _ = _step(spec, v, dt, gen, "exact", inflow,
                 ratios=(spec.mu_over_x(tot), spec.sigma2_over_x(tot)))
    tot = v.sum(axis=-2, keepdims=True)
    while (tot > upper).any():  # a rescaled sum can round an ulp high
        v = v * (upper / np.maximum(tot, upper))
        tot = v.sum(axis=-2, keepdims=True)
    return v, lost


# ---------------------------------------------------------------------------
# object-level simulation ops
# ---------------------------------------------------------------------------

def simulate_single(spec: CoefficientSpec, x0: float, grid: TimeGrid,
                    seed: int, boundary: str = "exact") -> Path:
    """One island, no inflow: dY = (-Y + mu(Y)) dt + sqrt(sigma2(Y)) dB.

    0 is absorbing here; `boundary` selects its handling as in
    `single_batch_stats` ("exact" hybrid default, "bridge", or "clip").
    Every step is `_step` on a 1-element array, drawing from the stream
    (seed, SINGLE, 0).  The path is 0 from its absorption node on.
    """
    _check_x0(spec, x0)
    _check_boundary(boundary)
    _check_storage(grid, 1)
    gen = rngmod.substream(seed, rngmod.SINGLE, 0)
    values = np.zeros(grid.n_steps + 1)
    v = np.array([float(x0)])
    values[0] = v[0]
    for n in range(1, grid.n_steps + 1):
        if v[0] == 0.0:
            break
        v, _ = _step(spec, v, grid.dt, gen, boundary)
        values[n] = v[0]
    return Path(grid, values)


def simulate_system(spec: CoefficientSpec, topology, theta: float, x0,
                    grid: TimeGrid, seed: int, mode: str = "unsplit",
                    k_max: int = 0) -> Path:
    """One path of a finite island system, in one of three views.

    topology: an island count (uniform routing: every island receives the
    island mean) or a MigrationMatrix (island i receives sum_j X(j) m(j,i));
    every island also receives the immigration theta/N.

      "unsplit": dX(i) = [inflow(i) - X(i) + mu(X(i))] dt
                 + sqrt(sigma2(X(i))) dB(i); values[node, island].
      "levels": the system decomposed by immigration level.  Level 0
        receives theta/N, level k >= 1 the routed level k-1.  Reaction terms
        are the total-mass coefficients shared proportionally (exact in law
        for the linear diffusion family, approximate otherwise), and an
        island's levels are scaled back where their sum exceeds `upper`.
      "loop_free": the same routing, but each level runs its own reaction
        terms, so no mass ever returns to the level it came from.

    The split modes start with all mass in level 0, keep levels 0..k_max and
    give values[node, level, island] and the mass the cap dropped.  Every
    step is `_system_step`, the exact step of `sample_system_stats`, on
    draws from the one stream (seed, mode purpose).  The Path is stored
    whole, so a run needing more than 256 MB for it raises ConfigError up
    front.
    """
    x0, L = _check_system(spec, topology, theta, x0, mode, k_max)
    v = _start_state(x0, (), L)
    _check_storage(grid, v.size)
    gen = rngmod.substream(seed, _SYSTEM_PURPOSE[mode])
    out = np.empty((grid.n_steps + 1,) + v.shape)
    out[0] = v
    dropped = 0.0
    for k in range(grid.n_steps):
        v, lost = _system_step(spec, topology, theta, v, mode, grid.dt, gen)
        dropped += lost * grid.dt
        out[k + 1] = v
    return Path(grid, out, dropped_mass=dropped)


# ---------------------------------------------------------------------------
# batch Monte Carlo engines (streaming, chunked)
# ---------------------------------------------------------------------------

def _exact_kernel(gen: np.random.Generator, old: np.ndarray, inflow, mu_x,
                  s2_x, dt: float) -> np.ndarray:
    """Exact step of the locally linearized diffusion with constant inflow.

    Freezing mu(y)/y, sigma2(y)/y and the inflow a over the step gives
    dY = (a - b Y) dt + sqrt(c Y) dB, a square-root process whose transition
    is a scaled noncentral chi-square: Y' = f * X with
    X ~ chi'^2(4a/c, old e^{-b dt}/f), f = c (1 - e^{-b dt}) / (4b),
    sampled as Gamma(2a/c + K, 2f), K ~ Poisson(old e^{-b dt} / (2f)).
    a = 0 keeps 0 absorbing (K = 0 is the atom at 0); a > 0 makes 0 an
    entrance point, with no clipping bias.  Rows with c <= 0 follow the
    drift ODE.

    Takes live components only (old > 0 or inflow > 0); `_step` skips the
    absorbed ones.  inflow, mu_x and s2_x are 0-d or one entry per
    component.  Both ratios 0-d (Feller): b dt, 2f and e^{-b dt} are scalars
    from the same numpy expm1/exp; only |b dt| < 1e-10 or c <= 0 takes the
    array form.
    """
    b = 1.0 - mu_x
    c = s2_x
    if np.ndim(b) == 0 == np.ndim(c):
        bdt = min(max(float(b) * dt, -50.0), 50.0)
        if c > 0.0 and abs(bdt) >= 1e-10:
            f2 = 2.0 * (c * -np.expm1(-bdt) / (4.0 * b))
            k = gen.poisson(old * np.exp(-bdt) / f2)
            return gen.gamma(2.0 * inflow / c + k, f2)
    bdt = np.minimum(np.maximum(b * dt, -50.0), 50.0)
    neg = -bdt
    em = -np.expm1(neg)  # 1 - e^{-b dt}, sign matches b
    small = np.abs(bdt) < 1e-10
    if small.any():
        f = np.where(small, c * dt * 0.25 * (1.0 - 0.5 * bdt),
                     c * em / np.where(small, 1.0, 4.0 * b))
    else:
        f = c * em / (4.0 * b)
    decay = old * np.exp(neg)
    ok = c > 0.0
    if ok.all():
        f2 = 2.0 * f
        k = gen.poisson(decay / f2)
        return gen.gamma(2.0 * inflow / c + k, f2)
    # ODE fallback value: a/b + (old - a/b) e^{-b dt}, stable form
    ode = decay + inflow * np.where(small, dt * (1.0 - 0.5 * bdt),
                                    em / np.where(small, 1.0, b))
    f_safe = np.where(ok, f, 1.0)
    k = gen.poisson(np.where(ok, decay / (2.0 * f_safe), 0.0))
    shape = np.where(ok, 2.0 * inflow / np.where(ok, c, 1.0), 0.0) + k
    return np.where(ok, gen.gamma(shape, 2.0 * f_safe), ode)


def _step(spec: CoefficientSpec, v: np.ndarray, dt: float,
          gen: np.random.Generator, boundary: str, inflow=None,
          stop_level: float | None = None, ratios=None):
    """One step of the components of v; returns (new, crossed).

    inflow broadcasts against v; None means no inflow, and 0 absorbing.
    ratios, when given, is a pair (mu_x, s2_x) broadcasting against v: the
    frozen mu(y)/y and sigma2(y)/y of every component, so mu = v mu_x and
    sigma2 = v s2_x; None evaluates spec at v.
    Components at 0 with no inflow stay 0 and take no draw.  Live ones below
    `switch_level(dt, stop_level, upper)` ("exact" only) take
    `_exact_kernel`, the rest an Euler step from v to w, clamped into
    [0, upper] with an inflow or under "clip".  Otherwise the bridge tests
    follow.  One test kills: u < exp(-2 v max(w, 0) / (sigma2(v) dt)), the
    touch probability, which is 1 (so kills) where w <= 0; a component with
    sigma2(v) = 0 dies only at w <= 0.  Crossed if w >= stop_level or with
    exp(-2 (stop_level - v)(stop_level - w) / (sigma2(v) dt)).  One uniform
    u serves both tests: the 0- and stop_level-adjacent regions where either
    probability is non-negligible are never both one step away.  crossed
    marks up-crossings of stop_level (None without one); the clamp and the
    exact kernel see them at the node only.  Draw order: normals, uniforms,
    then the exact kernel's Poisson and Gamma.
    """
    upper = spec.domain.upper
    bounded = upper < math.inf
    y_switch = switch_level(dt, stop_level, upper) if boundary == "exact" \
        else 0.0
    flat = v.ravel()
    live = flat > 0.0
    per_component = inflow is not None and np.ndim(inflow) > 0
    if per_component:
        inflow = np.broadcast_to(inflow, v.shape).ravel()
        live |= inflow > 0.0
    elif inflow is not None and inflow > 0.0:
        live[:] = True
    # index gathers beat boolean masks; at or above y_switch > 0 is live
    hi = (flat >= y_switch if y_switch > 0.0 else live).nonzero()[0]
    lo = (live & (flat < y_switch)).nonzero()[0]
    a_hi = a_lo = 0.0 if inflow is None else inflow
    if per_component:
        a_hi, a_lo = inflow[hi], inflow[lo]
    if ratios is not None:
        mu_x, s2_x = (np.broadcast_to(r, v.shape).ravel() for r in ratios)
    new = np.zeros(flat.shape)
    up = None if stop_level is None else np.zeros(flat.shape, dtype=bool)
    if hi.size:
        vh = flat[hi]
        if ratios is None:
            s2dt = spec.sigma2(vh) * dt
            drift = spec.mu(vh)
        else:
            s2dt = vh * s2_x[hi] * dt
            drift = vh * mu_x[hi]
        w = _euler(vh, drift - vh if inflow is None else a_hi - vh + drift,
                   s2dt, gen.standard_normal(hi.size), dt)
        if bounded:
            w = np.minimum(w, upper)
        wp = np.maximum(w, 0.0)
        if inflow is None and boundary != "clip":
            u = gen.random(hi.size)
            # one kill test (exp(...) = 1 > u where w <= 0); sigma2 = 0 (Wright-
            # Fisher at upper): killed at w <= 0 only, no crossing inside
            diffusing = s2dt.min() > 0.0
            safe = s2dt if diffusing else np.where(s2dt > 0.0, s2dt, np.inf)
            dead = u < np.exp(-2.0 * vh * wp / safe)
            if not diffusing:
                dead &= (s2dt > 0.0) | (w <= 0.0)
            if stop_level is not None:
                inside = u < np.exp(
                    -2.0 * (stop_level - vh) * (stop_level - w) / safe)
                if not diffusing:
                    inside &= s2dt > 0.0
                up[hi] = inside
                dead &= ~(inside | (w >= stop_level))
            wp[dead] = 0.0
        new[hi] = wp
    if lo.size:
        vl = flat[lo]
        if ratios is None:
            mx, sx = spec.mu_over_x(vl), spec.sigma2_over_x(vl)
        else:
            mx, sx = mu_x[lo], s2_x[lo]
        x = _exact_kernel(gen, vl, a_lo, mx, sx, dt)
        new[lo] = np.minimum(x, upper) if bounded else x
    new = new.reshape(v.shape)
    if stop_level is None:
        return new, None
    return new, up.reshape(v.shape) | (new >= stop_level)


def _report_nodes(report_nodes, grid: TimeGrid) -> list:
    """Distinct report nodes, increasing and on the grid; one row each."""
    nodes = sorted({int(k) for k in report_nodes})
    if nodes and (nodes[0] < 0 or nodes[-1] > grid.n_steps):
        raise ConfigError("report nodes outside the grid")
    return nodes


@dataclass
class SingleBatchStats:
    """Per-path statistics from `single_batch_stats` (concatenated chunks)."""

    area: np.ndarray
    peak: np.ndarray
    hit: np.ndarray
    censored: int


def switch_level(dt: float, stop_level: float | None = None,
                 upper: float = math.inf) -> float:
    """Level below which the exact local kernel takes over in hybrid mode.

    High enough (40 dt) that Euler steps from above almost never reach 0 in
    one move, low enough that the local linearization of mu/y and sigma2/y is
    tight and a stopping level stays out of one-step reach.
    """
    lvl = 40.0 * dt
    if stop_level is not None:
        lvl = min(lvl, 0.5 * stop_level)
    if math.isfinite(upper):
        lvl = min(lvl, 0.25 * upper)
    return lvl


def single_batch_stats(spec: CoefficientSpec, x0: float, dt: float, seed: int,
                       replicates: int, tag: int, max_steps: int,
                       stop_level: float | None = None,
                       boundary: str = "exact") -> SingleBatchStats:
    """Simulate `replicates` independent single islands from x0 until each is
    absorbed at 0, reaches stop_level (recorded in `hit`, then stopped), or
    exhausts max_steps (counted as censored).

    boundary modes:
      "exact" (default): below `switch_level(dt, ...)` the step is drawn from
        the exact transition of the locally linearized model (absorption is
        its atom at 0); above it, Euler with the bridge corrections.
      "bridge": Euler everywhere with Brownian-bridge corrections for
        absorption and (when stop_level is set) intra-step up-crossings.
      "clip": the plain clamp scheme, node-only crossing detection.
    For paths stopped at stop_level, `hit` is authoritative; their recorded
    peak and area stop at the detection step.
    """
    _check_x0(spec, x0)
    _check_boundary(boundary)
    _check_budget(17 * replicates, "replicates")  # area, peak, hit
    areas, peaks, hits = [], [], []
    censored = 0
    n_chunks = (replicates + CHUNK - 1) // CHUNK
    for ci in range(n_chunks):
        b = min(CHUNK, replicates - ci * CHUNK)
        gen = rngmod.substream(seed, rngmod.EXPERIMENT, tag, ci)
        area = np.zeros(b)
        peak = np.full(b, float(x0))
        hit = np.zeros(b, dtype=bool)
        # live paths' values, areas, peaks; area/peak get them at compaction
        idx = np.arange(b)
        cur_v = np.full(b, float(x0))
        cur_a, cur_p = area.copy(), peak.copy()
        steps = 0
        while idx.size and steps < max_steps:
            new, crossed = _step(spec, cur_v, dt, gen, boundary,
                                 stop_level=stop_level)
            if crossed is not None and crossed.any():
                hit[idx] |= crossed
                new = np.where(crossed, 0.0, new)
            cur_a += 0.5 * (cur_v + new) * dt
            np.maximum(cur_p, new, out=cur_p)
            cur_v = new
            steps += 1
            if steps % 64 == 0 or not cur_v.any():  # drop absorbed paths
                area[idx], peak[idx] = cur_a, cur_p
                alive = cur_v > 0.0
                idx, cur_v = idx[alive], cur_v[alive]
                cur_a, cur_p = cur_a[alive], cur_p[alive]
        area[idx], peak[idx] = cur_a, cur_p
        censored += int((cur_v > 0.0).sum())
        areas.append(area)
        peaks.append(peak)
        hits.append(hit)
    return SingleBatchStats(
        area=np.concatenate(areas), peak=np.concatenate(peaks),
        hit=np.concatenate(hits), censored=censored)


def sample_system_stats(spec: CoefficientSpec, topology, theta: float, x0,
                        grid: TimeGrid, seed: int, replicates: int,
                        report_nodes, reducers, tag: int,
                        mode: str = "unsplit", k_max: int = 0) -> dict:
    """Streaming replicated system simulation with per-report-node reduction.

    topology: island count (uniform routing) or MigrationMatrix.
    reducers: mapping name -> callable taking the per-island state block,
    shape (r, islands), and returning one number per replicate.  In the
    'levels' and 'loop_free' modes the block passed is the sum over levels.
    Modes and routing are those of `simulate_system`.  Returns {name: array
    (distinct report nodes in increasing order, replicates)} plus
    '_dropped_mass' (mean over replicates of the mass lost to the level cap).
    Replicates run in chunks of SYSTEM_CHUNK, one stream each, and step by
    step through `_system_step`, the step `simulate_system` takes.
    """
    x0, L = _check_system(spec, topology, theta, x0, mode, k_max)
    report_nodes = _report_nodes(report_nodes, grid)
    _check_budget(8 * len(report_nodes) * replicates * len(reducers),
                  "replicates")
    report_set = {node: j for j, node in enumerate(report_nodes)}
    out = {name: np.empty((len(report_nodes), replicates)) for name in reducers}
    dropped_total = 0.0

    purpose = 1 + list(_SYSTEM_PURPOSE).index(mode)
    for ci in range((replicates + SYSTEM_CHUNK - 1) // SYSTEM_CHUNK):
        r0 = ci * SYSTEM_CHUNK
        r = min(SYSTEM_CHUNK, replicates - r0)
        gen = rngmod.substream(seed, rngmod.EXPERIMENT, tag, purpose, ci)
        v = _start_state(x0, (r,), L)
        for k in range(grid.n_steps + 1):
            if k:
                v, lost = _system_step(spec, topology, theta, v, mode, grid.dt,
                                       gen)
                dropped_total += lost * grid.dt / replicates
            j = report_set.get(k)
            if j is not None:
                block = v if L is None else v.sum(axis=1)
                for name, fn in reducers.items():
                    out[name][j, r0:r0 + r] = fn(block)
    out["_dropped_mass"] = dropped_total
    return out
