"""Excursion sampling and virgin-island trees.

An excursion is a single-island path started at the height cutoff delta and
run to absorption; the excursion measure restricted to {sup >= delta} has
total mass 1/S(delta) and, normalized, is the law sampled here (strong Markov
at the first delta-crossing makes the post-crossing path independent of the
approach from below).  Trees are populated by immigrant excursions (rate
theta/S(delta)), by root paths started at the initial masses, and by daughter
excursions born from each island at rate chi_{t-s}/S(delta).

Two constructions are provided: `build_tree` builds one tree as explicit
Island objects (breadth-first, per-island random streams), and
`sample_tree_stats` advances many replicate trees on a shared clock as flat
slot arrays, reducing functionals of the island values at report nodes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .analytics import scale_function
from .coefficients import CoefficientSpec
from .exceptions import ConfigError, DomainError, SolverError
from .sde import (Path, TimeGrid, _check_boundary, _report_nodes,
                  _single_path, _step, single_batch_stats)

__all__ = [
    "Excursion", "Island", "VirginIslandTree", "SpectrumSnapshot",
    "excursion_mass_above", "sample_excursion", "build_tree",
    "sample_tree_stats", "total_mass_reducer", "bin_count_reducer",
    "export_tree_csv", "export_spectrum_csv",
]

TREE_CHUNK = 4096  # replicates per chunk in the ensemble engine


def excursion_mass_above(spec: CoefficientSpec, delta: float) -> float:
    """Mass the excursion measure puts on paths with sup >= delta: 1/S(delta)."""
    if not 0.0 < delta < spec.domain.upper:
        raise ConfigError("delta must lie strictly inside the domain")
    return 1.0 / scale_function(spec, delta)


def _tree_inputs(spec: CoefficientSpec, x_init, theta: float, delta: float,
                 boundary: str):
    """Check the inputs of a tree engine; return (x_init, 1/S(delta))."""
    x_init = tuple(float(x) for x in x_init)
    if any(x < 0.0 for x in x_init):
        raise ConfigError("initial masses must be nonnegative")
    if theta < 0.0:
        raise ConfigError("theta must be nonnegative")
    _check_boundary(boundary)
    return x_init, excursion_mass_above(spec, delta)


@dataclass
class Excursion:
    """One island path born at local time 0 (value delta, or a root mass).

    The stored path is trimmed at the absorption node; the mass is 0 from
    `extinction_time` on.  `censored` marks paths still alive at their local
    horizon; `attempts` counts rejection-sampling attempts (1 for direct).
    """

    path: Path
    censored: bool = False
    attempts: int = 1

    @property
    def extinction_time(self) -> float:
        return math.inf if self.censored else self.path.grid.horizon

    @property
    def peak(self) -> float:
        return self.path.peak()

    @property
    def area(self) -> float:
        return self.path.area()

    def value_at(self, u: float) -> float:
        """Mass at local time u; 0 before birth and after absorption."""
        if u < 0.0 or u > self.path.grid.horizon:
            return 0.0
        return self.path.value_at(u)


def sample_excursion(spec: CoefficientSpec, delta: float, grid: TimeGrid,
                     seed: int, method: str = "rejection",
                     boundary: str = "exact", island_key: int = 0) -> Excursion:
    """Draw one excursion conditioned to reach delta, anchored at the crossing.

    method="rejection" simulates attempts from eps = delta*1e-3 until one
    reaches delta before 0 (attempt count reported; per-attempt acceptance
    probability is S(eps)/S(delta)); the accepted path is continued from the
    crossing, where its value is exactly delta by continuity, so the body is
    simulated from delta (strong Markov).  method="direct" skips the attempt
    accounting and starts at delta outright; both produce the same law.
    """
    if not 0.0 < delta < spec.domain.upper:
        raise ConfigError("delta must lie strictly inside the domain")
    if method not in ("rejection", "direct"):
        raise ConfigError("method must be 'rejection' or 'direct'")
    _check_boundary(boundary)
    attempts = 1
    if method == "rejection":
        eps = delta * 1e-3
        batch = 512
        max_steps = max(4 * grid.n_steps, 1000)
        attempts = 0
        for round_ in range(64):
            st = single_batch_stats(spec, eps, grid.dt,
                                    seed=rngmod.mix(seed, island_key),
                                    replicates=batch, tag=2 + round_,
                                    max_steps=max_steps, stop_level=delta,
                                    boundary=boundary, chunk=batch)
            if st.hit.any():
                attempts += int(np.argmax(st.hit)) + 1
                break
            attempts += batch
        else:
            raise SolverError("rejection sampling failed to accept; "
                              "delta too large for this spec?")
    gen = rngmod.substream(seed, rngmod.EXCURSION, island_key, 0)
    values, censored = _single_path(spec, delta, grid.dt, grid.n_steps, gen,
                                    boundary)
    path = Path(TimeGrid(0.0, (len(values) - 1) * grid.dt, grid.dt), values)
    return Excursion(path=path, censored=censored, attempts=attempts)


@dataclass
class Island:
    """A colonized island: excursion `exc` grafted at time s."""

    id: int
    parent_id: int | None
    generation: int
    s: float
    excursion: Excursion

    def value_at(self, t: float) -> float:
        return self.excursion.value_at(t - self.s)

    @property
    def peak(self) -> float:
        return self.excursion.peak

    @property
    def area(self) -> float:
        return self.excursion.area

    @property
    def extinction_time(self) -> float:
        """Absolute time the island's mass hits 0 (inf when censored)."""
        return self.s + self.excursion.extinction_time


@dataclass
class SpectrumSnapshot:
    """Island counts per mass bin at one time; bins exclude 0."""

    time: float
    edges: np.ndarray
    counts: np.ndarray


@dataclass
class VirginIslandTree:
    islands: list
    theta: float
    delta: float
    horizon: float
    dt: float
    x_init: tuple
    censored_count: int = 0
    dropped_births: int = 0

    def _check_t(self, t: float) -> None:
        if t < 0.0 or t > self.horizon * (1.0 + 1e-12):
            raise DomainError("query time outside [0, horizon]")

    def total_mass(self, t: float) -> float:
        self._check_t(t)
        return math.fsum(isl.value_at(t) for isl in self.islands)

    def spectrum(self, t: float, edges) -> SpectrumSnapshot:
        """Island counts per mass bin at time t."""
        self._check_t(t)
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ConfigError("need at least two bin edges")
        if not (np.all(np.diff(edges) > 0.0) and edges[0] > 0.0):
            raise ConfigError(
                "bin edges must be strictly positive and increasing")
        counts, _ = np.histogram(
            np.asarray([isl.value_at(t) for isl in self.islands]), bins=edges)
        return SpectrumSnapshot(time=t, edges=edges, counts=counts)


# memory budget of one tree: the stored path values of `build_tree` (8 bytes
# each) or the slot arrays of `sample_tree_stats` (replicate id, value,
# generation: 24 bytes per slot)
SLOT_BUDGET = 2**28
NODE_BYTES = 8
SLOT_BYTES = 24
# numpy's Generator.poisson refuses larger means
POISSON_LAM_MAX = (float(np.iinfo(np.int64).max)
                   - 10.0 * math.sqrt(np.iinfo(np.int64).max))


def _budget_error(what: str, count: float, unit: str,
                  nbytes: int) -> SolverError:
    return SolverError(
        f"{what} would pass {SLOT_BUDGET >> 20} MB ({count:.3g} {unit} at "
        f"{nbytes} bytes each); raise delta, shorten the horizon or lower "
        "generation_cap")


def _slot_error(slots: float, t: float) -> SolverError:
    return _budget_error(f"tree slot arrays at t = {t:g}", slots, "islands",
                         SLOT_BYTES)


def _check_dropped(lam: float, where: str) -> None:
    """Dropped births are only counted: refuse a mean numpy cannot draw."""
    if not lam <= POISSON_LAM_MAX:
        raise SolverError(
            f"dropped births {where} have mean {lam:g}, past the largest "
            "Poisson mean numpy draws; raise delta")


def _birth_times(cum: np.ndarray, lam: float, dt: float,
                 gen: np.random.Generator) -> np.ndarray:
    """Daughter birth times (local, sorted) for one mother excursion.

    cum is the trapezoid-integrated mother path at its nodes 0, dt, 2 dt, ...
    The count is Poisson(lam) and the times are drawn by inverse CDF on cum.
    """
    total = cum[-1]
    if total <= 0.0:
        return np.empty(0)
    n = int(gen.poisson(lam))
    if n == 0:
        return np.empty(0)
    u = gen.random(n) * total
    return np.sort(np.interp(u, cum, np.arange(cum.size) * dt))


def build_tree(spec: CoefficientSpec, x_init, theta: float, T: float,
               delta: float, grid: TimeGrid, seed: int,
               generation_cap: int = 50, method: str = "direct",
               boundary: str = "exact") -> VirginIslandTree:
    """Build one virgin-island tree, breadth-first by generation.

    Roots are the nonzero initial masses (paths started there at s=0) plus
    immigrant excursions (Poisson count with mean theta*T/S(delta), uniform
    birth times).  Every island spawns daughters at rate chi_{t-s}/S(delta)
    up to the horizon; births past the generation cap are counted in
    `dropped_births` instead of being created.  Each island's path is
    simulated to its local horizon T - s; paths still alive there are counted
    in `censored_count`.

    The stored path values (NODE_BYTES each) get the SLOT_BUDGET of
    `sample_tree_stats`.  Every island holds one from its birth on and the
    rest of its path once simulated.  The tree raises SolverError when they
    pass it, and before an immigrant or birth draw whose mean alone would.
    """
    x_init, inv_mass = _tree_inputs(spec, x_init, theta, delta, boundary)
    if abs(T - grid.horizon) > 1e-9 * max(1.0, T) or grid.t0 != 0.0:
        raise ConfigError("grid must start at 0 and span exactly T")
    dt = grid.dt

    pending = [(None, 0, 0.0, x) for x in x_init if x > 0.0]
    budget = SLOT_BUDGET // NODE_BYTES
    room = budget - len(pending)  # path values left in the budget

    def check_room(lam: float) -> None:
        if not lam <= room:
            raise _budget_error("tree paths", budget - room + lam, "values",
                                NODE_BYTES)

    g_imm = rngmod.substream(seed, rngmod.TREE, 0)
    lam = theta * T * inv_mass
    check_room(lam)
    n_imm = int(g_imm.poisson(lam))
    room -= n_imm
    for s in np.sort(g_imm.random(n_imm)) * T:
        pending.append((None, 0, float(s), None))

    islands = []
    censored_count = 0
    dropped = 0
    next_id = 0
    while pending:
        next_pending = []
        for parent_id, generation, s, mass in pending:
            iid = next_id
            next_id += 1
            n_max = max(1, int(math.ceil((T - s) / dt - 1e-9)))
            if mass is not None:
                gen_p = rngmod.substream(seed, rngmod.EXCURSION, iid, 0)
                values, cens = _single_path(spec, mass, dt, n_max, gen_p,
                                            boundary)
                exc = Excursion(Path(TimeGrid(0.0, (len(values) - 1) * dt, dt),
                                     values), censored=cens)
            else:
                exc = sample_excursion(spec, delta, TimeGrid(0.0, n_max * dt, dt),
                                       seed, method=method, boundary=boundary,
                                       island_key=iid)
            censored_count += int(exc.censored)
            isl = Island(id=iid, parent_id=parent_id, generation=generation,
                         s=s, excursion=exc)
            islands.append(isl)
            v = exc.path.values
            room -= v.size - 1
            cum = np.concatenate(([0.0],
                                  np.cumsum(0.5 * (v[:-1] + v[1:]) * dt)))
            lam = float(cum[-1]) * inv_mass
            capped = generation >= generation_cap
            if capped:
                _check_dropped(lam, f"of island {iid}")
            check_room(0.0 if capped else lam)
            g_b = rngmod.substream(seed, rngmod.EXCURSION, iid, 1)
            births = _birth_times(cum, lam, dt, g_b)
            births = births[s + births < T]
            if capped:
                dropped += births.size
            else:
                room -= births.size
                for tau in births:
                    next_pending.append((iid, generation + 1, s + float(tau),
                                         None))
        pending = next_pending
    return VirginIslandTree(islands=islands, theta=theta, delta=delta,
                            horizon=T, dt=dt, x_init=x_init,
                            censored_count=censored_count,
                            dropped_births=dropped)


# ---------------------------------------------------------------------------
# replicated tree ensembles on a shared clock
# ---------------------------------------------------------------------------

def total_mass_reducer(rep: np.ndarray, val: np.ndarray, r: int) -> np.ndarray:
    """Per-replicate total mass from slot arrays."""
    return np.bincount(rep, weights=val, minlength=r)


def bin_count_reducer(lo: float, hi: float):
    """Reducer counting islands with mass in [lo, hi) per replicate."""
    def reduce(rep: np.ndarray, val: np.ndarray, r: int) -> np.ndarray:
        sel = (val >= lo) & (val < hi)
        return np.bincount(rep[sel], minlength=r).astype(float)
    return reduce


def _pick_slots(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Slots drawn with probability proportional to their weight, in slot order.

    cum is the cumulative sum of the nonnegative slot weights (positive
    total) and u uniforms on [0, 1).  Inverse CDF with side="right" never
    picks a zero-weight slot; u * total can round up to the total, so the
    index is clamped to the last positive-weight slot, which need not be the
    last slot.
    """
    mass = cum[-1]
    idx = np.searchsorted(cum, u * mass, side="right")
    np.minimum(idx, np.searchsorted(cum, mass), out=idx)
    idx.sort()
    return idx


def sample_tree_stats(spec: CoefficientSpec, x_init, theta: float, delta: float,
                      grid: TimeGrid, seed: int, replicates: int,
                      report_nodes, reducers, tag: int,
                      generation_cap: int = 50,
                      boundary: str = "exact") -> dict:
    """Simulate `replicates` independent virgin-island trees on one clock.

    All islands of all trees in a chunk advance together as flat slot arrays
    (replicate id, value, generation).  Births are thinned per step: each
    island spawns Poisson(value*dt/S(delta)) daughters and each replicate
    gains Poisson(theta*dt/S(delta)) immigrants, all materialized at the next
    node with value delta (their own first move happens a step later).
    Births from generation `generation_cap` are counted, not created.

    Per chunk and step the births are drawn superposed, which is exact in
    law (Poisson superposition, then multinomial allocation), from the
    pre-step values in this order:
      1. one Poisson(dt/S(delta) * sum of the uncapped values): the births;
      2. one Poisson(dt/S(delta) * sum of the capped values), added to
         "_dropped_births" (only when a slot is capped);
      3. one Poisson(replicates * theta*dt/S(delta)): the immigrants;
      4. a uniform per birth, picking its mother by inverse CDF on the
         uncapped values (`_pick_slots`);
      5. an integer in [0, replicates) per immigrant, its replicate;
    then the step of every slot (`sde._step`).  Daughters append in mother
    slot order, immigrants in replicate order.  A step whose slots would
    pass SLOT_BUDGET bytes raises SolverError before the allocation draws,
    and before any draw when the mean number of new slots alone passes it.
    Dropped births take no slot; they raise SolverError only when their mean
    passes the largest one numpy draws (POISSON_LAM_MAX).

    reducers: mapping name -> fn(rep_ids, values, r) -> per-replicate vector,
    evaluated at each report node.  Returns {name: array (distinct report
    nodes in increasing order, replicates)} plus "_dropped_births" (int).
    Chunked as in the batch engines: per-(seed, tag, chunk) streams of
    TREE_CHUNK replicates, results independent of worker count but tied to
    the chunk constant.
    """
    x_init, inv_mass = _tree_inputs(spec, x_init, theta, delta, boundary)
    n = grid.n_steps
    nodes = _report_nodes(report_nodes, grid)
    node_pos = {k: i for i, k in enumerate(nodes)}
    dt = grid.dt
    birth_rate = dt * inv_mass
    imm_lam = theta * dt * inv_mass
    roots = np.asarray([x for x in x_init if x > 0.0])

    out = {name: np.empty((len(nodes), replicates)) for name in reducers}
    dropped = 0
    done = 0
    n_chunks = (replicates + TREE_CHUNK - 1) // TREE_CHUNK
    for ci in range(n_chunks):
        r = min(TREE_CHUNK, replicates - ci * TREE_CHUNK)
        gen = rngmod.substream(seed, rngmod.TREE, tag, ci)
        rep = np.repeat(np.arange(r), roots.size)
        val = np.tile(roots, r)
        gens = np.zeros(rep.size, dtype=np.int64)
        for k in range(n + 1):
            i = node_pos.get(k)
            if i is not None:
                for name, fn in reducers.items():
                    out[name][i, done:done + r] = fn(rep, val, r)
            if k == n:
                break
            # births from the pre-step values, landing at node k+1
            capped = gens >= generation_cap
            cum = np.cumsum(np.where(capped, 0.0, val))
            capped_mass = float(val[capped].sum())
            mass = float(cum[-1]) if cum.size else 0.0
            new_slots = birth_rate * mass + r * imm_lam
            if new_slots > SLOT_BUDGET // SLOT_BYTES:  # before any draw
                raise _slot_error(rep.size + new_slots, (k + 1) * dt)
            n_born = int(gen.poisson(birth_rate * mass)) if mass > 0.0 else 0
            if capped_mass > 0.0:
                lam = birth_rate * capped_mass
                _check_dropped(lam, f"at t = {(k + 1) * dt:g}")
                dropped += int(gen.poisson(lam))
            n_imm = int(gen.poisson(r * imm_lam)) if imm_lam > 0.0 else 0
            if (rep.size + n_born + n_imm) * SLOT_BYTES > SLOT_BUDGET:
                raise _slot_error(rep.size + n_born + n_imm, (k + 1) * dt)
            if n_born:
                mothers = _pick_slots(cum, gen.random(n_born))
            if n_imm:
                imm_rep = np.sort(gen.integers(0, r, n_imm))
            val, _ = _step(spec, val, dt, gen, boundary)
            if n_born or n_imm:
                rep_parts, gen_parts = [rep], [gens]
                if n_born:
                    rep_parts.append(rep[mothers])
                    gen_parts.append(gens[mothers] + 1)
                if n_imm:
                    rep_parts.append(imm_rep)
                    gen_parts.append(np.zeros(n_imm, dtype=np.int64))
                rep = np.concatenate(rep_parts)
                gens = np.concatenate(gen_parts)
                val = np.concatenate((val, np.full(n_born + n_imm, delta)))
            if (k + 1) % 16 == 0:
                alive = val > 0.0
                if not alive.all():
                    rep, val, gens = rep[alive], val[alive], gens[alive]
        done += r
    out["_dropped_births"] = dropped
    return out


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_tree_csv(tree: VirginIslandTree, fname: str) -> None:
    """Rows: island_id, parent_id, generation, s, T0, peak, area.

    T0 is the excursion's local extinction time ("inf" when censored);
    parent_id is empty for roots.
    """
    with open(fname, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["island_id", "parent_id", "generation", "s", "T0",
                    "peak", "area"])
        for isl in tree.islands:
            w.writerow([isl.id,
                        "" if isl.parent_id is None else isl.parent_id,
                        isl.generation, repr(float(isl.s)),
                        "inf" if isl.excursion.censored
                        else repr(float(isl.excursion.extinction_time)),
                        repr(float(isl.peak)), repr(float(isl.area))])


def export_spectrum_csv(snap: SpectrumSnapshot, fname: str) -> None:
    """Rows: t, bin_lo, bin_hi, count."""
    with open(fname, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "bin_lo", "bin_hi", "count"])
        for i in range(snap.counts.size):
            w.writerow([repr(snap.time), repr(float(snap.edges[i])),
                        repr(float(snap.edges[i + 1])), int(snap.counts[i])])
