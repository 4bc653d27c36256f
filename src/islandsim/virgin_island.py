"""Virgin-island trees: the tree of excursions.

An excursion is a single-island path started at the height cutoff delta and
run to absorption; the excursion measure restricted to {sup >= delta} has
total mass 1/S(delta) and, normalized, is the law of such a path (strong
Markov at the first delta-crossing makes the post-crossing path independent
of the approach from below), so one excursion is `sde.simulate_single`
started at delta.  Trees are populated by immigrant excursions (rate
theta/S(delta)), by root paths started at the initial masses, and by
daughter excursions born from each island at rate chi_{t-s}/S(delta).

One engine grows trees: `sample_tree_stats` advances many replicate trees
on a shared clock as flat slot arrays, reducing functionals of the island
values at report nodes.  `build_tree` runs one replicate of it with a
recorder that keeps one record per island (ids in birth order) and the
total mass at every node.  The module does no file I/O; `experiments`
lays a tree out as CSV rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .analytics import scale_function
from .coefficients import CoefficientSpec
from .exceptions import ConfigError, SolverError
from .sde import (TimeGrid, _check_boundary, _check_budget, _check_storage,
                  _report_nodes, _step)

__all__ = [
    "VirginIslandTree", "SpectrumSnapshot", "excursion_mass_above",
    "build_tree", "sample_tree_stats", "total_mass_reducer",
    "bin_count_reducer",
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
    if not all(0.0 <= x < math.inf for x in x_init):
        raise ConfigError("initial masses must be finite and nonnegative")
    if not 0.0 <= theta < math.inf:
        raise ConfigError("theta must be finite and nonnegative")
    _check_boundary(boundary)
    return x_init, excursion_mass_above(spec, delta)


# memory budget of one tree: the slot arrays of `sample_tree_stats`
# (replicate id, value, generation: 24 bytes per live island) and, in
# `build_tree`, the island records (id, parent, generation, birth node, peak,
# area, extinction node: 56 bytes per island)
SLOT_BUDGET = 2**28
SLOT_BYTES = 24
RECORD_BYTES = 56
# numpy's Generator.poisson refuses larger means
POISSON_LAM_MAX = (float(np.iinfo(np.int64).max)
                   - 10.0 * math.sqrt(np.iinfo(np.int64).max))


def _slot_error(islands: float, t: float,
                nbytes: int = SLOT_BYTES) -> SolverError:
    return SolverError(
        f"tree at t = {t:g} would pass {SLOT_BUDGET >> 20} MB ({islands:.3g} "
        f"islands at {nbytes} bytes each); raise delta, shorten the horizon "
        "or lower generation_cap")


def _check_dropped(lam: float, t: float) -> None:
    """Dropped births are only counted: refuse a mean numpy cannot draw."""
    if not lam <= POISSON_LAM_MAX:
        raise SolverError(
            f"dropped births at t = {t:g} have mean {lam:g}, past the largest "
            "Poisson mean numpy draws; raise delta")


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
                      boundary: str = "exact", recorder=None) -> dict:
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
    Result arrays past it raise ConfigError before any allocation.
    Dropped births take no slot; they raise SolverError only when their mean
    passes the largest one numpy draws (POISSON_LAM_MAX).

    reducers: mapping name -> fn(rep_ids, values, r) -> per-replicate vector,
    evaluated at each report node.  Returns {name: array (distinct report
    nodes in increasing order, replicates)} plus "_dropped_births" (int).
    Chunked as in the batch engines: per-(seed, tag, chunk) streams of
    TREE_CHUNK replicates, results independent of worker count but tied to
    the chunk constant.

    recorder is `build_tree`'s hook (one replicate): it sees the slots at
    every node with the mothers of that node's births, and every compaction
    of the slots; it draws nothing.  Each new island then costs SLOT_BYTES +
    RECORD_BYTES in the mean check before the draws.
    """
    x_init, inv_mass = _tree_inputs(spec, x_init, theta, delta, boundary)
    n = grid.n_steps
    nodes = _report_nodes(report_nodes, grid)
    node_pos = {k: i for i, k in enumerate(nodes)}
    dt = grid.dt
    birth_rate = dt * inv_mass
    imm_lam = theta * dt * inv_mass
    roots = np.asarray([x for x in x_init if x > 0.0])
    island_bytes = SLOT_BYTES + (0 if recorder is None else RECORD_BYTES)
    _check_budget(8 * len(nodes) * replicates * len(reducers), "replicates")

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
        top = 0  # no slot's generation exceeds it
        if recorder is not None:
            recorder.step(0, rep, val, gens, None)
        for k in range(n + 1):
            i = node_pos.get(k)
            if i is not None:
                for name, fn in reducers.items():
                    out[name][i, done:done + r] = fn(rep, val, r)
            if k == n:
                break
            # births from the pre-step values, landing at node k+1
            if generation_cap <= 0:  # no slot gives birth
                cum, mass, capped_mass = None, 0.0, float(val.sum())
            else:
                if top < generation_cap:  # no slot is capped
                    cum, capped_mass = np.cumsum(val), 0.0
                else:  # capped slots weigh 0 as mothers
                    capped = gens >= generation_cap
                    cum = np.cumsum(np.where(capped, 0.0, val))
                    capped_mass = float(val[capped].sum())
                mass = float(cum[-1]) if cum.size else 0.0
            new_slots = birth_rate * mass + r * imm_lam
            if new_slots > SLOT_BUDGET // island_bytes:  # before any draw
                raise _slot_error(rep.size + new_slots, (k + 1) * dt,
                                  island_bytes)
            n_born = int(gen.poisson(birth_rate * mass)) if mass > 0.0 else 0
            if capped_mass > 0.0:
                lam = birth_rate * capped_mass
                _check_dropped(lam, (k + 1) * dt)
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
                    top = max(top, int(gen_parts[-1].max()))
                if n_imm:
                    rep_parts.append(imm_rep)
                    gen_parts.append(np.zeros(n_imm, dtype=np.int64))
                rep = np.concatenate(rep_parts)
                gens = np.concatenate(gen_parts)
                val = np.concatenate((val, np.full(n_born + n_imm, delta)))
            if recorder is not None:
                recorder.step(k + 1, rep, val, gens,
                              mothers if n_born else None)
            if (k + 1) % 16 == 0:
                alive = val > 0.0
                if not alive.all():
                    rep, val, gens = rep[alive], val[alive], gens[alive]
                    if recorder is not None:
                        recorder.keep(alive)
        done += r
    out["_dropped_births"] = dropped
    return out


# ---------------------------------------------------------------------------
# one recorded tree
# ---------------------------------------------------------------------------

@dataclass
class SpectrumSnapshot:
    """Island counts per mass bin at one time; bins exclude 0."""

    time: float
    edges: np.ndarray
    counts: np.ndarray


@dataclass
class VirginIslandTree:
    """One tree of excursions: a record per island, the total mass per node.

    Island ids are the record indices and follow birth order: the roots in
    x_init order, then per node the daughters in mother slot order and the
    immigrants.  birth and death are grid nodes: an island holds its root
    mass or delta at node birth and mass 0 from node death on; death is -1
    for an island alive at the horizon (censored).  parent is -1 for roots
    and immigrants.  totals is the total mass at every node, spectrum_values
    the island masses at spectrum_time.
    """

    grid: TimeGrid
    parent: np.ndarray
    generation: np.ndarray
    birth: np.ndarray
    death: np.ndarray
    peak: np.ndarray
    area: np.ndarray
    totals: np.ndarray
    dropped_births: int
    spectrum_time: float
    spectrum_values: np.ndarray

    def total_mass(self, t: float) -> float:
        """Total mass at the grid time t."""
        return float(self.totals[self.grid.node_of(t)])

    def spectrum(self, edges) -> SpectrumSnapshot:
        """Island counts per mass bin at spectrum_time."""
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or not (
                np.all(np.diff(edges) > 0.0) and edges[0] > 0.0):
            raise ConfigError("need two or more strictly positive, "
                              "increasing bin edges")
        counts, _ = np.histogram(self.spectrum_values, bins=edges)
        return SpectrumSnapshot(self.spectrum_time, edges, counts)


class _TreeRecorder:
    """The island records of the one replicate `build_tree` grows.

    Slot-aligned arrays, compacted with the engine's slots, hold each live
    island's id, value, running peak and trapezoid area.  The rest of a
    record is kept at birth (parent, generation, birth node) and at
    extinction (ids, peaks, areas, node).
    """

    def __init__(self, grid: TimeGrid, spectrum_node: int):
        self.dt, self.spectrum_node = grid.dt, spectrum_node
        self.totals = np.empty(grid.n_steps + 1)
        self.count, self.ids = 0, np.arange(0)
        self.val, self.peak, self.area = np.empty(0), np.empty(0), np.empty(0)
        self.born, self.ended = [(np.arange(0),) * 3], []

    def step(self, k: int, rep: np.ndarray, val: np.ndarray,
             gens: np.ndarray, mothers) -> None:
        """Advance the records to node k; slots past the old ones are born."""
        old, m = self.val, self.val.size
        new = val[:m]
        self.area += 0.5 * (old + new) * self.dt
        np.maximum(self.peak, new, out=self.peak)
        died = ((old > 0.0) & (new == 0.0)).nonzero()[0]
        if died.size:
            self.ended.append((self.ids[died], self.peak[died],
                               self.area[died], k))
        n_new = val.size - m
        if n_new:
            count = self.count + n_new
            if count * (SLOT_BYTES + RECORD_BYTES) > SLOT_BUDGET:
                raise _slot_error(count, k * self.dt, SLOT_BYTES + RECORD_BYTES)
            parent = np.full(n_new, -1)
            if mothers is not None:
                parent[:mothers.size] = self.ids[mothers]
            self.born.append((parent, gens[m:].copy(), np.full(n_new, k)))
            self.ids = np.concatenate((self.ids, np.arange(self.count, count)))
            self.peak = np.concatenate((self.peak, val[m:]))
            self.area = np.concatenate((self.area, np.zeros(n_new)))
            self.count = count
        self.val = val
        self.totals[k] = total_mass_reducer(rep, val, 1)[0]
        if k == self.spectrum_node:
            self.spectrum = val.copy()

    def keep(self, alive: np.ndarray) -> None:
        self.ids, self.val = self.ids[alive], self.val[alive]
        self.peak, self.area = self.peak[alive], self.area[alive]


def build_tree(spec: CoefficientSpec, x_init, theta: float, delta: float,
               grid: TimeGrid, seed: int,
               generation_cap: int = 50, boundary: str = "exact",
               spectrum_time: float | None = None) -> VirginIslandTree:
    """Grow one virgin-island tree on `grid`, which must start at 0:
    `sample_tree_stats` at one replicate.

    Same seed, tag 0: same law, same draws, and the total mass at every node
    is that engine's `total_mass_reducer`, bit for bit.  A recorder on its
    slot loop keeps a record per island (see VirginIslandTree) and the
    island masses at `spectrum_time`, a grid time (default: the horizon).
    Every island ever born is charged SLOT_BYTES + RECORD_BYTES against
    SLOT_BUDGET, as if it were still live; past it, SolverError.
    """
    if grid.t0 != 0.0:
        raise ConfigError("the tree's grid must start at 0")
    _check_storage(grid, 1)
    t_snap = grid.horizon if spectrum_time is None else spectrum_time
    rec = _TreeRecorder(grid, grid.node_of(t_snap))
    dropped = sample_tree_stats(spec, x_init, theta, delta, grid, seed, 1, (),
                                {}, tag=0, generation_cap=generation_cap,
                                boundary=boundary,
                                recorder=rec)["_dropped_births"]
    parent, generation, birth = map(np.concatenate, zip(*rec.born))
    peak, area = np.empty(rec.count), np.empty(rec.count)
    death = np.full(rec.count, -1)
    peak[rec.ids], area[rec.ids] = rec.peak, rec.area
    for ids, pk, ar, node in rec.ended:
        peak[ids], area[ids], death[ids] = pk, ar, node
    return VirginIslandTree(grid, parent, generation, birth, death, peak, area,
                            rec.totals, dropped, t_snap, rec.spectrum)
