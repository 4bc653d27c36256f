"""Experiment harness: one runner per command, from analyze to identities.

Each run_* function takes an ExperimentConfig, drives the engines (one
stored path in `run_simulate`, one tree in `run_tree`), and returns an
ExperimentReport carrying rows (CSV), extra tables, scalar metrics, and
named verdicts.  Reports embed the resolved configuration and the master
seed; `ExperimentReport.write`, the package's only file writer, writes the
CSVs plus a JSON summary keyed by a hash of that configuration.

Comparison verdicts are one-sided by design: the stochastic order being
checked puts the system total mass below the virgin-island mass for the
admissible functional class, so a functional passes when
mean_system <= mean_tree + 3*(se_sys + se_tree).
The signed gap is always reported alongside; nothing is clipped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .analytics import (extinction_criterion, classify_regime, scale_function,
                        solve_rho, extinction_probability, speed_mass)
from .coefficients import (CoefficientSpec, LinearDiffusion, Logistic,
                           DRIFT_FAMILIES, DIFFUSION_FAMILIES)
from .exceptions import ConfigError
from .mean_field import duality_gap
from .sde import (SYSTEM_CHUNK, MigrationMatrix, TimeGrid, _check_boundary,
                  _check_budget, _check_state, _n_islands, _report_nodes,
                  sample_system_stats, simulate_single, simulate_system,
                  single_batch_stats)
from .virgin_island import (bin_count_reducer, build_tree, sample_tree_stats,
                            total_mass_reducer)

__all__ = [
    "ExpDecreasingConcave", "MixedMonomial", "SmoothedStep", "tent",
    "ExperimentConfig", "ExperimentReport", "config_hash",
    "run_comparison", "run_convergence", "run_identity_suite", "run_duality",
    "run_analyze", "run_simulate", "run_tree",
]


# ---------------------------------------------------------------------------
# test functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpDecreasingConcave:
    """F = 1 - exp(-sum_j lambda_j eta_{t_j}); increasing, jointly concave.

    Values lie in [0, 1].  Admissible for specs with concave drift and
    superadditive squared diffusion.
    """

    lambdas: tuple
    times: tuple
    cls = "F+-"

    def __post_init__(self):
        if len(self.lambdas) != len(self.times) or not self.times:
            raise ConfigError("need one lambda per evaluation time")
        if not all(0.0 <= l < math.inf for l in self.lambdas):
            raise ConfigError("lambdas must be finite and nonnegative")

    @property
    def label(self) -> str:
        terms = ",".join(f"{l:g}@{t:g}" for l, t in zip(self.lambdas, self.times))
        return f"one_minus_exp[{terms}]"

    def evaluate(self, rows: np.ndarray) -> np.ndarray:
        z = np.zeros(rows.shape[1])
        for j, lam in enumerate(self.lambdas):
            z += lam * rows[j]
        return -np.expm1(-z)


@dataclass(frozen=True)
class MixedMonomial:
    """F = prod_j eta_{t_j}; increasing, directionally convex, nonnegative."""

    times: tuple
    cls = "F++"

    def __post_init__(self):
        if not self.times:
            raise ConfigError("need at least one evaluation time")

    @property
    def label(self) -> str:
        return "monomial[" + ",".join(f"{t:g}" for t in self.times) + "]"

    def evaluate(self, rows: np.ndarray) -> np.ndarray:
        return np.prod(rows, axis=0)


def _smoothstep(z: np.ndarray) -> np.ndarray:
    z = np.clip(z, 0.0, 1.0)
    return z * z * (3.0 - 2.0 * z)


@dataclass(frozen=True)
class SmoothedStep:
    """Mean of C^1 ramps 0->1 over [a_j, a_j + w_j]: bounded, nondecreasing.

    Smooth stand-in for indicator steps; step edges would alias against the
    time grid.  Admissible whenever the plain nondecreasing order applies
    (subadditive drift, additive squared diffusion).
    """

    thresholds: tuple
    widths: tuple
    times: tuple
    cls = "F+pm"

    def __post_init__(self):
        if not (len(self.thresholds) == len(self.widths) == len(self.times)) \
                or not self.times:
            raise ConfigError("thresholds, widths, times must align")
        if any(w <= 0.0 for w in self.widths):
            raise ConfigError("ramp widths must be positive")

    @property
    def label(self) -> str:
        terms = ",".join(f"{a:g}+{w:g}@{t:g}"
                         for a, w, t in zip(self.thresholds, self.widths, self.times))
        return f"step[{terms}]"

    def evaluate(self, rows: np.ndarray) -> np.ndarray:
        acc = np.zeros(rows.shape[1])
        for j, (a, w) in enumerate(zip(self.thresholds, self.widths)):
            acc += _smoothstep((rows[j] - a) / w)
        return acc / len(self.times)


def tent(lo: float, hi: float):
    """Tent function on (lo, hi), peak 1 at the midpoint, 0 outside."""
    if not 0.0 < lo < hi < math.inf:
        raise ConfigError("tent_support must satisfy 0 < lo < hi < inf")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    def f(y):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(y, dtype=float) - mid) / half)
    return f


_CLASS_REQUIREMENTS = {
    "F+-": ("mu_concave", "sigma2_superadditive"),
    "F++": ("mu_concave", "sigma2_subadditive"),
    "F+pm": ("mu_subadditive", "sigma2_additive"),
}


def _admissible_classes(spec: CoefficientSpec) -> set:
    st = spec.structure
    return {cls for cls, flags in _CLASS_REQUIREMENTS.items()
            if all(getattr(st, f) for f in flags)}


# ---------------------------------------------------------------------------
# configuration and reports
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Resolved inputs for one experiment run.

    Only the fields an experiment consumes matter to it; the full set is
    embedded in every report for reproducibility.
    """

    spec: CoefficientSpec
    grid: TimeGrid
    replicates: int
    seed: int
    delta: float = 0.05
    theta: float = 0.0
    topology: object = None          # island count or MigrationMatrix
    x_init: tuple = ()
    functionals: tuple = ()
    tree_dt: float | None = None     # coarser tree step, default grid.dt
    boundary: str = "exact"
    generation_cap: int = 50
    n_ladder: tuple = (1, 10, 50, 200)
    tent_support: tuple = (0.5, 1.5)
    eval_time: float | None = None   # convergence snapshot, default horizon
    eps: float = 1e-3                # identity-suite launch level
    bin_edges: tuple = (0.1, 0.35, 0.7, 1.2, 2.0)
    n_part: int = 2000
    mv_replicates: int | None = None
    duality_points: tuple = ((1.0, 1.0, 0.5),)
    diag_fraction: float = 0.1       # loop-free diagnostic replicate share
    k_max: int = 6
    y_grid: tuple = (0.0, 0.5, 1.0, 2.0, 4.0)

    def __post_init__(self):
        self.replicates = int(self.replicates)
        if self.replicates < 100:
            raise ConfigError("replicates must be at least 100")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.delta < self.spec.domain.upper:
            raise ConfigError("delta must lie strictly inside the domain")
        if not 0.0 <= self.theta < math.inf:
            raise ConfigError("theta must be finite and nonnegative")
        _check_boundary(self.boundary)
        self.x_init = tuple(float(x) for x in self.x_init)
        if not all(0.0 <= x < math.inf for x in self.x_init):
            raise ConfigError("x_init masses must be finite and nonnegative")
        if self.eval_time is not None:
            self.grid.node_of(self.eval_time, "eval_time")
        if not 0.0 <= self.diag_fraction <= 1.0:
            raise ConfigError("diag_fraction must be a number in [0, 1], "
                              f"got {self.diag_fraction!r}")

    def tree_grid(self) -> TimeGrid:
        if self.tree_dt is None or self.tree_dt == self.grid.dt:
            return self.grid
        return TimeGrid(self.grid.t0, self.grid.horizon, self.tree_dt)


def _family_name(obj, table) -> str:
    for name, cls in table.items():
        if type(obj) is cls:
            return name
    return type(obj).__name__


def _jsonable(v):
    if isinstance(v, float):
        return "inf" if math.isinf(v) else v
    if isinstance(v, (np.floating, np.integer)):
        return _jsonable(v.item())
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


def describe_spec(spec: CoefficientSpec) -> dict:
    return {
        "drift": {"family": _family_name(spec.drift, DRIFT_FAMILIES),
                  "params": _jsonable(dataclasses.asdict(spec.drift))},
        "diffusion": {"family": _family_name(spec.diffusion, DIFFUSION_FAMILIES),
                      "params": _jsonable(dataclasses.asdict(spec.diffusion))},
        "domain": {"upper": _jsonable(spec.domain.upper)},
        "structure": dataclasses.asdict(spec.structure),
    }


def snapshot_config(cfg: ExperimentConfig) -> dict:
    snap = {"spec": describe_spec(cfg.spec),
            "grid": {"t0": cfg.grid.t0, "horizon": cfg.grid.horizon,
                     "dt": cfg.grid.dt}}
    for f in dataclasses.fields(cfg):
        if f.name in ("spec", "grid"):
            continue
        v = getattr(cfg, f.name)
        if f.name == "topology" and isinstance(v, MigrationMatrix):
            v = {"n_islands": v.n_islands, "entries": v.entries.tolist()}
        elif f.name == "functionals":
            v = [{"kind": type(fn).__name__, "label": fn.label}
                 for fn in v]
        snap[f.name] = _jsonable(v)
    return snap


def config_hash(snapshot: dict) -> str:
    blob = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def write_csv(path: str, columns, rows) -> None:
    """Write the header `columns` and one line per row of `rows`.

    The one CSV format of the package: fields joined by commas, unquoted,
    floats as repr, booleans as true/false, LF line ends.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


@dataclass
class ExperimentReport:
    """A command's result; tables maps the stem of each extra CSV to its
    (columns, rows)."""

    experiment: str
    seed: int
    config: dict
    columns: tuple
    rows: object
    metrics: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def write(self, out_dir: str) -> tuple:
        """Write <experiment>.csv, a <stem>.csv per table and
        <experiment>.json into out_dir, creating it; returns the CSV paths,
        then the JSON path.  Each rows object is iterated once, so rows may
        stream from a generator."""
        os.makedirs(out_dir, exist_ok=True)
        tables = {self.experiment: (self.columns, self.rows), **self.tables}
        paths = [os.path.join(out_dir, stem + ".csv") for stem in tables]
        for path, (columns, rows) in zip(paths, tables.values()):
            write_csv(path, columns, rows)
        paths.append(os.path.join(out_dir, self.experiment + ".json"))
        summary = {"experiment": self.experiment,
                   "config_hash": config_hash(self.config),
                   "seed": self.seed,
                   "metrics": _jsonable(self.metrics),
                   "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
                   "config": self.config}
        with open(paths[-1], "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return tuple(paths)


def _mean_se(values: np.ndarray):
    m = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return m, se


_EPS = 2.0 ** -52
_TINY = 1e-300

# scipy.stats.chi2.ppf(0.99, dof) bit for bit for dof 1-64, the critical
# values of the identities check; written by
# [float(scipy.stats.chi2.ppf(0.99, d)) for d in range(1, 65)] (scipy 1.17.1)
_CHI2_99 = (
    6.6348966010212145, 9.21034037197618, 11.344866730144373,
    13.276704135987622, 15.08627246938899, 16.811893829770927,
    18.475306906582357, 20.090235029663233, 21.665994333461924,
    23.209251158954356, 24.724970311318277, 26.216967305535853,
    27.68824961045705, 29.141237740672796, 30.57791416689249,
    31.999926908815176, 33.40866360500461, 34.805305734705065,
    36.19086912927004, 37.56623478662507, 38.93217268351607,
    40.289360437593864, 41.638398118858476, 42.97982013935165,
    44.31410489621915, 45.64168266628317, 46.962942124751436,
    48.27823577031548, 49.58788447289881, 50.89218131151707,
    52.19139483319193, 53.48577183623535, 54.77553976011035,
    56.06090874778906, 57.3420734338592, 58.61921450168706,
    59.89250004508689, 61.1620867636897, 62.4281210161849,
    63.690739751564465, 64.9500713352112, 66.20623628399322,
    67.45934792232582, 68.7095129693454, 69.95683206583814,
    71.20140024831149, 72.44330737654823, 73.68263852010573,
    74.91947430847816, 76.1538912490127, 77.38596201613736,
    78.6157557150025, 79.84333812225145, 81.0687719062971,
    82.29211682919967, 83.51342993198946, 84.73276570506393,
    85.95017624510335, 87.16571139978757, 88.37941890144937,
    89.59134449068712, 90.80153203083871, 92.01002361413214,
    93.21685966023843,
)


def _gamma_tail(a: float, y: float) -> float:
    """Regularized upper incomplete gamma Q(a, y) = 1 - P(a, y).

    1 minus a series for P below y = a + 1 and a continued fraction
    (modified Lentz) for Q above, so Q taken as 1 - P is never below about
    0.08 and loses at most a digit.  The prefactor
    y^a e^-y / Gamma(a) is taken in logs, so large a does not overflow.
    """
    log_pre = a * math.log(y) - y - math.lgamma(a)
    if y < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= y / n
            total += term
        return 1.0 - math.exp(log_pre) * total
    b = y + 1.0 - a
    c = 1.0 / _TINY
    d = h = 1.0 / b
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    return math.exp(log_pre) * h


def _chi2_ppf(dof: int) -> float:
    """The chi-square 0.99 quantile: x with P(chi2_dof <= x) = 0.99.

    For dof 1-64 it is `_CHI2_99`, scipy.stats.chi2.ppf's value bit for
    bit.  Above, it inverts the upper tail Q(dof/2, x/2) = 0.01 in the
    module: a Wilson-Hilferty start, then Halley steps, bisecting whenever a
    step leaves the bracket seen so far (DiDonato and Morris, ACM TOMS 12,
    1986).  Against scipy.stats.chi2.ppf it agrees within 1e-12 relative:
    at most about 100 ulp for dof up to 1000, where the log prefactor's
    rounding dominates.
    """
    if 1 <= dof <= len(_CHI2_99):
        return _CHI2_99[dof - 1]
    a = dof / 2.0
    target = 1.0 - 0.99
    # Abramowitz and Stegun 26.2.23 for the normal quantile, |error| < 4.5e-4
    t = math.sqrt(-2.0 * math.log(target))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    h = 2.0 / (9.0 * dof)
    y = 0.5 * dof * (1.0 - h + z * math.sqrt(h)) ** 3  # the cube is > 0
    lo, hi = 0.0, math.inf
    for _ in range(100):
        f = target - _gamma_tail(a, y)  # increasing in y
        if f == 0.0:
            break
        if f > 0.0:
            hi = y
        else:
            lo = y
        step = f * y / math.exp(a * math.log(y) - y - math.lgamma(a))
        halley = 1.0 - 0.5 * step * ((a - 1.0) / y - 1.0)
        if halley > 0.5:
            step /= halley
        if abs(step) <= 2.0 * _EPS * y:
            y -= step
            break
        y -= step
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
    return 2.0 * y


# ---------------------------------------------------------------------------
# comparison experiment
# ---------------------------------------------------------------------------

def _system_x0(x_init, topology) -> np.ndarray:
    """Root masses placed on the first islands of topology, zeros elsewhere."""
    n_islands = _n_islands(topology)
    _check_budget(8 * n_islands, "topology or n_ladder")
    if len(x_init) > n_islands:
        raise ConfigError("more initial masses than islands")
    x0 = np.zeros(n_islands)
    x0[:len(x_init)] = x_init
    return x0


def run_comparison(cfg: ExperimentConfig) -> ExperimentReport:
    """Total mass of the island system vs the virgin island process.

    For every functional F of an admissible class, estimates E F(sum_i X(i))
    and E F(V) at the functional's times and checks the system side does not
    exceed the tree side by more than 3 combined standard errors.  A
    loop-free intermediate run (reduced replicates) is reported as a
    diagnostic column: the ordering chain puts it between the two.  The
    metrics and verdicts are keyed by functional label, so two functionals
    with one label (times print with 6 significant digits) are refused.
    """
    if not cfg.functionals:
        raise ConfigError("comparison needs at least one functional")
    admissible = _admissible_classes(cfg.spec)
    for fn in cfg.functionals:
        if fn.cls not in admissible:
            raise ConfigError(
                f"functional {fn.label} needs class {fn.cls}, but the spec "
                f"declares only {sorted(admissible) or 'no order'}")
    labels = [fn.label for fn in cfg.functionals]
    repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
    if repeated:
        raise ConfigError("functional labels key the report and must be "
                          f"unique: {', '.join(repeated)} repeats")
    if cfg.topology is None:
        raise ConfigError("comparison needs a topology")

    times = {t for fn in cfg.functionals for t in fn.times}
    nodes = _report_nodes([cfg.grid.node_of(t) for t in times], cfg.grid)

    x0 = _system_x0(cfg.x_init, cfg.topology)
    diag_reps = max(100, int(cfg.replicates * cfg.diag_fraction))
    # the loop-free chunk state, before the unsplit run spends its time
    _check_state(x0, (min(SYSTEM_CHUNK, diag_reps),), cfg.k_max)
    reducers = {"total": lambda block: block.sum(axis=1)}
    sys_stats = sample_system_stats(cfg.spec, cfg.topology, cfg.theta, x0,
                                    cfg.grid, cfg.seed, cfg.replicates, nodes,
                                    reducers, tag=21)["total"]
    diag_stats = sample_system_stats(cfg.spec, cfg.topology, cfg.theta, x0,
                                     cfg.grid, cfg.seed, diag_reps, nodes,
                                     reducers, tag=22, mode="loop_free",
                                     k_max=cfg.k_max)["total"]

    tgrid = cfg.tree_grid()
    tnodes = _report_nodes([tgrid.node_of(t) for t in times], tgrid)
    tree_stats = sample_tree_stats(cfg.spec, cfg.x_init, cfg.theta, cfg.delta,
                                   tgrid, cfg.seed, cfg.replicates, tnodes,
                                   {"V": total_mass_reducer}, tag=23,
                                   generation_cap=cfg.generation_cap,
                                   boundary=cfg.boundary)["V"]

    columns = ("functional", "class", "mean_system", "se_system",
               "mean_loop_free", "mean_tree", "se_tree", "gap", "threshold",
               "ordered")
    rows, metrics, verdicts = [], {}, {}
    for fn in cfg.functionals:
        # the engines report each node once, in increasing order
        sel = [nodes.index(cfg.grid.node_of(t)) for t in fn.times]
        tsel = [tnodes.index(tgrid.node_of(t)) for t in fn.times]
        m_sys, se_sys = _mean_se(fn.evaluate(sys_stats[sel]))
        m_diag, _ = _mean_se(fn.evaluate(diag_stats[sel]))
        m_tree, se_tree = _mean_se(fn.evaluate(tree_stats[tsel]))
        gap = m_sys - m_tree
        thr = 3.0 * (se_sys + se_tree)
        ok = gap <= thr
        rows.append((fn.label, fn.cls, m_sys, se_sys, m_diag, m_tree,
                     se_tree, gap, thr, ok))
        metrics[fn.label] = {"mean_system": m_sys, "se_system": se_sys,
                             "mean_loop_free": m_diag, "mean_tree": m_tree,
                             "se_tree": se_tree, "gap": gap, "threshold": thr}
        verdicts[fn.label] = ok
    verdicts["all_ordered"] = all(bool(v) for v in verdicts.values())
    return ExperimentReport("comparison", cfg.seed, snapshot_config(cfg),
                            columns, rows, metrics, verdicts)


# ---------------------------------------------------------------------------
# convergence experiment
# ---------------------------------------------------------------------------

def run_convergence(cfg: ExperimentConfig) -> ExperimentReport:
    """Spectrum functional E[F(sum_i f(X_t(i)))] along an N ladder vs the tree.

    f is a tent supported away from 0, F(u) = 1 - exp(-u).  Reports the
    absolute gap per ladder point and whether the gap shrinks from the
    smallest N > 1 to the largest.  N = 1 is evaluated but excluded from the
    trend (self-migration is degenerate).
    """
    if not isinstance(cfg.spec.diffusion, LinearDiffusion):
        raise ConfigError("convergence experiment requires a linear "
                          "squared-diffusion spec")
    if len(cfg.tent_support) != 2:
        raise ConfigError("tent_support must be two numbers [lo, hi]")
    if not all(float(n).is_integer() for n in cfg.n_ladder):
        raise ConfigError("n_ladder must hold whole island counts")
    f = tent(*cfg.tent_support)
    t = cfg.grid.horizon if cfg.eval_time is None else float(cfg.eval_time)
    node = cfg.grid.node_of(t)
    F = lambda u: -np.expm1(-u)
    x0s = [_system_x0(cfg.x_init, int(N)) for N in cfg.n_ladder]

    tgrid = cfg.tree_grid()
    tree_red = {"tent_sum": lambda rep, val, r:
                np.bincount(rep, weights=f(val), minlength=r)}
    tree_sum = sample_tree_stats(cfg.spec, cfg.x_init, cfg.theta, cfg.delta,
                                 tgrid, cfg.seed, cfg.replicates,
                                 [tgrid.node_of(t)], tree_red, tag=39,
                                 generation_cap=cfg.generation_cap,
                                 boundary=cfg.boundary)["tent_sum"][0]
    m_tree, se_tree = _mean_se(F(tree_sum))

    reducers = {"tent_sum": lambda block: f(block).sum(axis=1)}
    columns = ("N", "mean_system", "se_system", "mean_tree", "se_tree",
               "gap", "in_trend")
    rows, metrics = [], {}
    gaps = {}
    for i, x0 in enumerate(x0s):
        N = x0.size
        vals = sample_system_stats(cfg.spec, N, cfg.theta, x0, cfg.grid,
                                   cfg.seed, cfg.replicates, [node], reducers,
                                   tag=40 + i)["tent_sum"][0]
        m_sys, se_sys = _mean_se(F(vals))
        gap = abs(m_sys - m_tree)
        in_trend = N > 1
        if in_trend:
            gaps[N] = gap
        rows.append((N, m_sys, se_sys, m_tree, se_tree, gap, in_trend))
        metrics[f"N={N}"] = {"mean_system": m_sys, "se_system": se_sys,
                             "gap": gap}
    metrics["tree"] = {"mean": m_tree, "se": se_tree}
    if len(gaps) >= 2:
        n_lo, n_hi = min(gaps), max(gaps)
        shrinks = gaps[n_hi] < gaps[n_lo]
    else:
        shrinks = False
    verdicts = {"gap_shrinks": shrinks}
    return ExperimentReport("convergence", cfg.seed, snapshot_config(cfg),
                            columns, rows, metrics, verdicts)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

# q-mass splitting levels grow by _SPLIT_RATIO (stage hit probabilities near
# 0.2, the fixed-effort optimum) where a step's sd sqrt(sigma2(y) dt) is at
# most _SPLIT_SD * y; below, node-only crossing detection biases a stage low.
_SPLIT_RATIO = 5.0
_SPLIT_SD = 0.25


def _split_levels(spec, eps, delta, dt, s_ends, replicates):
    """Levels eps = L_0 < ... < L_K = delta and the launches per stage.

    Inner levels: start * _SPLIT_RATIO**j < delta (at most replicates - 1),
    start = max(eps, L_min), j from 1 if start == eps, else 0; L_min is the
    smallest level the step resolves (geometric bisection on sigma2).
    Launches: sqrt((1 - p_j)/p_j), p_j = S(L_j)/S(L_j+1), s_ends = (S(eps),
    S(delta)); one at least each, `replicates` in all (largest remainders).
    """
    def resolved(y):  # max: a custom sigma2 may dip below 0
        return math.sqrt(max(float(spec.sigma2(y)), 0.0) * dt) <= _SPLIT_SD * y

    lo, floor = eps, eps if resolved(eps) else delta
    if floor > eps and resolved(delta):  # bisect the floor in (eps, delta]
        while lo < (mid := math.sqrt(lo) * math.sqrt(floor)) < floor:
            lo, floor = (lo, mid) if resolved(mid) else (mid, floor)
    level, mids = floor if floor > eps else eps * _SPLIT_RATIO, []
    while level < delta and len(mids) < replicates - 1:
        if resolved(level):
            mids.append(level)
        level *= _SPLIT_RATIO
    s = [s_ends[0]] + [scale_function(spec, y) for y in mids] + [s_ends[1]]
    w = [math.sqrt(b / a - 1.0) for a, b in zip(s, s[1:])]
    ideal = [(replicates - len(w)) * x / sum(w) for x in w]
    launches = [1 + int(x) for x in ideal]
    by_remainder = sorted(range(len(w)), key=lambda j: int(ideal[j]) - ideal[j])
    for j in by_remainder[:replicates - sum(launches)]:
        launches[j] += 1
    return [eps] + mids + [delta], launches


def run_identity_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """Three excursion-measure identities at MC resolution.

    (a) quadrature extinction criterion vs (1/S(eps)) E^eps[integral of Y];
    (b) excursion mass 1/S(delta) vs the eps-launch hit estimate
        P^eps(T_delta < T_0)/S(eps);
    (c) snapshot of a stationary immigration point process (first-generation
        islands only) against theta * m(dy) on bins, chi-square distance.

    (b) splits the launches (strong Markov property): the hit probability is
    the product of the hit fractions p_j of the stages L_j -> L_j+1 of
    `_split_levels`, SE sqrt(sum_j (se_j prod_{i!=j} p_i)^2).  Stage 0 draws
    from tag 32, stage j >= 1 from tag 100 + j (no other run's).  One stage
    is the plain estimator; a split run adds levels, launches, hit_fraction.
    """
    spec = cfg.spec
    dt = cfg.grid.dt
    eps = cfg.eps
    if not 0.0 < eps < cfg.delta:  # a launch at or past delta hits at once
        raise ConfigError(f"eps must lie in (0, delta), got {eps!r}")
    edges = tuple(float(e) for e in cfg.bin_edges)
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ConfigError("bin_edges must be strictly increasing")
    if edges[0] < cfg.delta:
        raise ConfigError("speed-measure bins must start at or above delta")
    theta_quad = extinction_criterion(spec)
    s_eps = scale_function(spec, eps)

    max_steps = int(round(cfg.grid.horizon / dt))
    st = single_batch_stats(spec, eps, dt, cfg.seed, cfg.replicates, tag=31,
                            max_steps=max_steps, boundary=cfg.boundary)
    area_mean, area_se = _mean_se(st.area)
    mc_area = area_mean / s_eps
    rel_gap_a = mc_area / theta_quad - 1.0
    censored_a = int(st.censored)

    s_delta = scale_function(spec, cfg.delta)
    q_quad = 1.0 / s_delta
    levels, launches = _split_levels(spec, eps, cfg.delta, dt,
                                     (s_eps, s_delta), cfg.replicates)
    stages = [_mean_se(single_batch_stats(
        spec, levels[j], dt, cfg.seed, n, tag=32 if j == 0 else 100 + j,
        max_steps=max_steps, stop_level=levels[j + 1],
        boundary=cfg.boundary).hit.astype(float))
        for j, n in enumerate(launches)]
    p_hat = [p for p, _ in stages]
    hit_mean = math.prod(p_hat)
    hit_se = math.hypot(*(se * math.prod(p_hat[:j] + p_hat[j + 1:])
                          for j, (_, se) in enumerate(stages)))
    mc_q = hit_mean / s_eps
    rel_gap_b = mc_q / q_quad - 1.0

    theta_c = cfg.theta if cfg.theta > 0.0 else 1.0
    snap_reps = max(100, cfg.replicates // 100)
    reducers = {f"bin{i}": bin_count_reducer(edges[i], edges[i + 1])
                for i in range(len(edges) - 1)}
    counts = sample_tree_stats(spec, (), theta_c, cfg.delta, cfg.grid,
                               cfg.seed, snap_reps, [cfg.grid.n_steps],
                               reducers, tag=33, generation_cap=0,
                               boundary=cfg.boundary)
    chi2 = 0.0
    bin_rows = []
    for i in range(len(edges) - 1):
        obs, obs_se = _mean_se(counts[f"bin{i}"][0])
        expect = theta_c * speed_mass(spec, edges[i], edges[i + 1])
        if obs_se > 0.0:
            chi2 += (obs - expect) ** 2 / obs_se ** 2
        bin_rows.append((edges[i], edges[i + 1], obs, obs_se, expect))
    dof = len(edges) - 1
    chi2_crit = _chi2_ppf(dof)

    columns = ("check", "quadrature", "mc_estimate", "mc_se", "rel_gap",
               "within_5pct")
    rows = [
        ("area_identity", theta_quad, mc_area, area_se / s_eps, rel_gap_a,
         abs(rel_gap_a) <= 0.05),
        ("q_mass_identity", q_quad, mc_q, hit_se / s_eps, rel_gap_b,
         abs(rel_gap_b) <= 0.05),
        ("speed_snapshot_chi2", chi2_crit, chi2, 0.0,
         chi2 / chi2_crit - 1.0, chi2 <= chi2_crit),
    ]
    q_metrics = {"quadrature": q_quad, "mc": mc_q, "rel_gap": rel_gap_b}
    if len(launches) > 1:
        q_metrics.update(levels=levels, launches=launches, hit_fraction=p_hat)
    metrics = {
        "area": {"quadrature": theta_quad, "mc": mc_area,
                 "rel_gap": rel_gap_a, "censored": censored_a},
        "q_mass": q_metrics,
        "speed_snapshot": {"chi2": chi2, "dof": dof, "crit_99": chi2_crit,
                           "bins": [{"lo": a, "hi": b, "observed": o,
                                     "se": s, "expected": e}
                                    for a, b, o, s, e in bin_rows]},
    }
    verdicts = {"area_within_5pct": abs(rel_gap_a) <= 0.05,
                "q_mass_within_5pct": abs(rel_gap_b) <= 0.05,
                "speed_snapshot_chi2_ok": chi2 <= chi2_crit}
    return ExperimentReport("identities", cfg.seed, snapshot_config(cfg),
                            columns, rows, metrics, verdicts)


# ---------------------------------------------------------------------------
# duality experiment
# ---------------------------------------------------------------------------

def run_duality(cfg: ExperimentConfig) -> ExperimentReport:
    """Tree vs mean-field Laplace duality at the configured (x, y, t) points."""
    drift, diff = cfg.spec.drift, cfg.spec.diffusion
    if not isinstance(drift, Logistic) or not isinstance(diff, LinearDiffusion):
        raise ConfigError("duality requires logistic drift with linear "
                          "squared diffusion")
    columns = ("t", "x", "y", "lhs", "se_lhs", "rhs", "se_rhs", "gap")
    rows, metrics, verdicts = [], {}, {}
    for x, y, t in cfg.duality_points:
        grid = cfg.grid if abs(cfg.grid.horizon - t) <= 1e-12 and t > 0.0 \
            else (TimeGrid(0.0, t, cfg.grid.dt) if t > 0.0 else cfg.grid)
        mc = {"replicates": cfg.replicates, "n_part": cfg.n_part,
              "grid": grid, "delta": cfg.delta, "seed": cfg.seed,
              "boundary": cfg.boundary}
        if cfg.mv_replicates is not None:
            mc["mv_replicates"] = cfg.mv_replicates
        if cfg.tree_dt is not None:
            mc["tree_dt"] = cfg.tree_dt
        lhs, rhs, se_lhs, se_rhs = duality_gap(
            drift.gamma, drift.K, diff.beta, x, y, t, mc)
        gap = lhs - rhs
        rows.append((t, x, y, lhs, se_lhs, rhs, se_rhs, gap))
        key = f"t={t:g},x={x:g},y={y:g}"
        metrics[key] = {"lhs": lhs, "se_lhs": se_lhs, "rhs": rhs,
                        "se_rhs": se_rhs, "gap": gap}
        verdicts[key] = abs(gap) <= 0.02 + 3.0 * (se_lhs + se_rhs)
    verdicts["all_within_budget"] = all(bool(v) for v in verdicts.values())
    return ExperimentReport("duality", cfg.seed, snapshot_config(cfg),
                            columns, rows, metrics, verdicts)


# ---------------------------------------------------------------------------
# analytic summary, one path, one tree
# ---------------------------------------------------------------------------

def run_analyze(cfg: ExperimentConfig) -> ExperimentReport:
    """Extinction criterion, regime verdict, and (logistic) survival curve,
    also the table "survival" (y, extinction_prob)."""
    spec = cfg.spec
    theta = extinction_criterion(spec)
    regime = classify_regime(theta)
    columns = ("quantity", "value")
    rows = [("criterion", theta), ("verdict", regime)]
    metrics = {"criterion": theta, "regime": regime, "survival": []}
    verdicts = {"extinct_for_sure": regime == "extinction"}
    drift, diff = spec.drift, spec.diffusion
    if isinstance(drift, Logistic) and isinstance(diff, LinearDiffusion) \
            and regime == "survival":
        sol = solve_rho(drift.gamma, drift.K, diff.beta)
        metrics["rho"] = sol.rho
        metrics["normalizer"] = sol.normalizer
        rows.append(("rho", sol.rho))
        rows.append(("normalizer", sol.normalizer))
        for y in cfg.y_grid:
            metrics["survival"].append(
                (float(y), extinction_probability(sol, float(y))))
    return ExperimentReport("analyze", cfg.seed, snapshot_config(cfg),
                            columns, rows, metrics, verdicts,
                            {"survival": (("y", "extinction_prob"),
                                          metrics["survival"])})


# simulate mode -> simulate_system mode; "single" runs simulate_single
_SYSTEM_MODES = {"uniform": "unsplit", "matrix": "unsplit", "levels": "levels",
                 "loop_free": "loop_free"}


def _path_rows(path):
    """t, island, level, value rows; level -1 carries the island total."""
    times = path.grid.times().tolist()
    split = path.values.ndim == 3
    unsplit = (path.values.sum(axis=1) if split
               else path.values.reshape(len(times), -1)).tolist()
    levels = path.values.transpose(0, 2, 1).tolist() if split else None
    for k, t in enumerate(times):
        for i, total in enumerate(unsplit[k]):
            yield t, i, -1, total
            for lev, value in enumerate(levels[k][i] if split else ()):
                yield t, i, lev, value


def run_simulate(cfg: ExperimentConfig, mode) -> ExperimentReport:
    """One path: a single island from x_init[0] (default 0.5) in mode
    "single", else `simulate_system` on cfg.topology (default 5 islands;
    "matrix" needs a MigrationMatrix)."""
    if mode == "single":
        x0 = cfg.x_init[0] if cfg.x_init else 0.5
        path = simulate_single(cfg.spec, x0, cfg.grid, cfg.seed,
                               boundary=cfg.boundary)
    elif isinstance(mode, str) and mode in _SYSTEM_MODES:
        top = 5 if cfg.topology is None else cfg.topology
        if mode == "matrix" and not isinstance(top, MigrationMatrix):
            raise ConfigError("matrix mode needs topology.entries")
        path = simulate_system(cfg.spec, top, cfg.theta,
                               _system_x0(cfg.x_init, top), cfg.grid, cfg.seed,
                               mode=_SYSTEM_MODES[mode], k_max=cfg.k_max)
    else:
        raise ConfigError(f"unknown simulate mode {mode!r}")
    snap = snapshot_config(cfg)
    snap["mode"] = mode
    return ExperimentReport("simulate", cfg.seed, snap,
                            ("t", "island", "level", "value"),
                            _path_rows(path),
                            {"nodes": len(path.values),
                             "final_total": float(path.total()[-1])})


def _tree_rows(tree):
    """island_id, parent_id, generation, s, T0, peak, area rows: ids in
    birth order, s the birth time and T0 the local extinction time on the
    grid ("inf" when censored), parent_id empty for roots and immigrants."""
    dt = tree.grid.dt
    for i, (parent, generation, birth, death, peak, area) in enumerate(
            zip(tree.parent.tolist(), tree.generation.tolist(),
                tree.birth.tolist(), tree.death.tolist(),
                tree.peak.tolist(), tree.area.tolist())):
        yield (i, "" if parent < 0 else parent, generation, birth * dt,
               "inf" if death < 0 else (death - birth) * dt, peak, area)


def run_tree(cfg: ExperimentConfig, spectrum: bool) -> ExperimentReport:
    """One virgin-island tree, a row per island; with spectrum, the table
    "spectrum" bins the island masses at eval_time on bin_edges."""
    tree = build_tree(cfg.spec, cfg.x_init, cfg.theta, cfg.delta, cfg.grid,
                      cfg.seed, generation_cap=cfg.generation_cap,
                      boundary=cfg.boundary, spectrum_time=cfg.eval_time)
    metrics = {"islands": tree.parent.size,
               "censored": int(np.count_nonzero(tree.death < 0)),
               "dropped_births": tree.dropped_births,
               "total_mass_at_horizon": float(tree.totals[-1])}
    tables = {}
    if spectrum:
        snap = tree.spectrum(cfg.bin_edges)
        edges = snap.edges.tolist()
        tables["spectrum"] = (("t", "bin_lo", "bin_hi", "count"), (
            (snap.time, edges[i], edges[i + 1], count)
            for i, count in enumerate(snap.counts.tolist())))
        metrics["spectrum_csv"] = "spectrum.csv"  # next to tree.json
    return ExperimentReport("tree", cfg.seed, snapshot_config(cfg),
                            ("island_id", "parent_id", "generation", "s", "T0",
                             "peak", "area"),
                            _tree_rows(tree), metrics, tables=tables)
