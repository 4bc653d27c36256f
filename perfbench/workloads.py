"""The three benchmark workloads: configs, seeds, headline SEs and gates.

Each workload is one `islandsim <cmd>` invocation shape.  The benchmark
writes the config below to a JSON file and passes only that file and
`--seed` to the program.  Budgets are sized so that one invocation takes a
few seconds on a 2-core box and several fit into one benchmark run; the
shapes (spec, grid, topology, points) are those of acceptance criteria 5-8.

Headline SE and `se_target` fix the `time_to_se_s` metric:
run_s * (se / se_target)**2 is the time the same code needs to bring the
headline estimate to `se_target`, so a faster kernel that adds variance does
not read as a gain.

Gates decide whether one invocation's outputs are correct.  Every gate
requires every reported mean and SE to be finite.  A gate's tolerance is at
least 4 standard errors, so a correct program fails it by chance in well
under one invocation in a thousand:

* compare-n20 uses the program's `all_ordered` verdict.  Its per-cell
  tolerance 3*(se_sys + se_tree) is about 4.2 SE of the gap when both SEs
  are equal, as they are here (equal replicate counts, similar laws).
* duality-logistic uses `all_within_budget`: 0.02 + 3*(se_lhs + se_rhs) is
  about 8 SE of the gap at 5000 trees.
* identities-feller cannot use the program's verdicts.  Their fixed 5%
  tolerance is 0.3 SE (area) and 1.6 SE (q-mass) at 100k replicates, and the
  chi-square check rejects 1% of correct runs by construction.  The gate
  applies two of the checks at 4 SE instead: the q-mass estimate within
  4 of its SEs of the quadrature value, and the speed-measure chi-square
  below the chi-square quantile of the one-sided 4-sigma tail.  The area
  estimate is heavy-tailed (its SE varied 5x over 60 seeds at 30k
  replicates and collapses when the rare long excursions are missed), so no
  SE-based test of it is sound at a feasible budget, and the headline SE is
  the q-mass SE, not the area SE.  The gate instead bounds the area's
  relative gap to the quadrature value by AREA_GAP: over 100 seeds at 30k
  replicates the gap ran from -0.44 to +0.86, and resampling means of 30k
  replicates from the 1.2M replicates of 40 of those seeds gave no gap
  outside the band in 20 000 draws (P(gap < -0.65) = 1e-4,
  P(gap > 2) = 5e-5).  A scale error of more than 4x either way fails it.
"""

from __future__ import annotations

import math

_LOGISTIC = {"drift": {"family": "logistic", "params": {"gamma": 1.0, "K": 1.0}},
             "diffusion": {"family": "linear", "params": {"beta": 1.0}}}
_FELLER = {"drift": {"family": "linear", "params": {"c": 0.0}},
           "diffusion": {"family": "linear", "params": {"beta": 1.0}}}

# Upper-tail probability of a standard normal beyond 4.
_TAIL_4SIGMA = 0.5 * math.erfc(4.0 / math.sqrt(2.0))
# Accepted relative gap of the identities-feller area estimate (see above).
AREA_GAP = (-0.75, 3.0)


class GateError(Exception):
    """The report lacks a field a gate or headline SE needs."""


def _finite_numbers(node, path="metrics"):
    """Yield the paths of non-finite numbers (and 'inf' strings) in a report."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            yield path
    elif isinstance(node, str):
        if node.lower() in ("inf", "-inf", "nan"):
            yield path
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from _finite_numbers(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _finite_numbers(v, f"{path}[{i}]")


def _field(mapping, *keys):
    node = mapping
    for k in keys:
        if not isinstance(node, dict) or k not in node:
            raise GateError("report misses " + ".".join(keys))
        node = node[k]
    return node


def _csv_row(rows, first):
    for row in rows:
        if row and row[0] == first:
            return row
    raise GateError(f"report CSV has no {first!r} row")


def chi2_upper_quantile(dof: int, tail: float) -> float:
    """x with P(chi2_dof > x) = tail, for even dof (closed-form survival)."""
    if dof < 2 or dof % 2:
        raise GateError(f"chi-square gate needs an even dof, got {dof}")

    def survival(x):
        term, total = 1.0, 1.0
        for k in range(1, dof // 2):
            term *= 0.5 * x / k
            total += term
        return math.exp(-0.5 * x) * total

    lo, hi = 0.0, 1.0
    while survival(hi) > tail:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if survival(mid) > tail:
            lo = mid
        else:
            hi = mid
    return hi


def _gate_common(report):
    return [f"non-finite value at {p}"
            for p in _finite_numbers(_field(report, "metrics"))]


def _gate_compare(report, rows):
    bad = _gate_common(report)
    if _field(report, "verdicts", "all_ordered") is not True:
        bad.append("verdict all_ordered is false")
    return bad


def _gate_duality(report, rows):
    bad = _gate_common(report)
    if _field(report, "verdicts", "all_within_budget") is not True:
        bad.append("verdict all_within_budget is false")
    return bad


def _gate_identities(report, rows):
    bad = _gate_common(report)
    q = _csv_row(rows, "q_mass_identity")
    quad, est, se = float(q[1]), float(q[2]), float(q[3])
    if not abs(est - quad) <= 4.0 * se:
        bad.append(f"q-mass estimate {est} is more than 4 SE ({se}) "
                   f"from the quadrature value {quad}")
    mc = float(_field(report, "metrics", "area", "mc"))
    quad = float(_field(report, "metrics", "area", "quadrature"))
    gap = mc / quad - 1.0
    if not AREA_GAP[0] <= gap <= AREA_GAP[1]:
        bad.append(f"area estimate {mc} is off the quadrature value {quad} "
                   f"by {gap:+.3f}, outside {AREA_GAP}")
    snap = _field(report, "metrics", "speed_snapshot")
    crit = chi2_upper_quantile(int(snap["dof"]), _TAIL_4SIGMA)
    if not snap["chi2"] <= crit:
        bad.append(f"speed-measure chi2 {snap['chi2']} exceeds the 4-sigma "
                   f"quantile {crit:.3f}")
    return bad


def _se_compare(report, rows):
    return float(_field(report, "metrics", "one_minus_exp[1@1]", "se_system"))


def _se_duality(report, rows):
    cell = _field(report, "metrics", "t=0.5,x=1,y=1")
    return float(cell["se_lhs"]) + float(cell["se_rhs"])


def _se_identities(report, rows):
    return float(_csv_row(rows, "q_mass_identity")[3])


# Layers each workload must call at least once in a traced invocation; a
# layer that is wrapped but never called there is a benchmark error.
_COMMON_LAYERS = ("cli.cli_main", "experiments.runner",
                  "experiments.report_write", "analytics", "rng.substream",
                  "coefficients")

WORKLOADS = {
    "compare-n20": {
        "command": "compare",
        "report": "comparison",
        "base_seed": 801,
        "holdout_seed": 7919,
        "config": dict(
            _LOGISTIC, topology=20, x_init=[0.05] * 20, theta=0.0,
            delta=0.01, dt=2e-3, horizon=1.0, replicates=1000,
            functionals=[{"kind": "one_minus_exp", "lambdas": [lam],
                          "times": [t]}
                         for lam in (0.5, 1.0, 2.0) for t in (0.5, 1.0)]),
        "headline": "se_system of one_minus_exp[1@1]",
        "se": _se_compare,
        "se_target": 0.01,
        "gate": _gate_compare,
        "layers": _COMMON_LAYERS + ("sde.sample_system_stats",
                                    "virgin_island.sample_tree_stats",
                                    "rng.poisson", "rng.gamma"),
    },
    "duality-logistic": {
        "command": "duality",
        "report": "duality",
        "base_seed": 901,
        "holdout_seed": 7927,
        "config": dict(
            _LOGISTIC, duality_points=[[1.0, 1.0, 0.5]], dt=1e-3,
            delta=0.02, horizon=0.5, n_part=2000, mv_replicates=10000,
            replicates=5000),
        "headline": "se_lhs + se_rhs at (x=1, y=1, t=0.5)",
        "se": _se_duality,
        "se_target": 0.005,
        "gate": _gate_duality,
        "layers": _COMMON_LAYERS + ("virgin_island.sample_tree_stats",
                                    "mean_field.simulate_mckean_vlasov",
                                    "rng.normal"),
    },
    "identities-feller": {
        "command": "identities",
        "report": "identities",
        "base_seed": 301,
        "holdout_seed": 7933,
        "config": dict(
            _FELLER, eps=1e-3, dt=1e-3, horizon=10.0, delta=0.1, theta=1.0,
            replicates=30000),
        "headline": "mc_se of q_mass_identity",
        "se": _se_identities,
        "se_target": 0.5,
        "gate": _gate_identities,
        "layers": _COMMON_LAYERS + ("sde.single_batch_stats",
                                    "virgin_island.sample_tree_stats",
                                    "rng.poisson", "rng.gamma"),
    },
}


def program_seed(workload: str, bench_seed: int, index: int) -> int:
    """Seed passed to the program for invocation `index` of a run."""
    return WORKLOADS[workload]["base_seed"] + 1000 * bench_seed + index
