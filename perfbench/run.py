"""islandsim benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program measured is the `src/` tree next to this
directory (or `--root DIR`).  Workloads are defined in `workloads.py`.

Load model: closed loop, one client.  Each invocation is one
`islandsim <cmd>` run in a fresh interpreter (`worker.py`), one at a time,
with numpy single-threaded.  The program receives only the workload's JSON
config and `--seed`; invocation i of a run gets program seed
`base_seed + 1000 * seed + i`.  `--seconds` is the whole run, warm-up
included.  A run starts invocations (at least MIN_INVOCATIONS) while the
next one is expected to end less than half an invocation after `--seconds`,
so the invocations fill the measuring time instead of stopping short of it.

`--trace 0` reports the end-to-end metrics from untraced invocations:
medians over the run's invocations of `setup_s`, `run_s` and `peak_rss_mb`,
and `time_to_se_s` = run_s * mean(se**2) / se_target**2, the headline SE
pooled over the invocations.  The times are in reference seconds: each
invocation is preceded by REFERENCE_CODE in a fresh interpreter, and the
median wall times are scaled by REFERENCE_S / (its median wall time).  The
shared host this runs on changes speed by 10-25% over minutes, which moves
the program and the reference alike; the wall medians are printed too.
Failed invocations over attempted ones is `failed_frac`; it is carried by
the `attempted` and `failed` fields of the result, since a metric that is 0
on a correct program has no relative bound.

`--trace 1` alternates untraced and traced invocations at the same program
seed, requires their report files to be byte-identical, repeats the first
traced invocation to check that its exact counts repeat, and reports the
per-layer metrics of `tracing.py`'s spans and counters.

Every invocation's report is checked by the workload's gate.  The last line
of stdout is the JSON result; lines before it give each metric by name with
its unit, the environment, and failures.  Spans and a full record go to
`.bench_out/` in the measured tree.  Exit code 2 for bad arguments or a tree
without the package, 3 for a benchmark error (a trace target that no longer
exists, an expected layer that was never called, or metrics that differ
from BENCHMARK.json's list for the mode, which also gives their units).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import DRAWS  # noqa: E402
from workloads import WORKLOADS, GateError, program_seed  # noqa: E402

MIN_INVOCATIONS = 3
# Fixed work that does not use the program: the numpy and scipy imports the
# program's own set-up spends most of its time on.
REFERENCE_CODE = "import numpy, scipy.integrate, scipy.stats"
# Nominal wall time of REFERENCE_CODE: times are reported as if the
# reference took exactly this long.  It is near what the reference took on
# the host the benchmark was set up on (quartiles 1.19 and 1.35 s over 195
# invocations; 2 cores of an Intel Xeon at 2.1 GHz, Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1).
REFERENCE_S = 1.2
INVOCATION_TIMEOUT_S = 150.0
DRAW_COUNTERS = frozenset(DRAWS.values())
# Engine layer -> (reports rng_s, its exact counts, (rate, count, scale)).
# The exact counts and the draw counts must repeat at one program seed.
ENGINE_METRICS = {
    "sde.sample_system_stats": (
        True, ("component_steps",),
        ("ns_per_component_step", "component_steps", 1e9)),
    "sde.single_batch_stats": (
        True, ("replicates", "censored"),
        ("us_per_replicate", "replicates", 1e6)),
    "virgin_island.sample_tree_stats": (
        True, ("replicate_steps", "dropped_births"),
        ("ns_per_replicate_step", "replicate_steps", 1e9)),
    "mean_field.simulate_mckean_vlasov": (
        False, ("particle_steps",),
        ("ns_per_particle_step", "particle_steps", 1e9)),
}
# Layers whose outermost spans count as engine work for the coverage check.
ENGINE_LAYERS = tuple(ENGINE_METRICS) + ("analytics",)


class BenchError(Exception):
    """The benchmark itself cannot measure this tree."""


def _env() -> dict:
    """Machine, interpreter and tree this run measured."""
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "machine": platform.machine(),
           "end_to_end_path": "untraced invocations",
           "numpy_threads": 1}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in env:
                    env[key.replace(" ", "_")] = value.strip()
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, idx, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, idx, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, idx, "size")) as fh:
                    caches[f"L{level}-{kind}"] = fh.read().strip()
            except OSError:
                continue
    env["caches"] = caches
    return env


def _git(root: str) -> dict:
    if not os.path.exists(os.path.join(root, ".git")):
        return {"sha": "unknown (not a git checkout)", "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        st = subprocess.run(["git", "-C", root, "status", "--porcelain",
                             "--untracked-files=no"],
                            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": "unknown (git failed)", "dirty": None}
    return {"sha": sha.stdout.strip() or "unknown",
            "dirty": bool(st.stdout.strip())}


class Runner:
    """Starts worker processes for one workload and gates their outputs."""

    def __init__(self, root: str, workload: str, seed: int, tag: str):
        self.root = root
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.work = os.path.join(root, ".bench_out",
                                 f"{workload}-s{seed}-{tag}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.config = os.path.join(self.work, "config.json")
        with open(self.config, "w") as fh:
            json.dump(self.wl["config"], fh, indent=1)
        self.env = dict(os.environ, OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.count = 0

    def warm_up(self) -> None:
        """Import once untimed, so bytecode and page caches are filled."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import islandsim.cli")
        subprocess.run([sys.executable, "-c", code,
                        os.path.join(self.root, "src")], env=self.env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=INVOCATION_TIMEOUT_S, check=False)

    def reference(self) -> float:
        """Wall seconds of REFERENCE_CODE in a fresh interpreter."""
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, "-c", REFERENCE_CODE],
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=INVOCATION_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError("reference imports timed out") from None
        if proc.returncode != 0:
            raise BenchError("reference imports failed: "
                             + proc.stderr.strip()[-400:])
        return time.monotonic() - t0

    def invoke(self, pseed: int, trace_id: str | None = None) -> dict:
        """Run one invocation; return its record (timings, gate, hashes)."""
        self.count += 1
        out = os.path.join(self.work, f"out{self.count}")
        res = os.path.join(self.work, f"res{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", self.root, "--command", self.wl["command"],
               "--config", self.config, "--seed", str(pseed), "--out", out,
               "--result", res]
        if trace_id is not None:
            cmd += ["--trace", trace_id]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(t0)],
                                env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            err = f"timed out after {INVOCATION_TIMEOUT_S} s\n{err}"
        wall = time.monotonic() - t0
        if proc.returncode == 3:
            raise BenchError(err.strip())
        rec = {"program_seed": pseed, "traced": trace_id is not None,
               "wall_s": wall, "reasons": []}
        try:
            with open(res) as fh:
                rec.update(json.load(fh))
        except (OSError, ValueError):
            rec["reasons"].append(f"worker exit {proc.returncode}: "
                                  f"{err.strip()[-400:]}")
            rec["ok"] = False
        if rec.get("error"):
            rec["reasons"].append("raised: " + rec["error"].strip()[-400:])
        elif rec.get("ok") and rec.get("rc") != 0:
            rec["reasons"].append(f"exit code {rec['rc']}: "
                                  f"{err.strip()[-400:]}")
        elif rec.get("ok"):
            self._check(out, rec)
        shutil.rmtree(out, ignore_errors=True)
        rec["failed"] = bool(rec["reasons"])
        return rec

    def _check(self, out: str, rec: dict) -> None:
        stem = os.path.join(out, self.wl["report"])
        try:
            with open(stem + ".json", "rb") as fh:
                js = fh.read()
            with open(stem + ".csv", "rb") as fh:
                cs = fh.read()
            report = json.loads(js)
            rows = list(csv.reader(cs.decode().splitlines()))
            rec["reasons"] += self.wl["gate"](report, rows)
            rec["se"] = self.wl["se"](report, rows)
        except (OSError, ValueError, GateError) as e:
            rec["reasons"].append(f"report unreadable: {e}")
            return
        rec["outputs"] = {"json": hashlib.sha256(js).hexdigest(),
                          "csv": hashlib.sha256(cs).hexdigest()}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _run_untraced(runner: Runner, start: float, seconds: float) -> list:
    recs = []
    while True:
        if len(recs) >= MIN_INVOCATIONS:
            est = statistics.median(r["ref_s"] + r["wall_s"] for r in recs)
            if time.monotonic() - start + est / 2 > seconds:
                break
        ref_s = runner.reference()
        rec = runner.invoke(program_seed(runner.name, runner.seed, len(recs)))
        rec["ref_s"] = ref_s
        recs.append(rec)
    return recs


def _host_scale(good: list) -> float:
    """Factor from this run's wall seconds to reference seconds."""
    return REFERENCE_S / statistics.median(r["ref_s"] for r in good)


def _end_to_end(wl: dict, recs: list) -> dict:
    good = [r for r in recs if not r["failed"]]
    if not good:
        return {}
    scale = _host_scale(good)
    run_s = scale * statistics.median(r["run_s"] for r in good)
    mean_se2 = statistics.fmean(r["se"] ** 2 for r in good)
    return {
        "setup_s": scale * statistics.median(r["setup_s"] for r in good),
        "run_s": run_s,
        "time_to_se_s": run_s * mean_se2 / wl["se_target"] ** 2,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }


def _run_traced(runner: Runner, start: float, seconds: float) -> tuple:
    """Untraced/traced pairs at one program seed each, then one repeat."""
    pairs = []
    while True:
        if pairs:
            est = statistics.median(u["wall_s"] + t["wall_s"]
                                    for u, t in pairs)
            if time.monotonic() - start + 1.5 * est > seconds:
                break
        i = len(pairs)
        pseed = program_seed(runner.name, runner.seed, i)
        run_id = f"{runner.name}:{runner.seed}:{pseed}"
        pairs.append((runner.invoke(pseed),
                      runner.invoke(pseed, f"{run_id}:{i}")))
    first = pairs[0][1]
    repeat = runner.invoke(first["program_seed"],
                           f"{runner.name}:{runner.seed}:"
                           f"{first['program_seed']}:repeat")
    return pairs, repeat


def _exact_counts(rec: dict) -> dict:
    counts = {}
    for s in rec.get("spans", ()):
        for key in s["counts"]:
            k = f"{s['name']}.{key}"
            counts[k] = counts.get(k, 0) + s["counts"][key]
        for name, (_, _, units) in s["counters"].items():
            if name in DRAW_COUNTERS:
                counts[f"{name}.variates"] = \
                    counts.get(f"{name}.variates", 0) + units
    return counts


def _layer_metrics(wl: dict, pairs: list, repeat: dict) -> tuple:
    """Per-layer metrics (means per traced invocation) and flagged problems.

    Raises BenchError when a layer the workload must call was never called.
    """
    problems = []
    traced = [t for _, t in pairs if not t["failed"]]
    untraced = [u for u, _ in pairs if not u["failed"]]
    if not traced or not untraced:
        return {}, ["no successful traced and untraced invocation"]
    n = len(traced)
    agg = {}        # layer -> [calls, busy, self, rng]
    counts = {}     # layer.count -> total
    counters = {}   # counter -> [calls, busy, units]
    covered = 0.0
    for rec in traced:
        spans = rec["spans"]
        by_id = {s["id"]: s for s in spans}
        kids = {}
        for s in spans:
            kids.setdefault(s["parent"], []).append(s)
        for s in spans:
            dur = s["end"] - s["start"]
            child = sum(c["end"] - c["start"] for c in kids.get(s["id"], ()))
            ctr = sum(v[1] for v in s["counters"].values())
            draws = sum(v[1] for k, v in s["counters"].items()
                        if k in DRAW_COUNTERS)
            a = agg.setdefault(s["name"], [0, 0.0, 0.0, 0.0])
            a[0] += 1
            a[1] += dur
            a[2] += dur - child - ctr
            a[3] += draws
            for k, v in s["counts"].items():
                counts[f"{s['name']}.{k}"] = \
                    counts.get(f"{s['name']}.{k}", 0) + v
            for k, v in s["counters"].items():
                c = counters.setdefault(k, [0, 0.0, 0])
                for j in range(3):
                    c[j] += v[j]
            if s["name"] in ENGINE_LAYERS:
                p = s["parent"]
                while p is not None and by_id[p]["name"] not in ENGINE_LAYERS:
                    p = by_id[p]["parent"]
                if p is None:
                    covered += dur
    missing = [layer for layer in wl["layers"]
               if layer not in agg and layer not in counters]
    if missing:
        raise BenchError("layers never called: " + ", ".join(missing))

    def span(layer, field):
        return agg.get(layer, [0, 0.0, 0.0, 0.0])[field] / n

    def count(key):
        return counts.get(key, 0) / n

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    m = {}
    for layer, (with_rng, keys, (rate, base, scale)) in \
            ENGINE_METRICS.items():
        m[f"{layer}.calls"] = span(layer, 0)
        m[f"{layer}.busy_s"] = span(layer, 1)
        m[f"{layer}.self_s"] = span(layer, 2)
        if with_rng:
            m[f"{layer}.rng_s"] = span(layer, 3)
        for k in keys:
            m[f"{layer}.{k}"] = count(f"{layer}.{k}")
        m[f"{layer}.{rate}"] = per(m[f"{layer}.busy_s"], m[f"{layer}.{base}"],
                                   scale)
    for kind in ("poisson", "gamma", "normal", "uniform"):
        calls, busy, units = counters.get(f"rng.{kind}", [0, 0.0, 0])
        m[f"rng.{kind}.variates"] = units / n
        m[f"rng.{kind}.busy_s"] = busy / n
        m[f"rng.{kind}.ns_per_variate"] = per(busy, units, 1e9)
    for name in ("rng.substream", "coefficients"):
        calls, busy, _ = counters.get(name, [0, 0.0, 0])
        m[f"{name}.calls"] = calls / n
        m[f"{name}.busy_s"] = busy / n
    m["analytics.calls"] = span("analytics", 0)
    m["analytics.busy_s"] = span("analytics", 1)
    m["experiments.runner.busy_s"] = span("experiments.runner", 1)
    m["experiments.runner.self_s"] = span("experiments.runner", 2)
    m["experiments.report_write.busy_s"] = span("experiments.report_write", 1)
    m["cli.cli_main.busy_s"] = span("cli.cli_main", 1)
    m["config.build_spec.busy_s"] = statistics.fmean(
        r["build_spec_s"] for r in traced)
    m["process.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    m["process.cpu_util"] = statistics.median(r["cpu_s"] / r["run_s"]
                                              for r in untraced)
    traced_run = sum(r["run_s"] for r in traced)
    m["tracing.engine_coverage"] = covered / traced_run
    m["tracing.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                               - statistics.median(r["run_s"]
                                                   for r in untraced))
    mismatched = []
    if not repeat["failed"]:
        a, b = _exact_counts(pairs[0][1]), _exact_counts(repeat)
        mismatched = sorted(k for k in set(a) | set(b)
                            if a.get(k) != b.get(k))
    m["tracing.count_mismatches"] = len(mismatched)
    for k in mismatched:
        problems.append(f"exact count {k} differs between two traced runs "
                        f"at program seed {repeat['program_seed']}")
    return m, problems


def _units(trace: int, metrics: dict) -> dict:
    """Units of the metrics, from BENCHMARK.json's list for this mode.

    Raises BenchError when the metrics measured and the metrics listed
    there differ, so the two cannot drift apart.
    """
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if metrics and set(metrics) != set(units):
        raise BenchError(
            "metrics differ from BENCHMARK.json: measured but not listed "
            f"{sorted(set(metrics) - set(units))}, listed but not measured "
            f"{sorted(set(units) - set(metrics))}")
    return units


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", default=os.path.dirname(HERE),
                   help="tree whose src/ is measured (default: the one "
                        "holding this benchmark)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "src", "islandsim", "cli.py")):
        print(f"benchmark error: {root} has no src/islandsim package",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    start = time.monotonic()
    runner = Runner(root, args.workload, args.seed, f"t{args.trace}")
    try:
        runner.warm_up()
        if args.trace:
            pairs, repeat = _run_traced(runner, start, args.seconds)
            recs = [r for pair in pairs for r in pair] + [repeat]
            for u, t in pairs + [(pairs[0][1], repeat)]:
                if not (u["failed"] or t["failed"]) \
                        and u["outputs"] != t["outputs"]:
                    t["failed"] = True
                    t["reasons"].append("traced report differs from the "
                                        "untraced one at program seed "
                                        f"{u['program_seed']}")
            metrics, problems = _layer_metrics(wl, pairs, repeat)
        else:
            recs = _run_untraced(runner, start, args.seconds)
            metrics = _end_to_end(wl, recs)
            problems = []
        units = _units(args.trace, metrics)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 3
    finally:
        runner.close()

    failed = sum(r["failed"] for r in recs)
    env = _env()
    env.update(_git(root))
    env.update(next((r["versions"] for r in recs if "versions" in r), {}))
    seeds = [r["program_seed"] for r in recs]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(recs)} invocations, program seeds {seeds}")
    print(f"headline SE: {wl['headline']}, se_target {wl['se_target']}")
    print("env " + json.dumps(env, sort_keys=True))
    for r in recs:
        for reason in r["reasons"]:
            print(f"FAILED program seed {r['program_seed']}"
                  f"{' (traced)' if r['traced'] else ''}: {reason}")
    for x in problems:
        print(f"FLAG {x}")
    out = {}
    if args.trace:
        for name in sorted(metrics):
            print(f"{name:52s} {metrics[name]:.6g} {units[name]}")
            out[name] = {"value": metrics[name], "unit": units[name]}
    else:
        good = [r for r in recs if not r["failed"]]
        if good:
            print(f"host: reference median "
                  f"{statistics.median(r['ref_s'] for r in good):.4g} s, "
                  f"times scaled by {_host_scale(good):.4f}")
        for name, value in metrics.items():
            if name == "time_to_se_s":
                how = f"run_s, SE pooled over {len(good)}"
            else:
                vals = [r[name] for r in good]
                how = (f"median of {len(good)}, wall median "
                       f"{statistics.median(vals):.6g}"
                       if name != "peak_rss_mb" else f"median of {len(good)}")
                if len(good) > 1:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    how += f", q1 {q1:.6g}, q3 {q3:.6g}"
            print(f"{name:14s} {value:.6g} {units[name]}  ({how})")
            out[name] = {"value": value, "unit": units[name]}
        print(f"{'failed_frac':14s} {failed / len(recs):.6g} ratio  "
              f"({failed} failed of {len(recs)})")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "metrics": out,
              "invocations": [{k: v for k, v in r.items() if k != "spans"}
                              for r in recs]}
    base = os.path.join(root, ".bench_out")
    stem = os.path.join(base, f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump([s for r in recs for s in r.get("spans", ())], fh)
    correct = failed == 0 and bool(out)
    print(json.dumps({"correct": correct, "attempted": len(recs),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
