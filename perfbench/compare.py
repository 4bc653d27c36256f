"""Paired comparison of two trees on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py --parent DIR --change DIR
        [--workload NAME ...] [--holdout]

Both trees are measured with this benchmark's code (`run.py --root DIR`),
so the benchmark is identical on both sides.  Each workload runs ten
pairs of runs of `run_seconds` (BENCHMARK.json) each.  Pair i runs seed i
on both trees, parent first on even i and change first on odd i;
`--holdout` runs every pair at the workload's holdout seed instead, which
is reserved for confirming a claim made on other seeds.

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the pairs the change won (ties count for neither side) and a
verdict, with the bounds of BENCHMARK.json:

* improved: the change wins at least 9 of the 10 pairs and the medians
  differ, in its favour, by more than the parent's quartile distance;
* unresolved: the parent's quartile distance exceeds the bound (as a share
  of its median) and not every change run beats every parent run;
* regressed: the change's median is worse than the parent's by more than
  the bound;
* no worse: otherwise.

`failed_frac` is compared first, as failed over attempted invocations; any
rise is a regression, and with it no metric counts as improved.  A run in
which every invocation failed has no end-to-end metrics; each metric is
then reported as regressed when such a run is on the change's side, and
unresolved when only the parent has one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

PAIRS = 10


def _run(root: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--root", root,
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def verdict(parent: list, change: list, bound: float, better: str) -> tuple:
    """Return (verdict, pairs the change won) for one metric."""
    sign = 1.0 if better == "lower" else -1.0   # sign * (c - p) > 0: worse
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if sign * (cm - pm) < 0 and wins >= 0.9 * len(parent) \
            and abs(cm - pm) > q3 - q1:
        return "improved", wins
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if (q3 - q1) / abs(pm) > bound and not all_better:
        return "unresolved", wins
    if sign * (cm - pm) / abs(pm) > bound:
        return "regressed", wins
    return "no worse", wins


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--holdout", action="store_true")
    args = p.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for workload in args.workload or sorted(WORKLOADS):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = WORKLOADS[workload]["holdout_seed"] if args.holdout else i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                               "parent")
            for side in order:
                runs[side].append(_run(sides[side], workload, seed, seconds))
        print(f"== {workload}: {PAIRS} pairs, {seconds} s runs"
              f"{', holdout seed' if args.holdout else ''}")
        fails = {s: (sum(r["failed"] for r in runs[s]),
                     sum(r["attempted"] for r in runs[s])) for s in runs}
        rate = {s: f / a for s, (f, a) in fails.items()}
        more_failures = rate["change"] > rate["parent"]
        v = "regressed" if more_failures else "no worse"
        print(f"{'failed_frac':14s} ratio parent {fails['parent'][0]}/"
              f"{fails['parent'][1]}  change {fails['change'][0]}/"
              f"{fails['change'][1]}  {v}")
        for m in bench["end_to_end"]:
            name = m["name"]
            blank = [s for s in runs
                     if any(name not in r["metrics"] for r in runs[s])]
            if blank:
                v = "regressed" if "change" in blank else "unresolved"
                print(f"{name:14s} {m['unit']:5s} missing from a run of "
                      f"{' and '.join(blank)} (all invocations failed)  {v}")
                continue
            vals = {s: [r["metrics"][name]["value"] for r in runs[s]]
                    for s in runs}
            v, wins = verdict(vals["parent"], vals["change"], m["bound"],
                              m["better"])
            if v == "improved" and more_failures:
                v = "no worse (no gain: more failures)"
            cells = []
            for s in ("parent", "change"):
                q1, _, q3 = statistics.quantiles(vals[s], n=4)
                cells.append(f"{s} {statistics.median(vals[s]):.6g} "
                             f"[{q1:.6g}, {q3:.6g}]")
            print(f"{name:14s} {m['unit']:5s} {'  '.join(cells)}  "
                  f"won {wins}/{PAIRS}  bound {m['bound']:g}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
