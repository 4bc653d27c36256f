"""One benchmark invocation in a fresh interpreter.

Run by `run.py`, never imported by it:

    python3 perfbench/worker.py --root DIR --command CMD --config FILE
        --seed N --out DIR --result FILE --spawned-at T [--trace RUN_ID]

Set-up is timed from `--spawned-at` (a `time.monotonic()` reading the parent
took just before starting this process; the clock is system-wide on Linux)
to the end of `import islandsim` plus `load_config` and `build_spec` of the
workload config.  The run is the `cli_main([...])` call, which writes the
report files.  With `--trace`, `tracing.install` wraps the package's public
functions after set-up.  The result is written as JSON to `--result`.
Exit code 0 whether or not the program failed (the result says); 3 when a
trace target is missing, which is a benchmark error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout

import tracing


def _usage():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s, c


def main() -> int:
    p = argparse.ArgumentParser()
    for name in ("--root", "--command", "--config", "--out", "--result"):
        p.add_argument(name, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", default=None)
    args = p.parse_args()

    result = {"ok": False}
    try:
        src = os.path.join(args.root, "src")
        sys.path.insert(0, src)
        import islandsim
        from islandsim.config import build_spec, load_config
        raw = load_config(args.config)
        t_spec = time.perf_counter()
        build_spec(raw)
        result["build_spec_s"] = time.perf_counter() - t_spec
        result["setup_s"] = time.monotonic() - args.spawned_at
        loaded = os.path.realpath(islandsim.__file__)
        if not loaded.startswith(os.path.realpath(src) + os.sep):
            print(f"islandsim was imported from {loaded}, not from {src}",
                  file=sys.stderr)
            return 3
        import numpy
        import scipy
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        from islandsim.cli import cli_main

        tracer = None
        if args.trace is not None:
            tracer = tracing.Tracer(args.trace)
            tracing.install(tracer)
        argv = [args.command, "--config", args.config, "--seed",
                str(args.seed), "--out", args.out]
        sink = io.StringIO()
        s0, c0 = _usage()
        t0 = time.perf_counter()
        with redirect_stdout(sink):
            if tracer is None:
                rc = cli_main(argv)
            else:
                span = tracer.open("cli.cli_main")
                try:
                    rc = cli_main(argv)
                finally:
                    tracer.close(span)
        result["run_s"] = time.perf_counter() - t0
        s1, c1 = _usage()
        result["rc"] = rc
        result["cpu_s"] = sum(getattr(b, f) - getattr(a, f)
                              for a, b in ((s0, s1), (c0, c1))
                              for f in ("ru_utime", "ru_stime"))
        # ru_maxrss is in KiB on Linux; children add their largest peak.
        result["peak_rss_mb"] = (s1.ru_maxrss + c1.ru_maxrss) / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
        result["ok"] = True
    except tracing.TraceTargetError as e:
        print(e, file=sys.stderr)
        return 3
    except Exception:
        result["error"] = traceback.format_exc()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
