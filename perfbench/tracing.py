"""Tracing of one islandsim invocation from outside the package.

`install` replaces public functions at the names their callers resolve them
through (a module attribute looked up at call time, or a class attribute),
so no file of the package changes.  Engine, analytics, runner and report
calls become spans: name, start, end, parent span and run id, kept in memory
and returned with the invocation's result.  Random draws, stream creation
and coefficient evaluations are counters on the enclosing span (calls, busy
seconds, units), which keeps the overhead of the many small calls low.

Draws are timed through `TracedGenerator`, a forwarding proxy around each
Generator `rng.substream` returns: every call goes to the same generator with
the same arguments, so traced outputs are byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter


class TraceTargetError(LookupError):
    """A wrapped name no longer exists, or a span lost an argument it reads."""


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": perf_counter(), "end": None, "counters": {},
                "counts": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    def count(self, name: str, busy: float, units: int) -> None:
        c = self._stack[-1]["counters"].setdefault(name, [0, 0.0, 0])
        c[0] += 1
        c[1] += busy
        c[2] += units


# Generator method -> counter name.  These are the draws the engines make;
# other Generator methods are forwarded untimed.
DRAWS = {"poisson": "rng.poisson", "gamma": "rng.gamma",
         "standard_normal": "rng.normal", "random": "rng.uniform"}


class TracedGenerator:
    """Forwards to a numpy Generator; times and counts the DRAWS methods."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _timed_draw(method: str, counter: str):
    def draw(self, *args, **kwargs):
        t0 = perf_counter()
        out = getattr(self._gen, method)(*args, **kwargs)
        self._tracer.count(counter, perf_counter() - t0,
                           int(getattr(out, "size", 1)))
        return out
    draw.__name__ = method
    return draw


for _method, _counter in DRAWS.items():
    setattr(TracedGenerator, _method, _timed_draw(_method, _counter))


# -- per-engine counts, computed from the call's arguments and result --------

def _system_counts(a, result):
    top = a["topology"]
    n = top.n_islands if hasattr(top, "n_islands") else int(top)
    levels = 1 if a["mode"] == "unsplit" else int(a["k_max"]) + 1
    return {"component_steps": int(a["replicates"]) * n * levels
            * a["grid"].n_steps}


def _single_counts(a, result):
    return {"replicates": int(a["replicates"]),
            "censored": int(result.censored)}


def _tree_counts(a, result):
    return {"replicate_steps": int(a["replicates"]) * a["grid"].n_steps,
            "dropped_births": int(result["_dropped_births"])}


def _mean_field_counts(a, result):
    return {"particle_steps": int(a["n_part"]) * a["grid"].n_steps}


def _span(tracer, layer, fn, counts=None):
    sig = inspect.signature(fn) if counts else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counts:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                span["counts"] = counts(bound.arguments, result)
            except (KeyError, AttributeError, TypeError) as e:
                raise TraceTargetError(
                    f"{layer}: cannot read its counts ({e!r})") from None
        return result
    return wrapper


def _counter(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        tracer.count(name, perf_counter() - t0, 1)
        return out
    return wrapper


def _substream(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        gen = fn(*args, **kwargs)
        tracer.count(name, perf_counter() - t0, 1)
        return TracedGenerator(gen, tracer)
    return wrapper


def _engine(counts):
    return lambda tracer, layer, fn: _span(tracer, layer, fn, counts)


# (module, attribute path, layer, wrapper factory).  Each entry is the name a
# caller resolves at call time; layers reached through several names list
# each of them.  Only names the three workloads reach are wrapped.
TARGETS = (
    ("islandsim.experiments", "sample_system_stats",
     "sde.sample_system_stats", _engine(_system_counts)),
    ("islandsim.experiments", "single_batch_stats",
     "sde.single_batch_stats", _engine(_single_counts)),
    ("islandsim.experiments", "sample_tree_stats",
     "virgin_island.sample_tree_stats", _engine(_tree_counts)),
    ("islandsim.mean_field", "sample_tree_stats",
     "virgin_island.sample_tree_stats", _engine(_tree_counts)),
    ("islandsim.mean_field", "simulate_mckean_vlasov",
     "mean_field.simulate_mckean_vlasov", _engine(_mean_field_counts)),
    ("islandsim.experiments", "extinction_criterion", "analytics", _span),
    ("islandsim.experiments", "scale_function", "analytics", _span),
    ("islandsim.experiments", "speed_mass", "analytics", _span),
    ("islandsim.virgin_island", "scale_function", "analytics", _span),
    ("islandsim.cli", "run_comparison", "experiments.runner", _span),
    ("islandsim.cli", "run_duality", "experiments.runner", _span),
    ("islandsim.cli", "run_identity_suite", "experiments.runner", _span),
    ("islandsim.experiments", "ExperimentReport.write",
     "experiments.report_write", _span),
    ("islandsim.rng", "substream", "rng.substream", _substream),
    ("islandsim.coefficients", "CoefficientSpec.mu", "coefficients",
     _counter),
    ("islandsim.coefficients", "CoefficientSpec.sigma2", "coefficients",
     _counter),
    ("islandsim.coefficients", "CoefficientSpec.mu_over_x", "coefficients",
     _counter),
    ("islandsim.coefficients", "CoefficientSpec.sigma2_over_x",
     "coefficients", _counter),
)


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS entry; a missing name raises TraceTargetError."""
    for module_name, path, layer, factory in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        try:
            for p in parents:
                owner = getattr(owner, p)
            fn = getattr(owner, attr)
        except AttributeError:
            raise TraceTargetError(
                f"trace target {module_name}.{path} no longer exists") from None
        setattr(owner, attr, factory(tracer, layer, fn))
