"""Spans around the calls into each invlap layer, and the per-layer metrics.

The benchmark does not instrument invlap itself.  ``Tracer.install``
replaces module attributes at the places the workload calls through
(``harness.plan_samples``, ``bem.assemble``, ``bem.k01_values`` and so on)
with wrappers that record a span per call, and ``Tracer.uninstall`` puts
every original back.  A span is ``[name, start, end, thread, parent,
attrs]``; spans opened on an evaluation worker thread take the open
``evaluate_image`` span as their parent.  Spans stay in memory until
``dump`` writes them out after the sweep.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time

import numpy as np

METHODS = ("stehfest", "schapery", "weeks", "talbot", "dehoog")

#: (module, attribute, span name) per workload kind.  The first three are
#: the planning layer, looked up where the sweep calls it.
TARGETS = {
    "bem": (
        ("invlap.harness", "plan_samples", "core.plan_samples"),
        ("invlap.harness", "evaluate_image", "core.evaluate_image"),
        ("invlap.harness", "invert_all", "core.invert_all"),
        ("invlap.bem", "assemble", "bem.assemble"),
        ("invlap.bem", "solve_boundary", "bem.solve_boundary"),
        ("invlap.bem", "eval_interior", "bem.eval_interior"),
        ("invlap.bem", "k01_values", "specfun.k01_values"),
        ("invlap.oracles", "crank_nicolson_1d", "oracles.crank_nicolson_1d"),
        ("invlap.oracles", "benchmark_time_series_1d", "oracles.benchmark_time_series_1d"),
    ),
    "pairs": (
        ("invlap.core", "plan_samples", "core.plan_samples"),
        ("invlap.core", "evaluate_image", "core.evaluate_image"),
        ("invlap.core", "invert_all", "core.invert_all"),
    ),
}

#: Per-layer metrics: name -> (unit, better).  Kept in step with the
#: ``per_layer`` list of BENCHMARK.json by ``selftest.py``.
LAYER_METRICS = {
    "core.plan_samples.s": ("s", "lower"),
    "core.plan.raw_nodes": ("count", "lower"),
    "core.plan.distinct_nodes": ("count", "lower"),
    "core.plan.dedup_ratio": ("ratio", "lower"),
    "core.evaluate_image.s": ("s", "lower"),
    "core.evaluate_image.parallel_eff": ("ratio", "higher"),
    "core.invert_all.s": ("s", "lower"),
    **{f"core.invert_all.{m}.us_per_time": ("us", "lower") for m in METHODS},
    "harness.solve_reuse": ("ratio", "higher"),
    "bem.assemble.calls": ("count", "lower"),
    "bem.assemble.ms_p50": ("ms", "lower"),
    "bem.assemble.ms_p95": ("ms", "lower"),
    "bem.assemble.self_s": ("s", "lower"),
    "bem.solve_boundary.calls": ("count", "lower"),
    "bem.solve_boundary.ms_p50": ("ms", "lower"),
    "bem.eval_interior.ms_p50": ("ms", "lower"),
    "specfun.k01_values.calls": ("count", "lower"),
    "specfun.k01_values.points": ("count", "lower"),
    "specfun.k01_values.ns_per_point": ("ns", "lower"),
    "specfun.k01_values.large_arg_share": ("ratio", "lower"),
    "oracles.crank_nicolson_1d.s": ("s", "lower"),
    "oracles.benchmark_time_series_1d.s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

#: |z| from which K0/K1 take the asymptotic branch of ``invlap.specfun``.
LARGE_ARGUMENT = 16.0

#: Value reported for a metric whose layer the workload never called or
#: whose wrapped name is missing: never a measured value, and not zero.
UNOBSERVED = -1.0


def _plan_attrs(args, kwargs, plan):
    return {"raw": int(plan.raw_evaluations), "distinct": int(plan.total_evaluations)}


def _invert_attrs(args, kwargs, result):
    return {"method": result.method, "times": int(np.size(result.times))}


def _k01_attrs(args, kwargs, result):
    z = np.abs(args[0] if args else kwargs["z"])
    return {"points": int(z.size), "large": int(np.count_nonzero(z >= LARGE_ARGUMENT))}


ATTRS = {
    "core.plan_samples": _plan_attrs,
    "core.invert_all": _invert_attrs,
    "specfun.k01_values": _k01_attrs,
}


class TracedImage:
    """Image proxy recording one ``image`` span per call."""

    def __init__(self, tracer, image):
        self._image = image
        self._call = tracer.wrap("image", image)

    def __call__(self, p):
        return self._call(p)

    def __getattr__(self, name):
        return getattr(self._image, name)


class Tracer:
    def __init__(self, kind: str):
        self.targets = TARGETS[kind]
        self.spans = []
        self.missing = []
        self.workers = []
        self._originals = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._evaluate = None
        self.main_thread = threading.get_ident()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = None if threading.get_ident() == self.main_thread else self._evaluate
        span = [name, time.perf_counter(), 0.0, threading.get_ident(), parent, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index, span, stack

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            _, span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result
        return traced

    def _wrap_evaluate(self, name, fn):
        @functools.wraps(fn)
        def traced(plan, image, *args, **kwargs):
            index, span, stack = self._open(name)
            self._evaluate = index
            self.workers.append(kwargs.get("workers") or 1)
            try:
                return fn(plan, TracedImage(self, image), *args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self._evaluate = None
        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        for module_name, attr, name in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            wrapper = (self._wrap_evaluate if name == "core.evaluate_image" else self.wrap)
            setattr(module, attr, wrapper(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all(getattr(module, attr) is original
                   for module, attr, original in self._originals)

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "thread", "parent", "attrs"],
                       "missing": self.missing, "spans": self.spans, **(extra or {})}, fh)


# -- per-layer metrics -------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus its children on the same thread."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        parent = s[4]
        if parent is not None and spans[parent][3] == s[3]:
            own[parent] -= s[2] - s[1]
    return own


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced sweep; None marks unobserved."""
    spans = tracer.spans
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    def total(name):
        d = durations(name)
        return sum(d) if d else None

    def pct_ms(name, q):
        d = durations(name)
        return float(np.percentile(d, q)) * 1e3 if d else None

    def count(name):
        n = len(by_name.get(name, ()))
        return n if n else None

    out = dict.fromkeys(LAYER_METRICS)
    plans = [spans[i][5] for i in by_name.get("core.plan_samples", ()) if spans[i][5]]
    if plans:
        raw = sum(p["raw"] for p in plans)
        distinct = sum(p["distinct"] for p in plans)
        out.update({"core.plan_samples.s": total("core.plan_samples"),
                    "core.plan.raw_nodes": raw, "core.plan.distinct_nodes": distinct,
                    "core.plan.dedup_ratio": distinct / raw})
    evaluate = total("core.evaluate_image")
    image = total("image")
    if evaluate and image is not None:
        workers = max(tracer.workers)
        out["core.evaluate_image.s"] = evaluate
        out["core.evaluate_image.parallel_eff"] = image / (workers * evaluate)
    out["core.invert_all.s"] = total("core.invert_all")
    for method in METHODS:
        per = [(spans[i][2] - spans[i][1], spans[i][5]["times"])
               for i in by_name.get("core.invert_all", ())
               if spans[i][5] and spans[i][5]["method"] == method]
        if per:
            out[f"core.invert_all.{method}.us_per_time"] = (
                sum(d for d, _ in per) / sum(n for _, n in per) * 1e6)
    solves = count("bem.solve_boundary")
    image_calls = count("image")
    if solves and image_calls:
        out["harness.solve_reuse"] = 1.0 - solves / image_calls
    if count("bem.assemble"):
        out.update({
            "bem.assemble.calls": count("bem.assemble"),
            "bem.assemble.ms_p50": pct_ms("bem.assemble", 50),
            "bem.assemble.ms_p95": pct_ms("bem.assemble", 95),
            "bem.assemble.self_s": sum(own[i] for i in by_name["bem.assemble"]),
        })
    out["bem.solve_boundary.calls"] = solves
    out["bem.solve_boundary.ms_p50"] = pct_ms("bem.solve_boundary", 50)
    out["bem.eval_interior.ms_p50"] = pct_ms("bem.eval_interior", 50)
    k01 = [spans[i] for i in by_name.get("specfun.k01_values", ())]
    if k01:
        points = sum(s[5]["points"] for s in k01)
        out.update({"specfun.k01_values.calls": len(k01),
                    "specfun.k01_values.points": points,
                    "specfun.k01_values.ns_per_point": total("specfun.k01_values") / points * 1e9,
                    "specfun.k01_values.large_arg_share": sum(s[5]["large"] for s in k01) / points})
    out["oracles.crank_nicolson_1d.s"] = total("oracles.crank_nicolson_1d")
    out["oracles.benchmark_time_series_1d.s"] = total("oracles.benchmark_time_series_1d")
    main_self = sum(own[i] for i, s in enumerate(spans) if s[3] == tracer.main_thread)
    out["trace.coverage"] = main_self / wall_s if spans else None
    return out


def median_metrics(samples: list) -> dict:
    """Median per metric over traced sweeps; None when never observed."""
    out = {}
    for name in LAYER_METRICS:
        values = [s[name] for s in samples if s.get(name) is not None]
        out[name] = statistics.median(values) if values else None
    return out
