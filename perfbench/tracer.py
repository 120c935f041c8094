"""Span tracing of dmlab's public layer functions, installed from outside.

`Tracer.install` replaces each function in `TARGETS` at every `dmlab.*`
module binding of it (the defining module, modules that imported it by name
and the package namespace), so internal calls are traced as well as calls from
the benchmark.  Spans are kept in memory; `write` dumps them as JSON lines and
`layer_stats` turns them into per-layer counts and self times, where a span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

import numpy as np


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _rows(args, kwargs, result):
    X = _arg(args, kwargs, 1, "X")
    return {"rows": len(X) if np.ndim(X) > 1 else 1}


def _net_counts(args, kwargs, net):
    candidates = 2 * _arg(args, kwargs, 0, "dim") + _arg(args, kwargs, 2, "candidate_budget")
    return {"accepted": net.size, "candidates": candidates}


def _draws(args, kwargs, estimate):
    return {"draws": estimate.trials}


# (module, function, counter); a counter maps a call's arguments and result
# to the counts recorded on its span.
TARGETS = (
    ("bodies", "norm_many", _rows),
    ("bodies", "mean_width_auto", None),
    ("ensembles", "sample_product", None),
    ("ensembles", "sample_matrix", None),
    ("distortion", "measure_distortion", None),
    ("nets", "build_sphere_net", _net_counts),
    ("events", "check_event_A", None),
    ("events", "sparse_supremum", None),
    ("events", "singular_extremes", None),
    ("processes", "emp_sup", _draws),
    ("processes", "sudakov_lower", None),
    ("processes", "concentration_check", None),
    ("seeding", "child_seed", None),
    ("runner", "parse_config", None),
    ("runner", "run_experiment", None),
)


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "counts")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), stack[-1] if stack else None, name)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each `dmlab.*` binding; modules must be imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dmlab" or key.startswith("dmlab."))]
        for module_name, fn_name, counter in TARGETS:
            original = getattr(importlib.import_module(f"dmlab.{module_name}"), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "parent": None if s.parent is None else s.parent.id,
                    "name": s.name, "thread": s.thread, "start": s.start,
                    "end": s.end, "counts": s.counts}) + "\n")


# The per-layer metrics the benchmark reports, `<module>.<function>.<stat>`.
METRICS = (
    "bodies.norm_many.calls", "bodies.norm_many.rows", "bodies.norm_many.self_s",
    "bodies.mean_width_auto.self_s",
    "ensembles.sample_product.calls", "ensembles.sample_product.self_s",
    "ensembles.sample_matrix.calls", "ensembles.sample_matrix.self_s",
    "distortion.measure_distortion.calls", "distortion.measure_distortion.self_s",
    "nets.build_sphere_net.calls", "nets.build_sphere_net.self_s",
    "nets.build_sphere_net.accept_ratio",
    "events.check_event_A.self_s",
    "events.sparse_supremum.calls", "events.sparse_supremum.self_s",
    "events.singular_extremes.calls", "events.singular_extremes.self_s",
    "processes.emp_sup.draws", "processes.emp_sup.self_s",
    "processes.sudakov_lower.self_s",
    "processes.concentration_check.calls", "processes.concentration_check.self_s",
    "seeding.child_seed.calls", "seeding.child_seed.self_s",
    "runner.parse_config.self_s",
    "runner.run_experiment.self_s", "runner.run_experiment.span_s",
)


def layer_stats(spans) -> dict:
    """The per-layer `METRICS` of a span list.

    `runner.run_experiment.span_s` is the duration of the top-level
    run_experiment spans: the traced sweep, which the self times of the spans
    inside it add up to.
    """
    child_time: dict = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent.id] = child_time.get(s.parent.id, 0.0) + s.duration
    stats: dict = {}
    for module, fn, _ in TARGETS:
        stats[f"{module}.{fn}.calls"] = 0
        stats[f"{module}.{fn}.self_s"] = 0.0
    for s in spans:
        stats[f"{s.name}.calls"] += 1
        stats[f"{s.name}.self_s"] += s.duration - child_time.get(s.id, 0.0)
        for key, value in (s.counts or {}).items():
            stats[f"{s.name}.{key}"] = stats.get(f"{s.name}.{key}", 0) + value
    stats.setdefault("bodies.norm_many.rows", 0)
    stats.setdefault("processes.emp_sup.draws", 0)
    candidates = stats.get("nets.build_sphere_net.candidates", 0)
    stats["nets.build_sphere_net.accept_ratio"] = (
        stats.get("nets.build_sphere_net.accepted", 0) / candidates if candidates else 0.0)
    stats["runner.run_experiment.span_s"] = sum(
        s.duration for s in spans if s.parent is None and s.name == "runner.run_experiment")
    return {name: stats[name] for name in METRICS}
