"""Per-layer tracing by wrapping each hardyops module's public functions.

A layer is a module of the package.  Its public functions (``__all__``)
are wrapped, plus ``numerics._axis_rule``, the L0 rule builder that
``experiments`` also calls.  Consumers bind the engines by name
(``from .numerics import integrate_unit_cube``), so every binding of a
wrapped function in every loaded hardyops module is replaced, not just
the defining one.

Each wrapped call records a span (layer, function, start, end, parent).
A span whose parent lies in another layer, or that has no parent, is a
call *into* the layer: it counts in ``<layer>.calls`` and ``<layer>.s``.
Self time is a span's duration minus the time of its child spans; the
calls are sequential, so the children never overlap.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from statistics import median

LAYERS = ("numerics", "spaces", "operators", "constants", "experiments", "cli")
ENGINES = {
    "integrate_unit_cube": "cube",
    "integrate_unit_interval": "interval",
    "integrate_halfline": "halfline",
}

# name -> unit of every per-layer metric, in report order
METRICS = {
    "numerics.rule_builds": "count",
    "numerics.rule_s": "s",
    "numerics.evaluations": "count",
    "numerics.cube_s": "s",
    "numerics.ns_per_eval": "ns",
    "numerics.cube_cpu_s": "s",
    "numerics.cube_calls": "count",
    "numerics.converged_frac": "ratio",
    "numerics.interval_calls": "count",
    "numerics.interval_s": "s",
    "numerics.halfline_calls": "count",
    "numerics.halfline_s": "s",
    "operators.calls": "count",
    "operators.s": "s",
    "operators.self_s": "s",
    "experiments.calls": "count",
    "experiments.s": "s",
    "experiments.self_s": "s",
    "constants.calls": "count",
    "constants.s": "s",
    "constants.self_s": "s",
    "spaces.calls": "count",
    "spaces.s": "s",
    "spaces.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class _Span:
    __slots__ = ("id", "layer", "name", "parent", "start", "children", "cpu")

    def __init__(self, span_id, layer, name, parent):
        self.id = span_id
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.children = 0.0
        self.cpu = 0.0


class Tracer:
    """Installs the wrappers, records spans and sums them per pass."""

    def __init__(self):
        self._stack: list[_Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []  # (id, parent id, op, layer, name, start, end)
        self._op = ""
        self._ids = itertools.count()
        self._sums: dict[str, float] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import hardyops.cli  # the CLI module is not imported by the package

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hardyops.{layer}"]
            names = list(module.__all__) + (["_axis_rule"] if layer == "numerics" else [])
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "hardyops" and not modname.startswith("hardyops."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, layer, name, fn):
        tracer = self
        timed_cpu = name == "integrate_unit_cube"

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = _Span(next(tracer._ids), layer, name, parent)
            stack.append(span)
            if timed_cpu:
                span.cpu = time.process_time()
            span.start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                if timed_cpu:
                    span.cpu = time.process_time() - span.cpu
                stack.pop()
                tracer._record(span, end, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- recording ----------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self._op = op_id

    def begin_pass(self) -> None:
        self._sums = {}

    def _add(self, key, amount):
        self._sums[key] = self._sums.get(key, 0.0) + amount

    def _record(self, span: _Span, end: float, result) -> None:
        duration = end - span.start
        parent = span.parent
        if parent is not None:
            parent.children += duration
        self.spans.append(
            (span.id, parent.id if parent else None, self._op, span.layer, span.name,
             span.start, end)
        )
        layer = span.layer
        entry = parent is None or parent.layer != layer
        self._add(f"{layer}.self_s", duration - span.children)
        if entry:
            self._add(f"{layer}.calls", 1)
            self._add(f"{layer}.s", duration)
        if layer != "numerics":
            return
        if span.name == "_axis_rule":
            self._add("numerics.rule_builds", 1)
            self._add("numerics.rule_s", duration)
        engine = ENGINES.get(span.name)
        if engine is not None and entry:
            self._add(f"numerics.{engine}_calls", 1)
            self._add(f"numerics.{engine}_s", duration)
            if engine == "cube":
                self._add("numerics.cube_cpu_s", span.cpu)
            if result is not None:
                self._add("numerics.evaluations", result.evaluations)
                self._add("numerics.converged", 1 if result.converged else 0)

    def end_pass(self) -> dict[str, float]:
        """The per-layer sums of the pass just run, one value per metric."""
        s = self._sums
        engine_calls = sum(s.get(f"numerics.{e}_calls", 0.0) for e in ENGINES.values())
        engine_s = sum(s.get(f"numerics.{e}_s", 0.0) for e in ENGINES.values())
        evaluations = s.get("numerics.evaluations", 0.0)
        derived = {
            "numerics.ns_per_eval": 1e9 * engine_s / evaluations if evaluations else 0.0,
            "numerics.converged_frac": (
                s.get("numerics.converged", 0.0) / engine_calls if engine_calls else 1.0
            ),
        }
        return {
            name: derived[name] if name in derived else s.get(name, 0.0)
            for name in METRICS
            if name != "trace.overhead_s"
        }


def summarize(passes: list[dict[str, float]], overhead_s: float) -> dict[str, dict]:
    """Median of each per-layer metric over the traced passes."""
    out = {}
    for name, unit in METRICS.items():
        value = overhead_s if name == "trace.overhead_s" else median(p[name] for p in passes)
        out[name] = {"value": value, "unit": unit}
    return out
