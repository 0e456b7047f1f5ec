"""Span tracing of hdw's public functions, installed from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper that records
one span (name, start, end, parent span, op id).  Module-level functions are
replaced in every ``hdw`` module that imported them; methods are replaced on
the classes that define them.  A function that is already open under the same
span name runs unwrapped, so recursive functions get one span per outermost
call.  Spans are kept in compact arrays and analysed when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from statistics import median
from time import perf_counter

import numpy as np

# Suite keys of ``hdw.verify.SUITES``; fixed here so that the per-layer
# metric names do not depend on the code under test.
SUITES = ("representation", "jacobi", "m1-reduction", "connection",
          "evolution-ode", "evolution-field", "evolution-converse", "yang-mills")

LAYERS = ("expr", "bundle", "bracket", "models", "solver", "verify", "cli")

# span name -> module-level functions ("module:function") and methods
# ("module:Class.method") it covers.
TARGETS = {
    "cli.main": ["cli:main"],
    "cli.load_model": ["cli:load_model"],
    # self time of cmd_simulate is CSV/JSON formatting and writing
    "cli.write": ["cli:cmd_simulate"],
    "expr.parse": ["expr:parse"],
    "expr.simplify": ["expr:simplify"],
    "expr.diff": ["expr:Expression.diff"],
    "expr.str": ["expr:Expression.__str__"],
    "expr.eval": ["expr:*.eval"],
    "expr.eval_many": ["expr:*.eval_many"],
    "bundle.validate": ["bundle:validate_current", "bundle:require_valid"],
    "bracket.affine": ["bracket:bracket_affine"],
    "bracket.linear": ["bracket:bracket_linear"],
    "bracket.current": ["bracket:current_bracket"],
    "bracket.representation_residual": ["bracket:representation_residual"],
    "models.build": ["models:WaveModel.__init__", "models:PerfectGasModel.__init__",
                     "models:model_td_mechanics"],
    "models.reconstruct_P": ["models:WaveModel.reconstruct_P",
                             "models:PerfectGasModel.reconstruct_P"],
    "solver.integrate_ode": ["solver:integrate_ode"],
    "solver.step_ode_rk4": ["solver:step_ode_rk4"],
    "solver.rhs": ["solver:_OdeSystem.rhs", "solver:_FieldSystem.rhs"],
    "solver.reconstruct_P": ["solver:reconstruct_P", "solver:_FieldSystem.reconstruct_P"],
    "solver.evolve_field": ["solver:evolve_field"],
    "solver.hdw_residual": ["solver:hdw_residual"],
}
TARGETS.update({f"verify.{suite}": [f"verify:SUITES[{suite}]"] for suite in SUITES})

# Derived per-layer metrics; see layer_metrics().
EXTRA_METRICS = {
    "cli.csv_bytes": "bytes",
    "solver.eval_many_per_step": "count",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed": "ratio",
    "trace.spans": "count",
}


def per_layer_metric_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {f"layer.{layer}.s": "s" for layer in LAYERS}
    for span in TARGETS:
        names[f"{span}.calls"] = "count"
        names[f"{span}.s"] = "s"
    names.update({f"verify.{suite}.wall_s": "s" for suite in SUITES})
    names.update(EXTRA_METRICS)
    return names


class Tracer:
    """Records spans of the wrapped functions into growable arrays."""

    def __init__(self):
        self.names: list[str] = list(TARGETS)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._open = [False] * len(self.names)
        self.op_id = -1

    def begin_op(self) -> None:
        self.op_id += 1

    def wrap(self, name_id: int, fn):
        tracer = self
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_[name_id]:
                return fn(*args, **kwargs)
            index = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(index)
            open_[name_id] = True
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                open_[name_id] = False
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target in the imported ``hdw`` package."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "hdw" or name.startswith("hdw.")}
        for name_id, span in enumerate(self.names):
            for target in TARGETS[span]:
                module_name, _, attr = target.partition(":")
                module = modules[f"hdw.{module_name}"]
                if attr.startswith("SUITES["):
                    self._wrap_suite(name_id, module, attr[len("SUITES["):-1], modules)
                elif "." in attr:
                    self._wrap_method(name_id, module, *attr.split("."))
                else:
                    fn = getattr(module, attr)
                    _replace(fn, self.wrap(name_id, fn), modules)

    def _wrap_method(self, name_id: int, module, cls_name: str, method: str) -> None:
        if cls_name == "*":
            base = module.Expression
            classes = [c for c in vars(module).values()
                       if isinstance(c, type) and issubclass(c, base)]
        else:
            classes = [getattr(module, cls_name)]
        for cls in classes:
            if method in vars(cls):
                setattr(cls, method, self.wrap(name_id, vars(cls)[method]))

    def _wrap_suite(self, name_id: int, module, suite: str, modules: dict) -> None:
        fn = module.SUITES[suite]
        traced = self.wrap(name_id, fn)
        # run_suites passes ``seed`` only to checks whose code names it
        if "seed" in fn.__code__.co_varnames:
            def wrapped(*args, seed=_UNSET, **kwargs):
                if seed is not _UNSET:
                    kwargs["seed"] = seed
                return traced(*args, **kwargs)
        else:
            wrapped = traced
        module.SUITES[suite] = wrapped
        _replace(fn, wrapped, modules)

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), start=np.asarray(self.start),
                 end=np.asarray(self.end), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), op=np.asarray(self.op))

    def self_times(self):
        """Per span name: (outermost calls, summed self seconds, summed duration)."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        name = np.asarray(self.name)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        seconds = np.bincount(name, weights=own, minlength=len(self.names))
        wall = np.bincount(name, weights=dur, minlength=len(self.names))
        return {n: (int(calls[i]), float(seconds[i]), float(wall[i]))
                for i, n in enumerate(self.names)}


_UNSET = object()


def _replace(fn, wrapped, modules: dict) -> None:
    """Point every module-level name bound to ``fn`` at ``wrapped``."""
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def layer_metrics(tracer: Tracer, traced_ops: list[float], plain_ops: list[float],
                  csv_bytes: int, steps: int) -> dict[str, float]:
    """Per-op per-layer metrics from a tracer that recorded ``traced_ops``."""
    n_ops = len(traced_ops)
    metrics = {f"layer.{layer}.s": 0.0 for layer in LAYERS}
    attributed = 0.0
    for span, (calls, seconds, wall) in tracer.self_times().items():
        metrics[f"{span}.calls"] = calls / n_ops
        metrics[f"{span}.s"] = seconds / n_ops
        metrics[f"layer.{span.split('.')[0]}.s"] += seconds / n_ops
        if span.startswith("verify."):
            metrics[f"{span}.wall_s"] = wall / n_ops
        if span != "cli.main":
            attributed += seconds
    traced_op = median(traced_ops)
    plain_op = median(plain_ops)
    metrics.update({
        "cli.csv_bytes": float(csv_bytes),
        "solver.eval_many_per_step":
            metrics["expr.eval_many.calls"] / steps if steps else 0.0,
        "trace.op_s": traced_op,
        "trace.untraced_op_s": plain_op,
        "trace.overhead_s": traced_op - plain_op,
        # op time in no span below the root: cli.main's own self time plus
        # whatever the op timer saw outside cli.main
        "trace.unattributed": 1.0 - attributed / sum(traced_ops),
        "trace.spans": len(tracer.start) / n_ops,
    })
    return metrics
