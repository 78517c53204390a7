"""Span tracer that wraps the public functions of the qgbsde modules from outside.

Every public function defined in one of the layer modules is replaced by a
wrapper that records a span (name, start, end, parent) in memory. The wrapper
is bound under the same name in every qgbsde module namespace that holds the
original function object, so `from .regression import fit_step` call sites in
the solver, the diagnostics, the variational solver and the CLI are traced as
well. `uninstall` puts every original back.

A span's self time is its duration minus the time its child spans cover.
Spans are recorded on one thread and nest strictly (the benchmark runs with
`workers = 1`), so the covered time is the sum of the direct children's
durations, and the self times of all spans add up to the root span's
duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("rng", "sde", "regression", "solver", "truncation", "variational",
          "oracle", "diagnostics", "cli")
# functions whose arguments feed counters (see Tracer._before and _after)
_COUNTED = {"regression.fit_step", "sde.simulate_forward", "sde.load_ensemble",
            "sde.dump_ensemble"}


def _arg(fn_sig, args, kwargs, name):
    return fn_sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    """In-memory spans plus per-function counters for one traced process."""

    def __init__(self, package: str = "qgbsde"):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._ensembles: set = set()

    # ------------------------------------------------------------ counters ---

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _before(self, name, sig, args, kwargs):
        """Counters read from the arguments, taken outside the span."""
        if name == "regression.fit_step":
            self._count("regression.fit_step.cols",
                        np.shape(_arg(sig, args, kwargs, "targets"))[-1])
        elif name == "sde.simulate_forward":
            model = _arg(sig, args, kwargs, "model")
            part = _arg(sig, args, kwargs, "partition")
            key = (model.name, repr(sorted(model.meta.items())),
                   np.asarray(model.x0).tobytes(), float(model.T),
                   np.asarray(part.times).tobytes(),
                   int(_arg(sig, args, kwargs, "n_paths")),
                   int(_arg(sig, args, kwargs, "seed")))
            self._count("sde.simulate_forward.redundant", key in self._ensembles)
            self._ensembles.add(key)
        elif name == "sde.load_ensemble":
            self._count("sde.load_ensemble.bytes",
                        os.path.getsize(_arg(sig, args, kwargs, "path")))

    def _after(self, name, sig, args, kwargs):
        if name == "sde.dump_ensemble":
            self._count("sde.dump_ensemble.bytes",
                        os.path.getsize(_arg(sig, args, kwargs, "path")))

    # ------------------------------------------------------------- wrapping ---

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn)
        counted = name in _COUNTED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                self._before(name, sig, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if counted:
                    self._after(name, sig, args, kwargs)

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self):
        """Wrap every public function of every layer module, in every
        qgbsde module namespace that binds it by name."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"{self.package}.{layer}")
                for layer in LAYERS}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == self.package
                                            or name.startswith(self.package + "."))]
        for layer, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._restore.append((ns, attr, obj))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()


def leftover_wrappers(package: str = "qgbsde") -> list[str]:
    """Names in the package's namespaces still bound to a tracer wrapper."""
    return sorted(f"{name}.{attr}"
                  for name, mod in sys.modules.items()
                  if mod is not None and (name == package or name.startswith(package + "."))
                  for attr, obj in vars(mod).items()
                  if getattr(obj, "__wrapped_by_tracer__", False))


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per function: calls, inclusive seconds and self seconds.

    No traced function calls itself, directly or through another, so the
    inclusive seconds of a function count no interval twice.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered[i]
    return table
