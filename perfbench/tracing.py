"""Call tracing for the benchmark, installed from outside the program.

A Tracer replaces the public functions of the tsfrac modules (and the two
LAPACK entry points the solver calls) with wrappers.  Each call through a
wrapper is a span: name, parent span, start and duration.  Spans live in
memory and are written out once, when the traced run ends.  Consecutive
calls of the same leaf function under the same parent are merged into one
record that carries a call count, so hot functions such as
``exprparse.evaluate`` keep the record list short.

A span's self time is its duration minus the durations of its child
spans; calls are synchronous and nested, so the children never overlap.
A function's calls to itself go straight to the original (the wrapper
puts the original back into its home module while it runs), so a
recursive function such as ``exprparse.evaluate`` is one span per call
from outside.
"""

from __future__ import annotations

import collections
import importlib
import json
import sys
import types
from time import perf_counter

LAYERS = ("cli", "exprparse", "fraclap", "solver", "principles", "kernels", "timefrac")

# Record layout: [name, parent index, start, duration, child duration, calls, has children]
NAME, PARENT, START, DUR, CHILD, CALLS, HAS_CHILDREN = range(7)


class _Proxy:
    """Stands in for a module inside one client module, overriding some names."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.records: list = []
        self.stack: list = []
        self.counts: collections.Counter = collections.Counter()
        # (Solution, matrix passed to solve or None) of every L1 solve, for residual checks
        self.captured: list = []
        # name -> callback(args, kwargs, result), run after the span closes
        self.on_return = {
            "solver.solve": self._on_solve,
            "scipy.cho_solve": self._on_cho_solve,
            "solver.solution_to_csv": self._on_csv,
            "principles.run_trials": self._on_run_trials,
            "principles.check_nonnegativity": self._on_report,
            "principles.check_parabolic_boundary": self._on_report,
        }

    def _on_solve(self, args, kwargs, sol):
        M, n = sol.states.shape[0] - 1, sol.states.shape[1]
        self.counts["solver.steps"] += M
        self.counts["solver.history_bytes"] += 8 * n * M * (M - 1) // 2
        if _arg(args, kwargs, 2, "kind", "l1") == "l1":
            self.captured.append((sol, _arg(args, kwargs, 1, "A")))

    def _on_cho_solve(self, args, kwargs, x):
        n = _arg(args, kwargs, 0, "c_and_lower")[0].shape[0]
        self.counts["solver.tri_solve_bytes"] += 8 * n * n

    def _on_csv(self, args, kwargs, text):
        self.counts["solver.csv_bytes"] += len(text)

    def _on_run_trials(self, args, kwargs, report):
        self.counts["principles.trials"] += _arg(args, kwargs, 0, "config").trials
        self._on_report(args, kwargs, report)

    def _on_report(self, args, kwargs, report):
        key = "principles.violation_max"
        self.counts[key] = max(self.counts[key], report.violation)

    def _wrap(self, name: str, fn, home=None):
        records, stack = self.records, self.stack
        hook = self.on_return.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, 0.0, 0.0, 0.0, 1, False]
            if parent >= 0:
                records[parent][HAS_CHILDREN] = True
            records.append(rec)
            stack.append(len(records) - 1)
            if home is not None:
                setattr(home[0], home[1], fn)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                if home is not None:
                    setattr(home[0], home[1], wrapper)
                stack.pop()
                rec[START] = t0
                rec[DUR] = d
                if parent >= 0:
                    records[parent][CHILD] += d
                if not rec[HAS_CHILDREN] and len(records) >= 2:
                    prev = records[-2]
                    if prev[NAME] == name and prev[PARENT] == parent and not prev[HAS_CHILDREN]:
                        prev[DUR] += d
                        prev[CALLS] += 1
                        records.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the tsfrac modules, wherever it is bound."""
        from scipy import linalg

        layers = {layer: importlib.import_module(f"tsfrac.{layer}") for layer in LAYERS}
        clients = [m for n, m in list(sys.modules.items()) if n == "tsfrac" or n.startswith("tsfrac.")]

        def rebind(orig, wrapped):
            for mod in clients:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

        for layer, mod in layers.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    rebind(fn, self._wrap(f"{layer}.{attr}", fn, home=(mod, attr)))

        solver = layers["solver"]
        spec = getattr(solver, "ProblemSpec", None)
        if spec is not None and isinstance(vars(spec).get("forcing_samples"), types.FunctionType):
            spec.forcing_samples = self._wrap("solver.forcing_samples", spec.forcing_samples)

        # Only the calls that cross from solver into LAPACK are counted.
        lapack = {}
        for attr in ("cho_factor", "cho_solve"):
            orig = getattr(linalg, attr)
            lapack[attr] = self._wrap(f"scipy.{attr}", orig)
            for key, val in list(vars(solver).items()):
                if val is orig:
                    setattr(solver, key, lapack[attr])
        for key, val in list(vars(solver).items()):
            if val is linalg:
                setattr(solver, key, _Proxy(linalg, lapack))

    def dump(self) -> dict:
        return {"records": self.records, "counts": dict(self.counts)}


def write(path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def summarize(records: list) -> dict:
    """Per-name totals: calls, inclusive time and self time."""
    out: dict = {}
    for rec in records:
        s = out.setdefault(rec[NAME], {"calls": 0, "dur": 0.0, "self": 0.0})
        s["calls"] += rec[CALLS]
        s["dur"] += rec[DUR]
        s["self"] += rec[DUR] - rec[CHILD]
    return out
