"""Spans around memloss's layers, recorded from outside the program.

:class:`Tracer` rebinds each wrapped public name wherever a caller looks it
up (every ``memloss`` module whose namespace holds the original function),
so ``memloss.transfer.inverse_branch_array`` and
``memloss.cli.memory_loss_curve`` both go through the wrapper.  Spans are
kept in memory as ``[name, start, end, parent, experiment, attrs]`` lists
and written out when the run ends.  Hot leaves (``conditional_tail``,
``param_at``) get no span: their calls and time add to the enclosing span
and to per-leaf totals.

The layers are the package's modules.  No layer has a queue or a retry,
and with one worker nothing waits, so "time waited" is not applicable.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# name -> attributes recorded at call time.  Each lambda takes the wrapped
# function's own parameter names, so positional and keyword calls both bind.
_SPANS = {
    "maps.inverse_branch_array": lambda params, branch, y: {
        "family": params.family.value, "branch": branch.value, "elements": len(y)},
    "maps.eval_map_array": lambda params, x: {"family": params.family.value, "elements": len(x)},
    "rootfind.vec_newton_from_above": None,
    "rootfind.vec_bisect_newton": None,
    "transfer.push_density": lambda params, f: {"family": params.family.value, "cells": f.n_cells},
    "transfer.memory_loss_curve": None,
    "transfer.mixing_mass": None,
    "transfer.evolve": None,
    "transfer.make_density": None,
    "transfer.tv_distance": None,
    "partitions.return_time_tail": lambda seq, k, n_max, base="m_k": {
        "family": seq.family.value, "kind": seq.kind, "entries": len(seq.entries), "n_max": n_max},
    "partitions.return_time_tail_mc": None,
    "partitions.lsv_preimage_points": None,
    "partitions.pikovsky_endpoints": None,
    "partitions.fit_power_law": None,
    "partitions.mc_zscores": None,
    "sequences.gammas": None,
    "sequences.check_frequency": None,
    "coupling.build_model": None,
    "coupling.s_tail_dp": lambda model, n_max: {
        "n_max": n_max, "stationary": model.family.stationary},
    "coupling.s_tail_mc": lambda model, n_max, samples, seed: {
        "n_max": n_max, "samples": samples, "stationary": model.family.stationary},
    "csvio.write_columns": lambda path, kind, columns: {
        "rows": len(next(c for c in columns if c is not None))},
    "csvio.read_csv": None,
    "cli.run_cli": lambda argv=None: {"command": argv[0] if argv else ""},
}
# name -> attributes recorded from the result.
_RESULTS = {"csvio.read_csv": lambda result: {"rows": len(next(iter(result[1].values())))}}
_ROOTFINDERS = {"rootfind.vec_newton_from_above", "rootfind.vec_bisect_newton"}

COUNTS = ("elements", "cells", "rows", "samples", "f_evals")


class Tracer:
    """Records spans while installed; use as ``with Tracer() as tr: ...``."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, seconds
        self.experiment = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------

    def begin(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.experiment, attrs or {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn, attrs_of):
        result_attrs = _RESULTS.get(name)

        def wrapper(*args, **kwargs):
            span = self.begin(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                result = fn(*args, **kwargs)
                if result_attrs:
                    span[5].update(result_attrs(result))
                return result
            finally:
                self.end(span)

        return wrapper

    def _rootfind_wrapper(self, name, fn):
        def wrapper(f, *args, **kwargs):
            span = self.begin(name, {"f_evals": 0})

            def counted(x):
                span[5]["f_evals"] += 1
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def _leaf_wrapper(self, name, fn):
        totals = self.leaves[name]
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                if stack:
                    attrs = spans[stack[-1]][5]
                    attrs["leaf_s"] = attrs.get("leaf_s", 0.0) + dt

        return wrapper

    # -- installing -------------------------------------------------------------------

    def __enter__(self):
        import memloss.cli  # loads every layer before rebinding

        modules = [m for n, m in sorted(sys.modules.items()) if n == "memloss" or n.startswith("memloss.")]
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, attrs_of in _SPANS.items():
            original = _lookup(name)
            if name in _ROOTFINDERS:
                wrappers[id(original)] = (original, self._rootfind_wrapper(name, original))
            else:
                wrappers[id(original)] = (original, self._span_wrapper(name, original, attrs_of))
        param_at = _lookup("sequences.param_at")
        wrappers[id(param_at)] = (param_at, self._leaf_wrapper("sequences.param_at", param_at))
        for m in modules:
            for key, value in list(vars(m).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if value is original:
                    self._rebind(m, key, wrapper)
        model_cls = sys.modules["memloss.coupling"].CouplingModel
        self._rebind(model_cls, "conditional_tail", self._leaf_wrapper(
            "coupling.conditional_tail", model_cls.conditional_tail))
        return self

    def _rebind(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
        return False


def _lookup(name: str):
    module, attr = name.split(".")
    return getattr(sys.modules[f"memloss.{module}"], attr)


# -- analysis ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans and
    its hot-leaf calls (``attrs["leaf_s"]``) cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _, attrs) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(max(end - start - covered - attrs.get("leaf_s", 0.0), 0.0))
    return out


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per wrapped name: calls, total_s, self_s and the summed counts."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _, _, attrs = span
        row = totals.setdefault(name, defaultdict(float))
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        for key in COUNTS:
            row[key] += attrs.get(key, 0)
    for name, (calls, seconds) in tracer.leaves.items():
        totals[name] = {"calls": calls, "total_s": seconds, "self_s": seconds}
    return totals
