"""Span recording around dncrit's public functions, for the traced run.

Each traced function is replaced, in every ``dncrit`` module namespace that
binds it, by a wrapper that records a span (name, start, end, parent, op).
The replacement has to reach every namespace because ``experiments`` and the
``dncrit`` package import functions by name.  Spans stay in memory and are
written out once, when the run ends.

Per-layer metrics follow from the spans: a function's self time is its span
time minus the time its child spans cover, and its busy time counts only
spans that do not sit inside a span of the same function.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# dncrit module -> traced public functions.  `cli` and `reference` only
# format or compare, so they are not traced.
TRACED = {
    "matcore": ("spectral_decompose", "check_dn"),
    "exppoly": ("entry_exppoly", "negative_intervals", "grid_entry_values",
                "matrix_critical_exponent"),
    "signchange": ("sign_change_matrix", "validate_sign_change_matrix"),
    "enumeration": ("enumerate_w_classes", "canonicalize_w"),
    "certify": ("entry_bounds_from_w", "certify_dimension"),
    "experiments": ("tridiagonal_witness", "empirical_critical_exponent"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Counts read off a function's result, summed over its calls.
RESULT_COUNTS = {
    "exppoly.negative_intervals": lambda r: 1 if len(r) else 0,   # scans with a hit
    "exppoly.grid_entry_values": lambda r: int(r.size),            # entries x t-points
    "enumeration.enumerate_w_classes": len,
    "certify.entry_bounds_from_w": lambda r: r.num_unbounded(),
}

OP = "op"   # name of the root span around each benchmark op


class Tracer:
    """In-memory span recorder.  Single-threaded: spans nest strictly."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, op index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self._op += 1
        self._open(OP)

    def end_op(self) -> None:
        self._close(self._stack[-1])

    def _wrap(self, name: str, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.counts[name] += count(result)
            return result
        return wrapper

    def install(self) -> None:
        """Replace every traced function in every loaded dncrit module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dncrit" or key.startswith("dncrit."))]
        for name in FUNCTIONS:
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"dncrit.{mod}"), fn)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)

    def layer_metrics(self, passes: int, ops_per_pass: int) -> dict[str, tuple[float, str]]:
        """Per-function calls, self and busy seconds, plus the counts and
        ratios read off results, each per pass of the op list, from
        ``passes`` identical traced passes; metric -> (value, unit)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = Counter()
        busy_s = Counter()
        for index, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                busy_s[name] += end - start
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self_s[name] / passes, "s")
            out[f"{name}.busy_s"] = (busy_s[name] / passes, "s")
        counts = self.counts
        out["matcore.spectral_decompose.calls_per_op"] = (
            _ratio(calls["matcore.spectral_decompose"], passes * ops_per_pass), "1/op")
        out["exppoly.negative_intervals.hit_ratio"] = (
            _ratio(counts["exppoly.negative_intervals"], calls["exppoly.negative_intervals"]),
            "ratio")
        out["exppoly.grid_entry_values.points"] = (
            counts["exppoly.grid_entry_values"] / passes, "count")
        out["enumeration.enumerate_w_classes.classes"] = (
            counts["enumeration.enumerate_w_classes"] / passes, "count")
        out["certify.entry_bounds_from_w.unbounded_entries"] = (
            counts["certify.entry_bounds_from_w"] / passes, "count")
        out["trace.spans"] = (len(spans) / passes, "count")
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, and 0.0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0


def self_check(layer: dict, exercised: tuple[str, ...]) -> list[str]:
    """Call-count expectations of a workload: at least one call of each
    exercised function and none of every other traced function.  Returns
    the violations."""
    problems = []
    for name in FUNCTIONS:
        calls = layer[f"{name}.calls"][0]
        if name in exercised and calls < 1:
            problems.append(f"{name}: no calls, expected at least one")
        elif name not in exercised and calls != 0:
            problems.append(f"{name}: {calls} calls, expected none")
    return problems
