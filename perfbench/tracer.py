"""In-memory span tracer that times kancredit's layers from outside the package.

Each public function of a layer module is replaced, at every module binding
that holds it, by a wrapper that records a span (name, start, end, parent).
Bindings are found by identity, so ``kancredit.training.basis_values`` is
wrapped as well as ``kancredit.splines.basis_values``: ``backward`` calls the
copy that its own module imported. Time spent in functions that are not
wrapped (private helpers, methods) stays with the nearest wrapped caller, so
no time is lost between layers.

Spans and counts stay in memory; the caller writes the summary once, after
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("data", "splines", "network", "training", "metrics", "explain", "cli")

# Functions whose per-layer metrics the benchmark reports. A layer module
# that no longer defines one of them fails the traced run instead of letting
# the metric read as zero.
REPORTED = {
    "data": ("load_gmsc_csv", "preprocess", "split"),
    "splines": ("basis_values", "basis_derivatives"),
    "network": (
        "network_logits",
        "flatten_params",
        "set_params",
        "save_network",
        "load_network",
        "edge_forward",
    ),
    "training": ("backward", "adam_step", "train"),
    "metrics": ("roc_auc", "roc_curve", "classification_report"),
    "explain": (
        "edge_scores",
        "sample_activation_curves",
        "decision_path",
        "export_dot",
    ),
    "cli": ("main",),
}

# Name of the pseudo-span that holds the tracer's own counting work, so that
# it is not charged to the caller's self time.
COUNT_SPAN = "trace.count"


class TraceError(Exception):
    """The traced program does not have the shape the benchmark measures."""


def _rows(value) -> int:
    return int(np.shape(value)[0]) if np.ndim(value) else 1


def _count_basis(counts, name, args, result):
    counts[f"{name}.points"] += int(np.size(args[1]))
    counts["splines.basis_bytes_computed"] += int(np.asarray(result).nbytes)
    if name == "splines.basis_values":
        counts["splines.basis_values.entries"] += int(np.size(result))
        counts["splines.basis_values.nonzero"] += int(np.count_nonzero(result))


def _counter_for(name):
    """The count a wrapped call adds, given (counts, args, result), or None."""
    if name == "data.load_gmsc_csv":
        return lambda c, a, r: c.update({"data.rows": len(r)})
    if name in ("splines.basis_values", "splines.basis_derivatives"):
        return lambda c, a, r: _count_basis(c, name, a, r)
    if name == "network.network_logits":
        return lambda c, a, r: c.update({"network.network_logits.rows": _rows(a[1])})
    if name in ("network.flatten_params", "network.set_params"):
        return lambda c, a, r: c.update({"network.param_copies": 1})
    if name == "training.backward":
        return lambda c, a, r: c.update({"training.backward.rows": _rows(a[1])})
    if name == "explain.edge_scores":
        return lambda c, a, r: c.update({"explain.edge_scores.rows": _rows(a[1].features)})
    return None


class Tracer:
    """Records spans as ``[name, start, end, parent_index]`` lists."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn):
        counter = _counter_for(name)
        layer = name.split(".", 1)[0]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            outermost = layer == "metrics" and (
                parent < 0 or not spans[parent][0].startswith("metrics.")
            )
            if counter is not None or outermost:
                started = clock()
                if counter is not None:
                    counter(counts, args, result)
                if outermost:
                    counts["metrics.rows"] += _rows(args[0])
                spans.append([COUNT_SPAN, started, clock(), parent])
            return result

        return traced

    def install(self, package="kancredit"):
        """Wrap every public or reported function of every layer at every binding.

        Returns the number of bindings replaced. Raises TraceError when a
        reported function is missing from its layer module.
        """
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for fname in REPORTED[layer]:
                fn = getattr(module, fname, None)
                if not inspect.isfunction(fn):
                    raise TraceError(f"{package}.{layer}.{fname} is missing")
            for fname in {*getattr(module, "__all__", ()), *REPORTED[layer]}:
                fn = getattr(module, fname, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (fn, f"{layer}.{fname}")
        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in originals.items()}
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][0] is value:
                    setattr(module, attr, wrapper)
                    replaced += 1
        return replaced

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans if span[0] != COUNT_SPAN)


def self_times(spans) -> dict:
    """Per name, total span time minus the time of the span's direct children."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return dict(totals)


def step_seconds(spans) -> list:
    """Training step durations: gaps between successive ``backward`` starts.

    A step covers batch sampling, ``backward``, ``adam_step`` and the
    parameter write-back, so ``T`` steps give ``T - 1`` durations.
    """
    starts = defaultdict(list)
    for name, start, _, parent in spans:
        if name == "training.backward" and parent >= 0 and spans[parent][0] == "training.train":
            starts[parent].append(start)
    steps = []
    for index, (name, *_rest) in enumerate(spans):
        if name != "training.train":
            continue
        times = starts.get(index, [])
        if len(times) < 2:
            raise TraceError("training.train made fewer than two backward calls")
        steps.extend(b - a for a, b in zip(times, times[1:]))
    return steps
