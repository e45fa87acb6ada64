"""Outside-in tracer for the ``confdet`` package.

Every public function defined in a layer module is wrapped, and the
wrapper replaces the function in *every* ``confdet`` namespace that holds
it: ``from .regression import residual_scores`` binds the name inside
``pipeline`` at import time, so patching only ``regression`` would miss
the calls ``pipeline`` makes.  Names bound elsewhere (a default argument,
a dict built at import time) are not reached.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, where
``parent`` is the index of the enclosing span or -1, and are turned into
metrics after the run.  The tracer assumes one thread, so run the program
with ``workers=1``.  A public function that no longer exists simply has
no span name, and its metrics are left out rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "confdet"

#: The modules of the package that do work, in call order from the CLI down.
LAYERS = ("cli", "io", "core", "oracle", "calibration", "regression", "classification", "metrics", "pipeline")

#: Functions whose inclusive time is reported as ``<name>.s``.
TIMED = (
    "cli.main",
    "io.load_dataset",
    "io.save_dataset",
    "io.save_oracle_info",
    "io.emit_report",
    "core.validate_record",
    "core.records_to_arrays",
    "oracle.generate",
    "calibration.pava_fit",
    "calibration.calibrated_sigma_array",
    "regression.fit_quantiles_from_scores",
    "regression.residual_scores",
    "regression.corner_intervals",
    "classification.true_class_scores",
    "classification.prediction_set_matrix",
    "pipeline.run_experiment",
)

#: Functions whose number of calls is reported as ``<name>.calls``.
CALLED = (
    "core.validate_record",
    "core.records_to_arrays",
    "calibration.fit_calibrator_arrays",
    "calibration.pava_fit",
    "regression.conformal_quantile",
)


def _path_size(args) -> int:
    path = args.get("path")
    return os.path.getsize(path) if path is not None else 0


def _count_load(args, result, counts):
    _, report = result
    counts["io.load_dataset.records"] += report.n_loaded
    counts["io.load_dataset.rejected"] += len(report.rejected_lines)
    counts["io.bytes_read"] += _path_size(args)


def _count_written(args, result, counts):
    counts["io.bytes_written"] += _path_size(args)


def _count_pava(args, result, counts):
    counts["calibration.pava_points"] += len(args["pairs"])


#: span name -> (counter names, hook(arguments, result, counts)).  A hook
#: reads the call's bound arguments after the call returns.
COUNTERS = {
    "io.load_dataset": (("io.load_dataset.records", "io.load_dataset.rejected", "io.bytes_read"), _count_load),
    "io.save_dataset": (("io.bytes_written",), _count_written),
    "io.save_oracle_info": (("io.bytes_written",), _count_written),
    "io.emit_report": (("io.bytes_written",), _count_written),
    "calibration.pava_fit": (("calibration.pava_points",), _count_pava),
}

#: Arguments that arrive as one-shot iterators and are listed before the
#: span starts, so a hook can count them; the listing is tracing overhead.
LISTED_ARGS = {"calibration.pava_fit": "pairs"}


class Tracer:
    """Wraps the package's public functions and records spans and counters."""

    def __init__(self):
        self.spans: list = []
        self.wrapped: set[str] = set()
        self.counts: Counter = Counter()
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self.wrapped.add(name)
        counter = COUNTERS.get(name)
        listed = LISTED_ARGS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if listed is not None and listed in bound.arguments:
                    bound.arguments[listed] = list(bound.arguments[listed])
                args, kwargs = bound.args, bound.kwargs
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if signature is not None:
                self._count(counter, bound.arguments, result)
            return result

        return traced

    def _count(self, counter, arguments, result) -> None:
        keys, hook = counter
        try:
            hook(arguments, result, self.counts)
        except (KeyError, TypeError, ValueError, AttributeError, OSError):
            # the function's signature or result changed shape: report the
            # counter as absent instead of guessing
            self.broken_counters.update(keys)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def function_times(spans) -> Counter:
    """Inclusive time per span name, counting a recursive call only once."""
    totals: Counter = Counter()
    for name, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            totals[name] += end - start
    return totals


def span_metrics(spans, wrapped, counts, broken=()) -> dict:
    """Per-layer metrics from one traced run; absent functions are left out."""
    layer_self: defaultdict = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        layer_self[name.split(".", 1)[0]] += own
    layers_present = {name.split(".", 1)[0] for name in wrapped}
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer in layers_present}
    inclusive = function_times(spans)
    metrics.update({f"{name}.s": inclusive[name] for name in TIMED if name in wrapped})
    calls = Counter(name for name, *_ in spans)
    metrics.update({f"{name}.calls": calls[name] for name in CALLED if name in wrapped})
    for fn_name, (keys, _) in COUNTERS.items():
        if fn_name in wrapped:
            metrics.update({key: counts.get(key, 0) for key in keys if key not in broken})
    metrics["trace.spans"] = len(spans)
    return metrics
