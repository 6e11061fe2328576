"""Outside-in tracing: spans around the public functions of each pvmi layer.

The benchmark wraps functions from its own files; the package is not edited.
A ``from x import f`` copies the binding into the importing module, so each
function is replaced in every loaded ``pvmi`` module that holds it (found by
identity, which also catches aliases such as ``coverage as
coverage_metric``). Model ``predict`` is wrapped on the three regressor
classes. Lasso sweeps and convergence are read from the fitted models that
``fit`` returns.

Spans are kept in memory (name, start, end, parent, run id) and written out
when the traced job ends. A layer's busy time is the summed duration of its
outermost spans; its self time subtracts the part covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# Span name -> what it reports: its call count, its busy share (busy time
# over the traced job's wall time) and/or its self share. Times are reported
# as shares, not seconds: a layer a workload never calls would read 0 s on
# every run, and shares stay comparable when the host's speed drifts. The
# seconds are kept in the run's result file.
SPAN_METRICS = {
    "imputation.fit_sampler": ("calls", "busy"),
    "imputation.select_k": ("calls", "busy"),
    "imputation.complete_series": ("calls", "busy"),
    "features.build_training": ("calls", "busy"),
    "models.fit.knn": ("calls", "busy"),
    "models.fit.lasso": ("calls", "busy"),
    "models.fit.mlp": ("calls", "busy"),
    "models.tune": ("busy",),
    "models.predict": ("calls", "busy"),
    "models.residual_variance": ("calls", "busy"),
    "pipeline.run_pipeline": ("calls", "busy", "self"),
    "pooling.rubin_pool": ("calls", "busy"),
    "intervals.normal": ("calls", "busy"),
    "intervals.gamma": ("calls", "busy"),
    "metrics.coverage": ("busy",),
    "metrics.nrmse": ("busy",),
    "experiment.run": ("busy", "self"),
    "experiment.reaggregate": ("busy",),
    "synth.generate": ("busy",),
    "missingness.inject_missing": ("busy",),
}
_KIND = {"calls": ("calls", "count"), "busy": ("busy_share", "ratio"),
         "self": ("self_share", "ratio")}

# name, unit, better -- every per-layer metric, in report order
PER_LAYER = [
    (f"{span}.{_KIND[kind][0]}", _KIND[kind][1], "lower")
    for span, kinds in SPAN_METRICS.items() for kind in kinds
] + [
    ("imputation.pairs", "count", "lower"),
    ("imputation.filled_hours", "count", "lower"),
    ("features.rows", "count", "lower"),
    ("models.lasso.sweeps", "count", "lower"),
    ("models.lasso.converged_ratio", "ratio", "higher"),
    ("models.tune.fits", "count", "lower"),
    ("models.predict.rows", "count", "lower"),
    ("intervals.gamma_p_evals", "count", "lower"),
    ("experiment.bytes_written", "bytes", "lower"),
    ("experiment.cells", "count", "higher"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.blas_threads", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Recorder:
    """In-memory span store for one traced job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, fn, name, after=None):
        """``fn`` recorded as a span called ``name`` (a string, or a function
        of the call's arguments); ``after(counts, args, kwargs, result)``
        records counts once the call returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(self.spans)
            self.spans.append([label, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = perf_counter()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    def count_calls(self, fn, key):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    def layer_seconds(self) -> dict:
        """calls, busy and self seconds per span name; tune's fit count."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        tune_fits = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            ancestors = self._ancestor_names(parent)
            if name not in ancestors:
                busy[name] += end - start
            own[name] += (end - start) - child_time[i]
            if name.startswith("models.fit.") and "models.tune" in ancestors:
                tune_fits += 1
        return {"calls": calls, "busy": busy, "self": own, "tune_fits": tune_fits}

    def layer_metrics(self, job_seconds: float) -> dict:
        """Every per-layer metric the spans and counts give; times as shares
        of ``job_seconds``."""
        seconds = self.layer_seconds()
        out = {}
        for span, kinds in SPAN_METRICS.items():
            for kind in kinds:
                value = seconds[kind][span]
                out[f"{span}.{_KIND[kind][0]}"] = value if kind == "calls" else value / job_seconds
        lasso_fits = seconds["calls"]["models.fit.lasso"]
        c = self.counts
        out.update({
            "imputation.pairs": c["pairs"],
            "imputation.filled_hours": c["filled_hours"],
            "features.rows": c["rows"],
            "models.lasso.sweeps": c["lasso_sweeps"],
            "models.lasso.converged_ratio": c["lasso_converged"] / lasso_fits if lasso_fits else 0.0,
            "models.tune.fits": seconds["tune_fits"],
            "models.predict.rows": c["predict_rows"],
            "intervals.gamma_p_evals": c["gamma_p_evals"],
            "experiment.cells": c["cells"],
        })
        return out

    def _ancestor_names(self, parent: int) -> set:
        names = set()
        while parent >= 0:
            names.add(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names


# --------------------------------------------------------------------------
# count hooks, called after the wrapped function returned

def _pairs(counts, args, kwargs, sampler):
    counts["pairs"] = max(counts["pairs"], sampler.n_pairs)


def _filled(counts, args, kwargs, result):
    series = args[0] if args else kwargs["series"]
    counts["filled_hours"] += int(series.mask.sum())


def _rows(counts, args, kwargs, dataset):
    counts["rows"] += len(dataset)


def _lasso(counts, args, kwargs, model):
    if model.family == "lasso":
        counts["lasso_sweeps"] += model.n_sweeps
        counts["lasso_converged"] += int(model.converged)


def _predict_rows(counts, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    shape = getattr(x, "shape", ())
    counts["predict_rows"] += shape[0] if len(shape) == 2 else 1


def _cells(counts, args, kwargs, summary):
    counts["cells"] += len(summary["cells"])


def _fit_name(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"models.fit.{spec.family}"


# module, attribute, span name, count hook
FUNCTIONS = [
    ("pvmi.synth", "generate", "synth.generate", None),
    ("pvmi.missingness", "inject_missing", "missingness.inject_missing", None),
    ("pvmi.imputation", "fit_sampler", "imputation.fit_sampler", _pairs),
    ("pvmi.imputation", "select_k", "imputation.select_k", None),
    ("pvmi.imputation", "complete_series", "imputation.complete_series", _filled),
    ("pvmi.features", "build_training", "features.build_training", _rows),
    ("pvmi.models", "fit", _fit_name, _lasso),
    ("pvmi.models", "tune_chronological", "models.tune", None),
    ("pvmi.models", "residual_variance", "models.residual_variance", None),
    ("pvmi.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pvmi.pooling", "rubin_pool", "pooling.rubin_pool", None),
    ("pvmi.intervals", "normal_interval", "intervals.normal", None),
    ("pvmi.intervals", "gamma_interval", "intervals.gamma", None),
    ("pvmi.metrics", "coverage", "metrics.coverage", None),
    ("pvmi.metrics", "nrmse", "metrics.nrmse", None),
    ("pvmi.experiment", "run", "experiment.run", _cells),
    ("pvmi.experiment", "reaggregate", "experiment.reaggregate", None),
]
PREDICT_CLASSES = [
    ("pvmi.models.knn", "KNNRegressor"),
    ("pvmi.models.lasso", "LassoRegressor"),
    ("pvmi.models.mlp", "MLPRegressor"),
]
# called too often for a span each; only counted
COUNTED = [("pvmi.intervals", "regularized_gamma_p", "gamma_p_evals")]


class Tracing:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple] = []

    def __enter__(self) -> Recorder:
        rec = self.recorder
        for module, attr, name, after in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            self._replace_everywhere(original, rec.wrap(original, name, after))
        for module, attr, key in COUNTED:
            original = getattr(importlib.import_module(module), attr)
            self._replace_everywhere(original, rec.count_calls(original, key))
        for module, cls_name in PREDICT_CLASSES:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__["predict"]
            self._undo.append((cls, "predict", original))
            setattr(cls, "predict", rec.wrap(original, "models.predict", _predict_rows))
        return rec

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pvmi" and not mod_name.startswith("pvmi."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
