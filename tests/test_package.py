"""Package-wide checks: the library imports with numpy alone, its frozen
dataclasses that hold arrays compare without raising, and every function the
benchmark's tracer patches by name exists, with every attribute its count
hooks read."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pvmi import (
    ConditionalSampler,
    GroundTruth,
    MissingSpec,
    PooledPrediction,
    SupervisedDataset,
    SynthSpec,
    rubin_pool,
)
from pvmi.experiment import ExperimentConfig, ModelConfig
from pvmi.models.scaling import FeatureScaler
from tests.conftest import make_series

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
import pvmi
names = [m.name for m in pkgutil.walk_packages(pvmi.__path__, "pvmi.")]
for name in names:
    importlib.import_module(name)
print(len(names))
print(" ".join(sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "hypothesis", "pytest"})))
"""


def test_the_package_imports_with_numpy_alone():
    # a fresh interpreter: this process has pytest and hypothesis loaded
    out = subprocess.run([sys.executable, "-c", IMPORT_EVERY_MODULE], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    count, test_only = out.split("\n")[:2]
    assert int(count) >= 10  # every submodule, models among them
    assert test_only == ""


@pytest.mark.parametrize("make", [
    lambda: make_series([1.0, np.nan, 3.0], [0.1, 0.2, 0.3]),
    lambda: SupervisedDataset(np.zeros((2, 48)), np.ones(2)),
    lambda: rubin_pool(np.ones((2, 3)), np.ones(2)),
    lambda: FeatureScaler(np.zeros(3), np.ones(3)),
    lambda: ConditionalSampler(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 1),
    lambda: GroundTruth(np.array([1, 2]), np.array([3.0, 4.0])),
], ids=["HourlySeries", "SupervisedDataset", "PooledPrediction", "FeatureScaler",
        "ConditionalSampler", "GroundTruth"])
def test_dataclasses_holding_arrays_compare_without_raising(make):
    # the generated == compares array fields as a tuple and raises on their
    # elementwise truth value; a pooling compares field by field, the others
    # by identity
    a, b = make(), make()
    assert a == a
    assert (a == b) is isinstance(a, PooledPrediction)


def _pvmi_bindings():
    """Every module-level binding and ``predict`` method of the loaded pvmi
    modules, by (module, name)."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "pvmi" or name.startswith("pvmi."):
            for attr, value in vars(module).items():
                out[name, attr] = value
                if isinstance(value, type) and "predict" in vars(value):
                    out[name, f"{attr}.predict"] = vars(value)["predict"]
    return out


def _traced_run(tmp_path):
    """One small grid with gaps, kNN and a lasso with path steps, and one
    completion, each through the module binding that the tracer replaces."""
    gaps = dict(mode="target-fraction", target_fraction=0.15, block_len_hours=6)
    config = ExperimentConfig(
        data_csv=None, data_synth=SynthSpec(days=8, seed=3), test_len=72,
        model_configs=(ModelConfig("knn", {"k": 2}), ModelConfig("lasso", {"lam": 0.01})),
        setups=(1, 2), n_rounds=(2,), train_missing=MissingSpec(**gaps, seed=1),
        test_missing=MissingSpec(**gaps, seed=2), sampler_k=2)
    importlib.import_module("pvmi.experiment").run(config, tmp_path)
    imputation = importlib.import_module("pvmi.imputation")
    series = make_series([1.0, np.nan, 3.0, np.nan], [0.1, 0.2, 0.3, 0.4])
    imputation.complete_series(series, imputation.fit_sampler(series, k=1))


def test_the_benchmark_tracer_patches_names_that_exist(tmp_path):
    # perfbench/spans.py looks up pvmi functions and predict methods by name,
    # and its count hooks read attributes that nothing in src/ reads (the
    # sampler's n_pairs, the lasso's converged and n_sweeps); a deleted or
    # renamed one breaks only the traced benchmark
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pinned = [(m, a) for m, a, *_ in spans.FUNCTIONS + spans.COUNTED]
    pinned += [(m, f"{c}.predict") for m, c in spans.PREDICT_CLASSES]
    for module, _ in pinned:
        importlib.import_module(module)
    before = _pvmi_bindings()
    tracing = spans.Tracing(spans.Recorder("guard"))
    try:
        recorder = tracing.__enter__()
        during = _pvmi_bindings()
        assert [p for p in pinned if p not in before or during[p] is before[p]] == []
        _traced_run(tmp_path)
        counts = ("pairs", "rows", "predict_rows", "lasso_sweeps", "cells", "filled_hours")
        assert [c for c in counts if not recorder.counts[c] > 0] == []
        recorder.layer_metrics(1.0)
    finally:
        tracing.__exit__(None, None, None)
    after = _pvmi_bindings()
    assert [key for key, value in before.items() if after[key] is not value] == []
