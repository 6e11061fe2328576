"""Package-wide checks: the library imports with numpy alone, its frozen
dataclasses that hold arrays compare without raising, and every function the
benchmark's tracer patches by name exists."""

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
    PooledPrediction,
    SupervisedDataset,
    rubin_pool,
)
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


def test_the_benchmark_tracer_patches_names_that_exist():
    # perfbench/spans.py looks up pvmi functions and predict methods by name;
    # a deleted or renamed one breaks only the traced benchmark
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
        tracing.__enter__()
        during = _pvmi_bindings()
        assert [p for p in pinned if p not in before or during[p] is before[p]] == []
    finally:
        tracing.__exit__(None, None, None)
    after = _pvmi_bindings()
    assert [key for key, value in before.items() if after[key] is not value] == []
