"""Package-wide checks: the library imports with numpy alone, and its frozen
dataclasses that hold arrays compare without raising."""

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

SRC = Path(__file__).resolve().parent.parent / "src"

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
