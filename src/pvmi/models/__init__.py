"""Point forecasters for the next-hour power target.

Three families are available, all consuming the 48-entry sliding-window
input and standardizing it internally:

``knn``
    mean target of the k nearest training rows (Euclidean distance),
    hyperparameters: ``k``; ``KNNRegressor.loo_residual_variance`` gives its
    exact leave-one-out residual variance.
``lasso``
    L1-penalized linear model fitted by cyclic coordinate descent,
    hyperparameters: ``lam`` (penalty), optional ``tol``/``max_sweeps``.
``mlp``
    two-hidden-layer ReLU network trained with full-batch Adam,
    hyperparameters: ``hidden``, ``learning_rate``, ``iterations``.

``fit``/``residual_variance`` are the family-independent entry points, and
each fitted model's ``predict`` forecasts a batch of input rows;
``tune_chronological`` picks hyperparameters on expanding-window splits;
``save_model``/``load_model`` round-trip a fitted model through a versioned
JSON document.

``residual_variance`` is the in-sample estimate. The pipeline takes it as the
round variance for lasso and MLP, but not for kNN, whose in-sample residuals
count each row as its own neighbour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..features import SupervisedDataset
from .knn import KNNRegressor
from .lasso import LassoRegressor, lambda_max
from .mlp import MLPRegressor
from .scaling import FeatureScaler
from .tuning import (
    default_knn_grid,
    default_lasso_grid,
    expanding_window_folds,
    tune_chronological,
)

FAMILIES = ("knn", "lasso", "mlp")
_MODEL_SCHEMA_VERSION = 1

TrainedModel = KNNRegressor | LassoRegressor | MLPRegressor

__all__ = [
    "FAMILIES",
    "FeatureScaler",
    "KNNRegressor",
    "LassoRegressor",
    "MLPRegressor",
    "RegressorSpec",
    "TrainedModel",
    "default_knn_grid",
    "default_lasso_grid",
    "expanding_window_folds",
    "fit",
    "lambda_max",
    "load_model",
    "residual_variance",
    "save_model",
    "tune_chronological",
]


@dataclass(frozen=True)
class RegressorSpec:
    """A model family plus everything needed to refit it deterministically."""

    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))


def fit(spec: RegressorSpec, data: SupervisedDataset) -> TrainedModel:
    """Train one model of ``spec.family`` on ``data``.

    Training is deterministic: the same spec, data and seed always produce a
    model with identical predictions.
    """
    _check_finite(data)
    hp = spec.hyperparameters
    if spec.family == "knn":
        return KNNRegressor.fit(data.inputs, data.targets, k=int(hp.get("k", 8)))
    if spec.family == "lasso":
        return LassoRegressor.fit(
            data.inputs,
            data.targets,
            lam=float(hp.get("lam", 0.0)),
            tol=float(hp.get("tol", 1e-7)),
            max_sweeps=int(hp.get("max_sweeps", 10_000)),
        )
    return MLPRegressor.fit(
        data.inputs,
        data.targets,
        hidden=tuple(hp.get("hidden", (100, 50))),
        learning_rate=float(hp.get("learning_rate", 1e-3)),
        iterations=int(hp.get("iterations", 1000)),
        seed=spec.seed,
    )


def residual_variance(model: TrainedModel, data: SupervisedDataset) -> float:
    """Mean squared training residual: the ML estimate of the noise variance
    when predictions are treated as the conditional mean."""
    _check_finite(data)
    pred = model.predict(data.inputs)
    return float(np.mean((pred - data.targets) ** 2))


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "schema_version": _MODEL_SCHEMA_VERSION,
        "family": model.family,
        "scaler": model.scaler.to_json(),
        "fitted": model.to_json(),
    }
    Path(path).write_text(json.dumps(doc))


def load_model(path: str | Path) -> TrainedModel:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema_version") != _MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema {doc.get('schema_version')!r}")
    scaler = FeatureScaler.from_json(doc["scaler"])
    family = doc["family"]
    if family == "knn":
        return KNNRegressor.from_json(doc["fitted"], scaler)
    if family == "lasso":
        return LassoRegressor.from_json(doc["fitted"], scaler)
    if family == "mlp":
        return MLPRegressor.from_json(doc["fitted"], scaler)
    raise ValueError(f"unknown family {family!r}")


def _check_finite(data: SupervisedDataset) -> None:
    if not np.all(np.isfinite(data.inputs)) or not np.all(np.isfinite(data.targets)):
        raise DataError("supervised data contains NaN or infinite values")
