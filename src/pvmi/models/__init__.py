"""Point forecasters for the next-hour power target.

Three families are available, all consuming the 48-entry sliding-window
input and standardizing it internally:

``knn``
    mean target of the k nearest training rows (Euclidean distance),
    hyperparameters: ``k``; ``KNNRegressor.loo_residual_variance`` gives its
    exact leave-one-out residual variance.
``lasso``
    L1-penalized linear model solved exactly along its piecewise-linear
    path in the penalty, hyperparameters: ``lam`` (penalty).
``mlp``
    two-hidden-layer ReLU network trained with full-batch Adam,
    hyperparameters: ``hidden``, ``learning_rate``, ``iterations``.

``fit``/``residual_variance`` are the family-independent entry points, and
each fitted model's ``predict`` forecasts a batch of input rows;
``tune_chronological`` picks hyperparameters on expanding-window splits.
A family's hyperparameters are the keyword arguments of its
``hyperparameters`` staticmethod, whose signature holds their defaults and
whose body checks their types and ranges. Its ``fit`` and
:class:`RegressorSpec` both run it; only kNN's ``k <= n`` waits for the
fit's data. ``fit`` does not scan its input: a
:class:`~pvmi.features.SupervisedDataset` is finite by construction.

``residual_variance`` is the in-sample estimate. The pipeline takes it as the
round variance for lasso and MLP, but not for kNN, whose in-sample residuals
count each row as its own neighbour.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..errors import check_fields
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

_REGRESSORS = {"knn": KNNRegressor, "lasso": LassoRegressor, "mlp": MLPRegressor}
FAMILIES = tuple(_REGRESSORS)

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
    "residual_variance",
    "tune_chronological",
]


@dataclass(frozen=True)
class RegressorSpec:
    """A model family plus everything needed to refit it deterministically.

    ``hyperparameters`` is a mapping that may only name hyperparameters of
    the family, each with a value its ``hyperparameters`` rule accepts;
    anything else raises ``ValueError``. The given names are stored, as the
    values the rule returns.
    """

    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, seed=0)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not isinstance(self.hyperparameters, Mapping):
            raise ValueError("hyperparameters must be a mapping of names to values, "
                             f"got {self.hyperparameters!r}")
        rule = _REGRESSORS[self.family].hyperparameters
        known = set(inspect.signature(rule).parameters)
        unknown = sorted(set(self.hyperparameters) - known, key=str)
        if unknown:
            raise ValueError(
                f"unknown {self.family} hyperparameter(s) {unknown}, "
                f"expected some of {sorted(known)}"
            )
        checked = rule(**self.hyperparameters)
        object.__setattr__(self, "hyperparameters",
                           {name: checked[name] for name in self.hyperparameters})


def fit(spec: RegressorSpec, data: SupervisedDataset) -> TrainedModel:
    """Train one model of ``spec.family`` on ``data``.

    Training is deterministic: the same spec, data and seed always produce a
    model with identical predictions.
    """
    seed = {"seed": spec.seed} if spec.family == "mlp" else {}
    return _REGRESSORS[spec.family].fit(data.inputs, data.targets,
                                        **spec.hyperparameters, **seed)


def residual_variance(model: TrainedModel, data: SupervisedDataset) -> float:
    """Mean squared training residual: the ML estimate of the noise variance
    when predictions are treated as the conditional mean."""
    pred = model.predict(data.inputs)
    return float(np.mean((pred - data.targets) ** 2))

