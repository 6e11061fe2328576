"""Hyperparameter search with expanding-window (chronological) validation.

Rows of a supervised dataset are ordered in time, so random CV folds would
leak future information. Instead the row range is cut into ``folds + 1``
equal slices: fold ``i`` trains on the first ``i`` slices and validates on
slice ``i + 1``. A candidate's score is its mean validation MSE across
folds; the earliest candidate in the grid wins ties.
"""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientDataError, check
from ..features import SupervisedDataset

KNN_GRID_STEPS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 500)
LASSO_GRID_SIZE = 20
LASSO_GRID_RATIO = 1e-4


def expanding_window_folds(n: int, folds: int) -> list[tuple[int, int]]:
    """(train_end, val_end) row bounds per fold; train is [0, train_end),
    validation is [train_end, val_end)."""
    folds = check("folds", folds, int, 1)
    bounds = [(i * n) // (folds + 1) for i in range(folds + 2)]
    out = []
    for i in range(1, folds + 1):
        train_end, val_end = bounds[i], bounds[i + 1]
        if train_end == 0 or val_end == train_end:
            raise InsufficientDataError(
                f"{n} rows cannot support {folds} expanding-window folds"
            )
        out.append((train_end, val_end))
    return out


def tune_chronological(family: str, data: SupervisedDataset, grid, folds: int,
                       seed: int = 0):
    """Return the RegressorSpec from ``grid`` with the best expanding-window MSE.

    ``grid`` is a sequence of hyperparameter mappings for ``family``, and
    ``folds`` an integer >= 1 whatever the grid. A single-entry grid
    short-circuits the fold loop and is returned as-is.
    """
    from . import RegressorSpec, fit  # local import to avoid a cycle

    folds = check("folds", folds, int, 1)
    grid = [dict(g) for g in grid]
    if not grid:
        raise ValueError("grid must contain at least one candidate")
    specs = [RegressorSpec(family=family, hyperparameters=g, seed=seed) for g in grid]
    if len(specs) == 1:
        return specs[0]

    # (train view, validation inputs, validation targets) per fold; the
    # dataset's arrays are read-only, so views need no copy
    splits = [
        (
            SupervisedDataset(
                inputs=data.inputs[:train_end],
                targets=data.targets[:train_end],
            ),
            data.inputs[train_end:val_end],
            data.targets[train_end:val_end],
        )
        for train_end, val_end in expanding_window_folds(len(data), folds)
    ]
    scores = []
    for spec in specs:
        fold_mse = [
            float(np.mean((fit(spec, train).predict(val_x) - val_y) ** 2))
            for train, val_x, val_y in splits
        ]
        scores.append(sum(fold_mse) / len(fold_mse))

    best = 0
    for i in range(1, len(specs)):
        if scores[i] < scores[best]:
            best = i
    return specs[best]


def default_knn_grid(max_k: int) -> list[dict]:
    """Geometric ladder of neighbourhood sizes, capped at ``max_k``."""
    return [{"k": v} for v in KNN_GRID_STEPS if v <= max_k]


def default_lasso_grid(data: SupervisedDataset) -> list[dict]:
    """20 log-spaced penalties from lambda_max down by four decades."""
    from .lasso import lambda_max

    top = lambda_max(data.inputs, data.targets)
    if top <= 0:
        return [{"lam": 0.0}]
    lams = np.geomspace(top, top * LASSO_GRID_RATIO, LASSO_GRID_SIZE)
    return [{"lam": float(l)} for l in lams]
