"""Sliding-window supervised layout for one-hour-ahead forecasting.

The input for hour ``t`` interleaves the last 24 hours of power and
irradiance, most recent first:

    x_t = (P_t, I_t, P_{t-1}, I_{t-1}, ..., P_{t-23}, I_{t-23})   in R^48

and the target is the next hour's power ``y_t = P_{t+1}``. With 0-based
hour indices the valid positions are ``t = 23 .. T-2``, giving ``N = T - 24``
rows in time order: row ``i`` belongs to hour ``23 + i`` and predicts the
power at hour ``24 + i``. The layout requires a fully observed series, so any
missing hours must be imputed first, and a dataset is finite: its
constructor rejects NaN and infinite entries, so the models never scan for
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, IncompleteDataError, InsufficientDataError
from .series import HourlySeries

WINDOW_HOURS = 24
N_FEATURES = 2 * WINDOW_HOURS


@dataclass(frozen=True, eq=False)
class SupervisedDataset:
    """Aligned (inputs, targets) arrays, one row per window in time order.

    ``inputs`` has shape (N, 48) and ``targets`` shape (N,); every entry
    is finite.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.ndim != 2 or self.inputs.shape[1] != N_FEATURES:
            raise ValueError(f"inputs must have shape (N, {N_FEATURES})")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("targets must align with inputs")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise DataError("supervised data contains NaN or infinite values")
        for arr in (self.inputs, self.targets):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


def build_training(series: HourlySeries) -> SupervisedDataset:
    """All sliding-window rows of a fully observed series.

    Raises
    ------
    IncompleteDataError
        If the series still contains missing power values.
    InsufficientDataError
        If fewer than 25 hours are available (no complete window + target).
    """
    if series.mask.any():
        raise IncompleteDataError(
            f"{series.n_missing()} missing hours: impute before building windows"
        )
    t_total = len(series)
    n = t_total - WINDOW_HOURS
    if n < 1:
        raise InsufficientDataError(
            f"need at least {WINDOW_HOURS + 1} hours, got {t_total}"
        )
    x = np.empty((n, N_FEATURES))
    for lag in range(WINDOW_HOURS):
        start = WINDOW_HOURS - 1 - lag
        x[:, 2 * lag] = series.power[start : start + n]
        x[:, 2 * lag + 1] = series.irradiance[start : start + n]
    y = series.power[WINDOW_HOURS:].copy()
    return SupervisedDataset(inputs=x, targets=y)
