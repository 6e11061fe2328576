"""Combining per-round forecasts into one predictive mean and variance.

Each imputation round yields a point forecast for every test hour and the
round's residual variance, one scalar shared by all of its test hours (for
kNN the leave-one-out residual variance of the round's training rows, see
``pvmi.pipeline``). :func:`rubin_pool` takes the B rounds as one stack: a
(B, hours) array whose row b holds round b's forecasts, and a (B,) array of
the round variances. The rounds are combined with the classic
multiple-imputation pooling rule: the pooled mean is the average of the
round means, the within variance is the average of the round variances, the
between variance is the sample variance of the round means, and the total
predictive variance is

    total = within + (1 + 1/B) * between

which reduces to the single-round variance when B == 1 (between is zero by
convention there).

Each hour's rounds are sorted and summed in that order, one elementwise
array pass per round (a numpy reduction over the round axis would sum a
(B, 1) stack pairwise once B >= 8, unlike a (B, n) one). So each pooled
moment is the same double for any order of the rounds (up to the sign of a
zero), an hour pooled alone equals the same hour inside a cell, and the
between variance is exactly 0 at B = 1 and wherever the rounds agree, whose
mean is then their common value (the sum of B equal doubles divided by B can
miss it by an ulp): a gap-free row keeps ``between_var == 0.0``.

:meth:`PooledPrediction.hours` gives ``run_pipeline``'s per-hour list, which
serves only the README quick start and the benchmark's long-record workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class PooledPrediction:
    """Pooled forecast across B rounds with its variance decomposition: one
    entry per hour in each moment, or one float in an entry of :meth:`hours`.
    Two are equal when each field is, by ``np.array_equal``."""

    mean: float | np.ndarray
    within_var: float | np.ndarray
    between_var: float | np.ndarray
    total_var: float | np.ndarray
    n_rounds: int

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PooledPrediction) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def hours(self) -> list[PooledPrediction]:
        """One scalar :class:`PooledPrediction` per hour of an array pooling."""
        b = self.n_rounds
        columns = (self.mean, self.within_var, self.between_var, self.total_var)
        return [PooledPrediction(*hour, b)
                for hour in zip(*(np.asarray(c).tolist() for c in columns))]


def rubin_pool(means: np.ndarray, variances: np.ndarray) -> PooledPrediction:
    """Pool B >= 1 rounds: row b of the (B, hours) ``means`` holds round b's
    forecast of every hour, ``variances[b]`` its residual variance."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if means.ndim != 2 or means.shape[0] == 0:
        raise ValueError(f"round means must be a (B, hours) stack with B >= 1, "
                         f"got shape {means.shape}")
    b = means.shape[0]
    if variances.shape != (b,):
        raise ValueError(f"need one variance per round ({b}), got shape {variances.shape}")
    if not (np.isfinite(means).all() and np.isfinite(variances).all()):
        raise ValueError("round means and variances must be finite")
    if np.any(variances < 0.0):
        raise ValueError("round variances must be >= 0")
    means = np.sort(means, axis=0)  # each hour's rounds in ascending order
    # the builtin sum adds the rows one after another, elementwise
    mean = sum(means[1:], means[0]) / b
    squares = sum(d * d for d in means - mean)
    agree = means[0] == means[-1]  # B = 1, or rounds that agree
    mean[agree] = means[0, agree]
    between = np.where(agree, 0.0, squares / max(b - 1, 1))
    within = math.fsum(variances.tolist()) / b
    total = within + (1.0 + 1.0 / b) * between
    return PooledPrediction(mean, np.full(mean.shape, within), between, total, n_rounds=b)
