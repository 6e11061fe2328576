"""Combining per-round forecasts into one predictive mean and variance.

Each imputation round yields a point forecast for every test hour and the
round's residual variance, one scalar shared by all of its test hours (for
kNN the leave-one-out residual variance of the round's training rows, see
``pvmi.pipeline``). A :class:`RoundPrediction`'s mean is either one float
(one hour) or a 1-D array with one forecast per test hour; the pipeline pools
a whole cell's hours in one :func:`rubin_pool` call. The rounds are combined
with the classic multiple-imputation pooling rule: the pooled mean is the
average of the round means, the within variance is the average of the round
variances, the between variance is the sample variance of the round means,
and the total predictive variance is

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RoundPrediction:
    """Forecast of one imputation round: a point value (a float, or one per
    test hour in a 1-D array) plus the round's residual variance."""

    mean: float | np.ndarray
    variance: float

    def __post_init__(self) -> None:
        if np.ndim(self.mean) > 1:
            raise ValueError("a round mean is a float or a 1-D array of hours")
        if not np.isfinite(self.mean).all() or not math.isfinite(self.variance):
            raise ValueError("round mean and variance must be finite")
        if self.variance < 0.0:
            raise ValueError(f"round variance must be >= 0, got {self.variance}")


@dataclass(frozen=True)
class PooledPrediction:
    """Pooled forecast across B rounds with its variance decomposition; each
    moment has the shape of a round mean."""

    mean: float | np.ndarray
    within_var: float | np.ndarray
    between_var: float | np.ndarray
    total_var: float | np.ndarray
    n_rounds: int

    def hours(self) -> list[PooledPrediction]:
        """One scalar :class:`PooledPrediction` per hour of an array pooling."""
        b = self.n_rounds
        columns = (self.mean, self.within_var, self.between_var, self.total_var)
        return [PooledPrediction(*hour, b)
                for hour in zip(*(np.asarray(c).tolist() for c in columns))]


def rubin_pool(rounds: Sequence[RoundPrediction]) -> PooledPrediction:
    """Pool B >= 1 round predictions of one test hour, or of every hour of a
    cell when the round means are arrays."""
    b = len(rounds)
    if b == 0:
        raise ValueError("cannot pool an empty list of rounds")
    stack = np.array([r.mean for r in rounds], dtype=float)
    means = np.sort(stack.reshape(b, -1), axis=0)  # (B, hours), each hour sorted
    # the builtin sum adds the rows one after another, elementwise
    mean = sum(means[1:], means[0]) / b
    squares = sum(d * d for d in means - mean)
    agree = means[0] == means[-1]  # B = 1, or rounds that agree
    mean[agree] = means[0, agree]
    between = np.where(agree, 0.0, squares / max(b - 1, 1))
    within = math.fsum(r.variance for r in rounds) / b
    total = within + (1.0 + 1.0 / b) * between
    if stack.ndim == 1:  # float rounds come back as floats
        mean, between, total = float(mean[0]), float(between[0]), float(total[0])
    else:
        within = np.full(mean.shape, within)
    return PooledPrediction(mean, within, between, total, n_rounds=b)
