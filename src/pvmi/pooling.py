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

Every sum is exactly rounded (``math.fsum``, per hour over the B round means
and their squared deviations), so each pooled moment is invariant under any
permutation of the rounds, bit for bit, and an hour pooled in an array equals
the same hour pooled alone. The deviations are squared with Python's
``** 2`` on floats: numpy's ``d ** 2`` computes ``d * d``, which rounds
differently from ``pow`` for some doubles. Rounds whose means are all the
same double pool to that double with a between variance of exactly 0: the
exactly rounded sum of B equal doubles divided by B can miss it by an ulp.
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
        finite = (math.isfinite(self.mean) if np.ndim(self.mean) == 0
                  else bool(np.isfinite(self.mean).all()))
        if not finite or not math.isfinite(self.variance):
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
    within = math.fsum(r.variance for r in rounds) / b
    if np.ndim(rounds[0].mean) == 0:
        mean, between = _pool_hour([r.mean for r in rounds])
    else:
        columns = np.stack([r.mean for r in rounds]).T.tolist()  # one list per hour
        hours = np.array([_pool_hour(col) for col in columns]).reshape(-1, 2)
        mean, between = hours[:, 0].copy(), hours[:, 1].copy()
        within = np.full(mean.shape, within)
    total = within + (1.0 + 1.0 / b) * between
    return PooledPrediction(
        mean=mean,
        within_var=within,
        between_var=between,
        total_var=total,
        n_rounds=b,
    )


def _pool_hour(means: list[float]) -> tuple[float, float]:
    """Mean and between-round variance of one hour's round means."""
    if min(means) == max(means):  # B = 1, or rounds that agree
        return float(means[0]), 0.0
    b = len(means)
    mean = math.fsum(means) / b
    return mean, math.fsum([(m - mean) ** 2 for m in means]) / (b - 1)
