"""Interval and point-forecast quality on the observed test hours.

Predictions align with the test series the same way the pipeline emits
them: entry ``i`` targets the power at test hour ``24 + i`` (0-based).
Hours whose target power is missing carry no usable truth, so they are
skipped; only mask==0 target hours are scored.

Coverage is the share of scored hours whose true power falls inside the
closed interval. NRMSE is the root mean squared error of the pooled means
over the scored hours, divided by the largest observed true power.

:func:`score` scores a cell's bound and mean arrays in one pass; the
experiment runner and its CSV re-aggregation both use it. :func:`coverage`,
:func:`nrmse` and :func:`evaluate` take per-hour lists of
:class:`PredictionInterval` and means, and are thin adapters over the same
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateNormalizationError, EmptyEvaluationError
from .features import WINDOW_HOURS
from .intervals import PredictionInterval
from .series import HourlySeries


@dataclass(frozen=True)
class EvalReport:
    """Headline numbers for one evaluated configuration."""

    coverage: float
    nrmse: float
    n_evaluated: int
    alpha: float
    mean_width: float  # over every target hour, observed or not


def score(lower: np.ndarray, upper: np.ndarray, means: np.ndarray, truth: np.ndarray,
          alpha: float) -> EvalReport:
    """Coverage, NRMSE, scored-hour count and mean width of one cell.

    ``truth[i]`` is the true power at the target hour of prediction ``i``,
    NaN where it is missing (see :func:`target_truths`); the four arrays
    have one entry per prediction.
    """
    lower, upper, means, truth = (np.asarray(a, dtype=float)
                                  for a in (lower, upper, means, truth))
    if not lower.shape == upper.shape == means.shape == truth.shape:
        raise ValueError("bounds, means and truths must have one entry per prediction")
    observed = _observed(truth)
    y = truth[observed]
    return EvalReport(
        coverage=_coverage(lower[observed], upper[observed], y),
        nrmse=_nrmse(means[observed], y),
        n_evaluated=int(y.size),
        alpha=alpha,
        mean_width=float(np.mean(upper - lower)),
    )


def target_truths(truths: HourlySeries, n_predictions: int) -> np.ndarray:
    """The true power at the target hour of each of ``n_predictions``
    predictions, NaN where it is missing."""
    expected = len(truths) - WINDOW_HOURS
    if n_predictions != expected:
        raise ValueError(
            f"prediction list has {n_predictions} entries but the test series "
            f"supports {expected}"
        )
    return truths.power[WINDOW_HOURS:]


def coverage(intervals: Sequence[PredictionInterval], truths: HourlySeries) -> float:
    """Fraction of observed test hours whose truth lies inside its interval."""
    truth = target_truths(truths, len(intervals))
    observed = _observed(truth)
    lower, upper = _bounds(intervals)
    return _coverage(lower[observed], upper[observed], truth[observed])


def nrmse(means: Sequence[float], truths: HourlySeries) -> float:
    """RMSE of the predictions over observed test hours, normalized by the
    largest observed true power."""
    truth = target_truths(truths, len(means))
    observed = _observed(truth)
    return _nrmse(np.asarray(means, dtype=float)[observed], truth[observed])


def evaluate(
    intervals: Sequence[PredictionInterval],
    means: Sequence[float],
    truths: HourlySeries,
    alpha: float,
) -> EvalReport:
    """:func:`score` for a list of intervals and a list of means."""
    return score(*_bounds(intervals), means, target_truths(truths, len(intervals)), alpha)


def _bounds(intervals: Sequence[PredictionInterval]) -> tuple[np.ndarray, np.ndarray]:
    lower = np.array([iv.lower for iv in intervals], dtype=float)
    upper = np.array([iv.upper for iv in intervals], dtype=float)
    return lower, upper


def _observed(truth: np.ndarray) -> np.ndarray:
    observed = ~np.isnan(truth)
    if not observed.any():
        raise EmptyEvaluationError("no observed target hours to evaluate on")
    return observed


def _coverage(lower: np.ndarray, upper: np.ndarray, y: np.ndarray) -> float:
    return int(np.count_nonzero((lower <= y) & (y <= upper))) / y.size


def _nrmse(pred: np.ndarray, y: np.ndarray) -> float:
    y_max = float(y.max())
    if y_max <= 0.0:
        raise DegenerateNormalizationError(
            "all observed test powers are zero; NRMSE is undefined"
        )
    rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
    return rmse / y_max
