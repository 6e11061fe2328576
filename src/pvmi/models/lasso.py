"""L1-penalized linear regression, solved exactly along the lasso path.

The objective is

    (1/(2N)) * ||y - X b - b0||^2 + lam * ||b||_1

on standardized features with an unpenalized intercept. Because the features
are centered, the optimal intercept is the target mean, and the coefficients
depend on the data only through the Gram matrix ``G = XsᵀXs/N`` and the
correlations ``c = Xsᵀ(y - ȳ)/N``. The solution is piecewise linear in the
penalty (Osborne, Presnell & Turlach 2000; Efron et al. 2004, *Least Angle
Regression* §3.1). The path starts at ``lambda_max = max|c|`` with no active
feature. Each step moves the active coefficients along ``G_AA⁻¹ s_A`` (``s``
the active signs) until a feature joins, an active coefficient reaches zero
and leaves, or the penalty reaches ``lam``. One solve of
``G_AA b_A = c_A - lam s_A`` on the final active set gives the coefficients.

Constant features never join. Nor does a feature whose standardized column
lies in the span of the active ones (a duplicate, or any feature once the
active columns span the data): it cannot change the fit. At ``lam = 0`` the
fit is least squares on every non-constant feature, so a collinear design
there raises :class:`CollinearDesignError`, as does a path that does not
reach ``lam`` within ``MAX_STEPS_PER_FEATURE`` steps per feature.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CollinearDesignError, check
from .scaling import FeatureScaler

# A standardized column counts as collinear with others when they explain
# all but this share of its variance.
COLLINEAR = 1e-10
MAX_STEPS_PER_FEATURE = 20


class LassoRegressor:
    family = "lasso"

    def __init__(self, scaler: FeatureScaler, coef: np.ndarray, intercept: float,
                 lam: float, n_sweeps: int):
        self.scaler = scaler
        self.coef_ = coef
        self.intercept_ = float(intercept)
        self.lam = float(lam)
        self.converged = True  # the path reaches lam or raises
        self.n_sweeps = int(n_sweeps)  # path steps

    @classmethod
    def fit(cls, inputs: np.ndarray, targets: np.ndarray, lam: float = 0.0) -> "LassoRegressor":
        lam = check("lam", lam, float)
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be non-negative and finite, got {lam}")
        scaler, xs, c = _standardize(inputs, targets)
        gram = xs.T @ xs / xs.shape[0]
        usable = np.ptp(inputs, axis=0) > 0
        if lam == 0:
            active, sign, steps = np.flatnonzero(usable), np.zeros(usable.sum()), 0
        else:
            active, sign, steps = _path(gram, c, lam, usable)
        coef = np.zeros(len(c))
        coef[active] = _solve(gram[np.ix_(active, active)], c[active] - lam * sign)
        return cls(scaler, coef, targets.mean(), lam, steps)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The linear forecast of each query row; a NaN or infinite entry
        raises ``DataError``."""
        return self.scaler.transform_queries(x) @ self.coef_ + self.intercept_

    def kkt_violation(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Largest stationarity residual at the fitted coefficients.

        For zero coefficients the subgradient condition allows the loss
        gradient anything up to ``lam`` in magnitude; any excess counts as
        violation. Nonzero coefficients must satisfy
        ``gradient + lam * sign(coef) == 0``.
        """
        xs = self.scaler.transform(inputs)
        resid = targets - self.intercept_ - xs @ self.coef_
        grad = -(xs.T @ resid) / xs.shape[0]
        worst = abs(float(resid.mean()))  # intercept stationarity
        for j, c in enumerate(self.coef_):
            if c == 0.0:
                worst = max(worst, abs(grad[j]) - self.lam)
            else:
                worst = max(worst, abs(grad[j] + self.lam * np.sign(c)))
        return worst


def lambda_max(inputs: np.ndarray, targets: np.ndarray) -> float:
    """Smallest penalty for which every coefficient is zero."""
    return float(np.max(np.abs(_standardize(inputs, targets)[2])))


def _standardize(inputs: np.ndarray, targets: np.ndarray):
    """The fitted scaler, the standardized inputs and their correlations
    ``c`` with the centered targets."""
    scaler = FeatureScaler.fit(inputs)
    xs = scaler.transform(inputs)
    return scaler, xs, xs.T @ (targets - targets.mean()) / xs.shape[0]


def _path(gram: np.ndarray, c: np.ndarray, lam: float, usable: np.ndarray):
    """Active features, their signs and the steps taken when the path from
    ``lambda_max`` down to ``lam > 0`` ends."""
    active = np.zeros(0, dtype=int)
    sign = np.zeros(0)
    coef = np.zeros(0)
    corr = c.copy()  # c - G b: equals level * sign on the active set
    level = max(np.max(np.abs(c[usable]), initial=0.0), lam)
    var = np.diag(gram)
    dropped, dropped_sign = -1, 0.0
    for step in range(MAX_STEPS_PER_FEATURE * len(c) + 1):
        rows = gram[active]
        try:
            sol = np.linalg.solve(rows[:, active], np.column_stack([sign, rows]))
        except np.linalg.LinAlgError:
            raise CollinearDesignError("the lasso path met linearly dependent "
                                       "active features") from None
        d = sol[:, 0]
        a = d @ rows  # rate at which each correlation falls with the penalty
        free = usable & (var - np.einsum("kj,kj->j", rows, sol[:, 1:]) > COLLINEAR)
        free[active] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(a < 1, np.maximum(level - corr, 0) / (1 - a), np.inf)
            down = np.where(a > -1, np.maximum(level + corr, 0) / (1 + a), np.inf)
            leave = np.where(sign * d < 0, np.maximum(-coef / d, 0), np.inf)
        if dropped_sign:
            # it left from this side, so it can only return from the other;
            # rounding must not let it straight back in
            (up if dropped_sign > 0 else down)[dropped] = np.inf
        join = np.where(free, np.minimum(up, down), np.inf)
        j = int(np.argmin(join))
        delta = min(level - lam, join[j], np.min(leave, initial=np.inf))
        if delta == level - lam:
            return active, sign, step
        coef, corr, level = coef + delta * d, corr - delta * a, level - delta
        if delta == join[j]:
            active, sign = np.append(active, j), np.append(sign, 1.0 if up[j] <= down[j] else -1.0)
            coef, dropped_sign = np.append(coef, 0.0), 0.0
        else:
            k = int(np.argmin(leave))
            dropped, dropped_sign = active[k], sign[k]
            active, sign, coef = np.delete(active, k), np.delete(sign, k), np.delete(coef, k)
    raise CollinearDesignError(
        f"the lasso path did not reach lam={lam} in {step} steps; tied features "
        "keep trading places"
    )


def _solve(gram_aa: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram_aa x = rhs``, or raise CollinearDesignError when a column
    of the active features lies in the span of the others. Only least
    squares can meet that: the path admits no such feature."""
    try:
        pivots = np.diag(np.linalg.cholesky(gram_aa)) ** 2
    except np.linalg.LinAlgError:
        pivots = np.zeros(1)
    if np.any(pivots <= COLLINEAR):
        raise CollinearDesignError(
            "the standardized features are linearly dependent, so least squares "
            "(lam = 0) has no unique solution; use a positive penalty"
        )
    return np.linalg.solve(gram_aa, rhs)
