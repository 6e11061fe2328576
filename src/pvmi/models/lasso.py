"""L1-penalized linear regression fitted by cyclic coordinate descent.

The objective is

    (1/(2N)) * ||y - X b - b0||^2 + lam * ||b||_1

on standardized features with an unpenalized intercept. Because the features
are centered, the optimal intercept is simply the target mean and stays
fixed while the coordinates are swept. Each sweep applies the closed-form
soft-threshold update per coordinate; iteration stops when no coefficient
moved by more than ``TOL`` or after ``MAX_SWEEPS`` sweeps, in which case the
final iterate is returned with ``converged=False``.
"""

from __future__ import annotations

import numpy as np

from .scaling import FeatureScaler

TOL = 1e-7
MAX_SWEEPS = 10_000


def soft_threshold(x: float, t: float) -> float:
    return np.sign(x) * max(abs(x) - t, 0.0)


class LassoRegressor:
    family = "lasso"

    def __init__(self, scaler: FeatureScaler, coef: np.ndarray, intercept: float,
                 lam: float, converged: bool, n_sweeps: int):
        self.scaler = scaler
        self.coef_ = coef
        self.intercept_ = float(intercept)
        self.lam = float(lam)
        self.converged = bool(converged)
        self.n_sweeps = int(n_sweeps)

    @classmethod
    def fit(cls, inputs: np.ndarray, targets: np.ndarray, lam: float = 0.0) -> "LassoRegressor":
        lam = float(lam)
        if lam < 0:
            raise ValueError(f"penalty must be non-negative, got {lam}")
        scaler = FeatureScaler.fit(inputs)
        xs = scaler.transform(inputs)
        n = xs.shape[0]
        y_mean = targets.mean()
        yc = targets - y_mean
        col_sq = (xs ** 2).mean(axis=0)  # curvature per coordinate
        coef = np.zeros(xs.shape[1])
        resid = yc.copy()

        converged = False
        sweep = 0
        for sweep in range(1, MAX_SWEEPS + 1):
            max_delta = 0.0
            for j in range(xs.shape[1]):
                if col_sq[j] == 0.0:
                    continue
                old = coef[j]
                rho = xs[:, j] @ resid / n + col_sq[j] * old
                new = soft_threshold(rho, lam) / col_sq[j]
                if new != old:
                    resid -= xs[:, j] * (new - old)
                    coef[j] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < TOL:
                converged = True
                break
        return cls(scaler, coef, y_mean, lam, converged, sweep)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.scaler.transform(np.atleast_2d(x)) @ self.coef_ + self.intercept_

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
    scaler = FeatureScaler.fit(inputs)
    xs = scaler.transform(inputs)
    yc = targets - targets.mean()
    return float(np.max(np.abs(xs.T @ yc)) / xs.shape[0])
