"""Two-sided prediction intervals and the special functions behind them.

Given a predictive mean and variance, an interval at miscoverage level
``alpha`` is cut either from a normal distribution or from a moment-matched
gamma distribution (shape = mean^2/variance, scale = variance/mean). The
gamma family respects the non-negativity of PV power; when the predictive
mean is non-positive the gamma interval degenerates to [0, 0].

The normal CDF and quantile come from the standard library's
``statistics.NormalDist`` (the quantile is Wichura's AS 241). The gamma
quantile is implemented here: it inverts the regularized lower incomplete
gamma function (power series below a+1, continued fraction above) by
Newton's method on log x, safeguarded by bisection inside a bracket that two
closed-form bounds give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

# --------------------------------------------------------------------------
# normal CDF / inverse CDF

_NORMAL = NormalDist()


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the error function."""
    return _NORMAL.cdf(x)


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile for ``p`` in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    return _NORMAL.inv_cdf(p)


# --------------------------------------------------------------------------
# regularized lower incomplete gamma and its inverse

_GAMMA_EPS = 1e-15
_GAMMA_ITMAX = 10_000
_FPMIN = 1e-300
_LOG_TINY = math.log(math.ulp(0.0))  # log of the smallest positive double


def regularized_gamma_p(a: float, x: float) -> float:
    """P(a, x) = gamma(a, x) / Gamma(a), the CDF of Gamma(shape=a, scale=1)."""
    if a <= 0.0:
        raise ValueError(f"shape must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # modified Lentz evaluation of the continued fraction for Q(a, x)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_quantile(p: float, shape: float, scale: float) -> float:
    """Inverse gamma CDF: the x with ``P(shape, x / scale) == p``.

    Solved by Newton's method on t = log x, run to absolute tolerance 1e-8
    on the CDF value and safeguarded by bisection inside a bracket known in
    closed form. ``P(a, x) <= x^a / Gamma(a + 1)`` puts the quantile at or
    above the x where that bound equals ``p``; Cantelli's inequality (mean
    and variance ``a``) puts it at or below ``a + sqrt(a * p / (1 - p))``.
    A quantile below the smallest positive double (in x or in x * scale)
    comes out as ``math.ulp(0.0)``, not 0: the gamma law has no mass at 0.

    Raises
    ------
    ArithmeticError
        If the search does not converge.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if shape <= 0.0 or scale <= 0.0:
        raise ValueError("shape and scale must be positive")

    a = shape
    lgamma_a = math.lgamma(a)
    t_floor = _LOG_TINY + max(0.0, -math.log(scale))
    t_lo = max((math.log(p) + math.lgamma(a + 1.0)) / a, t_floor)
    t_hi = math.log(a + math.sqrt(a * p / (1.0 - p)))
    # Wilson-Hilferty start, unless it falls outside the bracket
    z = inverse_normal_cdf(p)
    g = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
    x = a * g * g * g
    t = math.log(x) if x > 0.0 else math.nan
    if not t_lo < t < t_hi:
        t = 0.5 * (t_lo + t_hi)
    tol = 1e-8
    for _ in range(200):
        x = math.exp(t)
        f = regularized_gamma_p(a, x) - p
        if abs(f) <= tol:
            return x * scale
        if f > 0.0:
            t_hi = t
        elif f < 0.0:
            t_lo = t
        else:
            break  # NaN
        dp_dt = math.exp(a * t - x - lgamma_a)  # x * pdf(x)
        t = t - f / dp_dt if dp_dt > 0.0 else math.nan
        if not t_lo < t < t_hi:
            t = 0.5 * (t_lo + t_hi)
            if t in (t_lo, t_hi):  # no double left inside the bracket
                return math.ulp(0.0) if t_lo == t_floor else math.exp(t_hi) * scale
    raise ArithmeticError(f"gamma quantile search failed (p={p}, shape={a})")


# --------------------------------------------------------------------------
# intervals

@dataclass(frozen=True)
class PredictionInterval:
    """Closed interval [lower, upper] for a future power value."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval bounds must not be NaN")
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def normal_interval(mean: float, variance: float, alpha: float) -> PredictionInterval:
    """Central normal interval ``mean +- z_{1-alpha/2} * sqrt(variance)``."""
    _check_alpha(alpha)
    if variance < 0.0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    z = inverse_normal_cdf(1.0 - alpha / 2.0)
    half = z * math.sqrt(variance)
    return PredictionInterval(mean - half, mean + half)


def gamma_interval(mean: float, variance: float, alpha: float) -> PredictionInterval:
    """Central interval from the gamma distribution matching (mean, variance).

    A non-positive mean cannot be matched by a gamma law, so the interval
    collapses to [0, 0]; zero variance collapses it to the point [mean, mean].
    """
    _check_alpha(alpha)
    if mean <= 0.0:
        return PredictionInterval(0.0, 0.0)
    if variance < 0.0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    if variance == 0.0:
        return PredictionInterval(mean, mean)
    shape, scale = gamma_shape_scale(mean, variance)
    return PredictionInterval(
        gamma_quantile(alpha / 2.0, shape, scale),
        gamma_quantile(1.0 - alpha / 2.0, shape, scale),
    )


def gamma_shape_scale(mean: float, variance: float) -> tuple[float, float]:
    """Moment matching: shape = mean^2/variance, scale = variance/mean."""
    if mean <= 0.0 or variance <= 0.0:
        raise ValueError("moment matching needs positive mean and variance")
    return mean * mean / variance, variance / mean


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
