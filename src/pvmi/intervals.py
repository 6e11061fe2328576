"""Two-sided prediction intervals and the special functions behind them.

Given a predictive mean and variance, an interval at miscoverage level
``alpha`` is cut either from a normal distribution or from a moment-matched
gamma distribution (shape = mean^2/variance, scale = variance/mean). The
gamma family respects the non-negativity of PV power; when the predictive
mean is non-positive the gamma interval degenerates to [0, 0].

The quantile functions are implemented here rather than imported: the
normal quantile uses a rational approximation polished by one Newton step
against the erf-based CDF, and the gamma quantile inverts the regularized
lower incomplete gamma function (power series below a+1, continued fraction
above) by Newton's method on log x, safeguarded by bisection inside a
bracket that two closed-form bounds give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# --------------------------------------------------------------------------
# normal CDF / inverse CDF

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Coefficients of the rational lower-tail/central approximations
# (Acklam's minimax fit, relative error ~1.15e-9 before refinement).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile for ``p`` in (0, 1).

    Evaluated on the lower half and reflected, so the symmetry
    ``inverse_normal_cdf(1 - p) == -inverse_normal_cdf(p)`` holds exactly.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if p <= 0.5:
        return _lower_quantile(p)
    return -_lower_quantile(1.0 - p)


def _lower_quantile(p: float) -> float:
    # rational approximation on (0, 0.5]
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    # one Newton step against the exact CDF
    pdf = normal_pdf(x)
    if pdf > 0.0:
        x -= (normal_cdf(x) - p) / pdf
    return x


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


def normal_interval(
    mean: float,
    variance: float,
    alpha: float,
    clip_at_zero: bool = False,
) -> PredictionInterval:
    """Central normal interval ``mean +- z_{1-alpha/2} * sqrt(variance)``.

    ``clip_at_zero`` optionally truncates the bounds at zero for reporting;
    it is off by default so the raw normal band is visible.
    """
    _check_alpha(alpha)
    if variance < 0.0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    z = inverse_normal_cdf(1.0 - alpha / 2.0)
    half = z * math.sqrt(variance)
    lower, upper = mean - half, mean + half
    if clip_at_zero:
        lower, upper = max(0.0, lower), max(0.0, upper)
    return PredictionInterval(lower, upper)


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
