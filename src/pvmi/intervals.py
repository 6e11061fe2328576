"""Two-sided prediction intervals and the special functions behind them.

Given a predictive mean and variance, an interval at miscoverage level
``alpha`` is cut either from a normal distribution or from a moment-matched
gamma distribution (shape = mean^2/variance, scale = variance/mean). The
gamma family respects the non-negativity of PV power; when the predictive
mean is non-positive the gamma interval degenerates to [0, 0].

The normal quantile comes from the standard library's
``statistics.NormalDist`` (Wichura's AS 241). The gamma
quantile is implemented here: it inverts the regularized lower incomplete
gamma function (power series below a+1, continued fraction above) by
Newton's method on log x, safeguarded by bisection inside a bracket that two
closed-form bounds give.

Two layers share these algorithms. The array kernels :func:`normal_bounds`
and :func:`gamma_bounds` cut every hour of a cell in one call; the
experiment grid, the acceptance criteria and the demos use them. They run
the scalar algorithm elementwise, iterating the series, the continued
fraction and the Newton steps only over the elements still active, and call
the same libm ``exp``, ``log`` and ``lgamma`` through ``math`` (numpy's SIMD
``exp``/``log`` round differently). Every other step is an IEEE-exact array
operation, so each array bound equals the scalar function's bit for bit.
The scalar functions (:func:`normal_interval`, :func:`gamma_interval`,
:func:`gamma_quantile`, :func:`regularized_gamma_p`) cut one hour's
interval; they serve only the README quick start and the benchmark's
long-record workload, and are the kernels' test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# --------------------------------------------------------------------------
# normal quantile

_NORMAL = NormalDist()


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
_SHAPE_SCALE_RULE = "shape and scale must be positive and finite"
_GAMMA_PIECE = 2048


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
    Where the lower end of the bracket is that floor and the CDF there
    already exceeds ``p`` by more than the tolerance, every t inside the
    bracket does too, so the search could only end at the floor: the
    quantile is returned as ``math.ulp(0.0)`` after that one evaluation.

    Raises
    ------
    ValueError
        If ``shape`` or ``scale`` is 0, negative or infinite (moment matching
        gives 0 or inf at the edge of the double range).
    ArithmeticError
        If the search does not converge.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if shape <= 0.0 or scale <= 0.0 or math.inf in (shape, scale):
        raise ValueError(_SHAPE_SCALE_RULE)

    a = shape
    lgamma_a = math.lgamma(a)
    t_floor = _LOG_TINY + max(0.0, -math.log(scale))
    t_lo = max((math.log(p) + math.lgamma(a + 1.0)) / a, t_floor)
    t_hi = math.log(a + math.sqrt(a * p / (1.0 - p)))
    tol = 1e-8
    if t_lo == t_floor and regularized_gamma_p(a, math.exp(t_floor)) - p > tol:
        return math.ulp(0.0)  # f > tol on all the bracket: the search would end here
    # Wilson-Hilferty start, unless it falls outside the bracket
    z = inverse_normal_cdf(p)
    g = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
    x = a * g * g * g
    t = math.log(x) if x > 0.0 else math.nan
    if not t_lo < t < t_hi:
        t = 0.5 * (t_lo + t_hi)
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
    shape, scale = mean * mean / variance, variance / mean  # moment matching
    return PredictionInterval(
        gamma_quantile(alpha / 2.0, shape, scale),
        gamma_quantile(1.0 - alpha / 2.0, shape, scale),
    )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")


# --------------------------------------------------------------------------
# array kernels: the scalar algorithms above, elementwise over a cell's hours

def normal_bounds(mean: np.ndarray, variance: np.ndarray, alpha: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of :func:`normal_interval` for every element."""
    _check_alpha(alpha)
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0.0):
        raise ValueError("variance must be non-negative")
    half = inverse_normal_cdf(1.0 - alpha / 2.0) * np.sqrt(variance)
    return _checked(mean - half, mean + half)


def gamma_bounds(mean: np.ndarray, variance: np.ndarray, alpha: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of :func:`gamma_interval` for every element:
    [0, 0] where ``mean <= 0``, [mean, mean] where the variance is 0, the
    gamma quantiles elsewhere.

    Raises
    ------
    ValueError
        If the match of any element gives a shape or scale of 0 or inf.
    ArithmeticError
        If the quantile search of any element does not converge.
    """
    _check_alpha(alpha)
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    positive = ~(mean <= 0.0)  # a NaN mean fails the search, as in gamma_interval
    if np.any(variance[positive] < 0.0):
        raise ValueError("variance must be non-negative")
    lower = np.where(positive, mean, 0.0)
    upper = lower.copy()
    cut = positive & (variance != 0.0)
    m, v = mean[cut], variance[cut]
    with np.errstate(over="ignore"):  # an infinite shape is rejected below
        shape, scale = m * m / v, v / m  # as in gamma_interval
    n = shape.size
    q = _gamma_quantiles(np.repeat([alpha / 2.0, 1.0 - alpha / 2.0], n),
                         np.tile(shape, 2), np.tile(scale, 2))
    lower[cut], upper[cut] = q[:n], q[n:]
    return _checked(lower, upper)


# each interval family the experiment grid can score, with its array kernel
INTERVAL_FAMILIES = {"normal": normal_bounds, "gamma": gamma_bounds}


def _checked(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checks of :class:`PredictionInterval`, for arrays of bounds."""
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("interval bounds must not be NaN")
    if np.any(lower > upper):
        raise ValueError("a lower bound exceeds its upper bound")
    return lower, upper


def _libm(fn, v: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` applied to every element of ``v``."""
    return np.fromiter(map(fn, v.tolist()), float, v.size)


def _gamma_quantiles(p: np.ndarray, a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """:func:`gamma_quantile` for every element of the equal-length arrays
    ``p`` (in (0, 1)), ``a`` and ``scale``, with its errors. The elements go
    through the search in pieces of ``_GAMMA_PIECE``, in order of shape so
    that a piece holds elements of like iteration counts. The search is
    elementwise, so the pieces change no bit; they bound its working set,
    about fifteen float arrays and a few lists of Python floats of a piece's
    length."""
    if np.any((a <= 0.0) | (scale <= 0.0) | (a == math.inf) | (scale == math.inf)):
        raise ValueError(_SHAPE_SCALE_RULE)
    out = np.empty(a.size)
    order = np.argsort(a, kind="stable")
    for s in range(0, a.size, _GAMMA_PIECE):
        piece = order[s:s + _GAMMA_PIECE]
        out[piece] = _gamma_quantile_piece(p[piece], a[piece], scale[piece])
    return out


def _gamma_quantile_piece(p: np.ndarray, a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """:func:`_gamma_quantiles` for checked shapes and scales."""
    n = a.size
    lgamma_a = _libm(math.lgamma, a)
    t_floor = _LOG_TINY + np.maximum(0.0, -_libm(math.log, scale))
    t_lo = np.maximum((_libm(math.log, p) + _libm(math.lgamma, a + 1.0)) / a, t_floor)
    t_hi = _libm(math.log, a + np.sqrt(a * p / (1.0 - p)))
    out = np.empty(n)
    tol = 1e-8
    # the underflow check of gamma_quantile: these end at ulp(0.0) at once
    floor = t_lo == t_floor
    under = np.zeros(n, dtype=bool)
    under[floor] = _regularized_gamma_p(a[floor], _libm(math.exp, t_floor[floor]),
                                        lgamma_a[floor]) - p[floor] > tol
    out[under] = math.ulp(0.0)
    idx = np.flatnonzero(~under)  # the elements still searching
    p, a, scale, lgamma_a, t_floor, t_lo, t_hi = (
        v[idx] for v in (p, a, scale, lgamma_a, t_floor, t_lo, t_hi))
    z = np.empty(idx.size)
    for q in set(p.tolist()):
        z[p == q] = inverse_normal_cdf(q)
    g = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
    x = a * g * g * g
    t = np.full(idx.size, math.nan)
    t[x > 0.0] = _libm(math.log, x[x > 0.0])
    t = np.where((t_lo < t) & (t < t_hi), t, 0.5 * (t_lo + t_hi))

    for _ in range(200):
        x = _libm(math.exp, t)
        f = _regularized_gamma_p(a, x, lgamma_a) - p
        if np.isnan(f).any():
            raise ArithmeticError("gamma quantile search failed (CDF is NaN)")
        done = np.abs(f) <= tol
        out[idx[done]] = x[done] * scale[done]
        active = ~done
        idx, p, a, scale, lgamma_a, t_floor, t_lo, t_hi, t, x, f = (
            v[active] for v in (idx, p, a, scale, lgamma_a, t_floor, t_lo, t_hi, t, x, f))
        if idx.size == 0:
            return out
        t_hi = np.where(f > 0.0, t, t_hi)
        t_lo = np.where(f < 0.0, t, t_lo)
        dp_dt = _libm(math.exp, a * t - x - lgamma_a)  # x * pdf(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(dp_dt > 0.0, t - f / dp_dt, math.nan)
        bisect = ~((t_lo < t) & (t < t_hi))
        mid = 0.5 * (t_lo + t_hi)
        t = np.where(bisect, mid, t)
        stuck = bisect & ((mid == t_lo) | (mid == t_hi))  # no double left inside
        if stuck.any():
            out[idx[stuck]] = np.where(t_lo[stuck] == t_floor[stuck], math.ulp(0.0),
                                       _libm(math.exp, t_hi[stuck]) * scale[stuck])
            active = ~stuck
            idx, p, a, scale, lgamma_a, t_floor, t_lo, t_hi, t = (
                v[active] for v in (idx, p, a, scale, lgamma_a, t_floor, t_lo, t_hi, t))
            if idx.size == 0:
                return out
    raise ArithmeticError(f"gamma quantile search failed for {idx.size} element(s)")


def _regularized_gamma_p(a: np.ndarray, x: np.ndarray, lgamma_a: np.ndarray) -> np.ndarray:
    """:func:`regularized_gamma_p` for every element; ``x >= 0``."""
    out = np.zeros(a.size)  # P(a, 0) = 0
    series = (x != 0.0) & (x < a + 1.0)
    contfrac = (x != 0.0) & ~series
    if series.any():
        a_s, x_s = a[series], x[series]
        out[series] = _gamma_p_series_terms(a_s, x_s) * _prefactor(a_s, x_s, lgamma_a[series])
    if contfrac.any():
        a_c, x_c = a[contfrac], x[contfrac]
        out[contfrac] = 1.0 - (_gamma_q_contfrac_terms(a_c, x_c)
                               * _prefactor(a_c, x_c, lgamma_a[contfrac]))
    return out


def _prefactor(a: np.ndarray, x: np.ndarray, lgamma_a: np.ndarray) -> np.ndarray:
    """``x^a e^-x / Gamma(a)``, as the scalar series and fraction compute it."""
    return _libm(math.exp, -x + a * _libm(math.log, x) - lgamma_a)


def _gamma_p_series_terms(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The power series of :func:`_gamma_p_series`, without its prefactor,
    summed for each element until its own stopping rule holds."""
    ap = a.copy()
    term = 1.0 / a
    total = term.copy()
    out = np.empty(a.size)
    idx = np.arange(a.size)
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        done = np.abs(term) < np.abs(total) * _GAMMA_EPS
        if done.any():
            out[idx[done]] = total[done]
            active = ~done
            idx, ap, term, total, x = (v[active] for v in (idx, ap, term, total, x))
            if idx.size == 0:
                return out
    out[idx] = total
    return out


def _gamma_q_contfrac_terms(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction of :func:`_gamma_q_contfrac`, without its
    prefactor, evaluated for each element until its own stopping rule holds."""
    b = x + 1.0 - a
    c = np.full(a.size, 1.0 / _FPMIN)
    with np.errstate(divide="ignore"):
        d = np.where(b != 0.0, 1.0 / b, 1.0 / _FPMIN)
    h = d.copy()
    out = np.empty(a.size)
    idx = np.arange(a.size)
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = b + an / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _GAMMA_EPS
        if done.any():
            out[idx[done]] = h[done]
            active = ~done
            idx, a, b, c, d, h = (v[active] for v in (idx, a, b, c, d, h))
            if idx.size == 0:
                return out
    out[idx] = h
    return out
