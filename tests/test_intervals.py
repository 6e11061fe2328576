"""Normal/gamma quantile kernels and the prediction intervals built on them."""

import math
import sys
import warnings
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

import pvmi.intervals
from pvmi import PredictionInterval, gamma_interval, normal_interval
from pvmi.intervals import (
    gamma_bounds,
    gamma_quantile,
    inverse_normal_cdf,
    normal_bounds,
    regularized_gamma_p,
)


def moment_match(mean, variance):
    """The gamma law's (shape, scale) that gamma_interval matches to the moments."""
    return mean * mean / variance, variance / mean


PROBS = [1e-4, 1e-3, 0.01, 0.025, 0.1, 0.31, 0.5, 0.69, 0.9, 0.975, 0.99, 1 - 1e-3, 1 - 1e-4]


# ---------------------------------------------------------- normal quantile


def test_inverse_normal_cdf_against_quadrature_oracle():
    # oracle: root of (integral of the density) - p, no erf involved
    def cdf_by_quadrature(x):
        val, _ = integrate.quad(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), -np.inf, x
        )
        return val

    for p in PROBS:
        want = optimize.brentq(lambda x: cdf_by_quadrature(x) - p, -10.0, 10.0, xtol=1e-12)
        assert abs(inverse_normal_cdf(p) - want) <= 1e-6, f"p={p}"


def test_inverse_normal_cdf_symmetry_is_exact():
    # the quantile reads p only through p - 0.5 and min(p, 1 - p), which the
    # computed complement 1 - q of a q > 0.5 mirrors exactly, so the
    # quantiles of q and 1 - q are exact negatives
    for q in [0.9999, 0.99, 0.8, 0.51]:
        assert inverse_normal_cdf(q) == -inverse_normal_cdf(1.0 - q)
    for p in [0.0625, 0.25]:  # dyadic: 1 - p is exact in both directions
        assert inverse_normal_cdf(1.0 - p) == -inverse_normal_cdf(p)
    assert inverse_normal_cdf(0.5) == 0.0


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=1e-300, max_value=0.5))
def test_inverse_normal_cdf_matches_ndtri(p):
    for q in (p, 1.0 - p):
        if q < 1.0:
            want = special.ndtri(q)
            assert abs(inverse_normal_cdf(q) - want) <= 1e-14 * abs(want), f"q={q!r}"


def test_inverse_normal_cdf_pinned_975_quantile():
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)


def test_inverse_normal_cdf_round_trips_through_cdf():
    for p in PROBS:
        assert NormalDist().cdf(inverse_normal_cdf(p)) == pytest.approx(p, abs=1e-12)


def test_inverse_normal_cdf_rejects_boundary_probabilities():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError, match="strictly inside"):
            inverse_normal_cdf(p)


# ------------------------------------------------------------ gamma kernel


def test_regularized_gamma_p_matches_scipy():
    for a in (0.3, 1.0, 2.5, 57.0, 400.0):
        for x in (0.0, 1e-6, 0.5 * a, a, a + 1.0, 3.0 * a, 10.0 * a):
            assert regularized_gamma_p(a, x) == pytest.approx(
                float(special.gammainc(a, x)), rel=1e-12, abs=1e-12
            )


def test_regularized_gamma_p_rejects_bad_arguments():
    with pytest.raises(ValueError, match="shape"):
        regularized_gamma_p(0.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        regularized_gamma_p(1.0, -0.5)


def test_gamma_quantile_round_trips_through_cdf():
    for shape in (0.5, 1.0, 3.7, 57.0):
        for scale in (1.0, 0.2, 11.0):
            for p in (1e-4, 0.025, 0.5, 0.975, 1 - 1e-4):
                x = gamma_quantile(p, shape, scale)
                assert regularized_gamma_p(shape, x / scale) == pytest.approx(
                    p, abs=1e-7
                )


def test_gamma_quantile_tiny_shape_round_trips():
    # about 1.6e-78, 76 decades below the mean: the tiny-shape regime
    shape, scale = 0.020564031271011876, 2.2767103658961445
    x = gamma_quantile(0.025, shape, scale)
    assert regularized_gamma_p(shape, x / scale) == pytest.approx(0.025, abs=1e-8)
    assert x == pytest.approx(scale * special.gammaincinv(shape, 0.025), rel=1e-6)


def test_gamma_quantile_tiny_shape_needs_few_cdf_evaluations(monkeypatch):
    calls = []

    def counted(a, x):
        calls.append(x)
        return regularized_gamma_p(a, x)

    monkeypatch.setattr(pvmi.intervals, "regularized_gamma_p", counted)
    gamma_quantile(0.025, 0.020564031271011876, 2.2767103658961445)
    assert len(calls) <= 20


@settings(max_examples=300, deadline=None)
@given(
    log_shape=st.floats(math.log(1e-6), math.log(1e5)),
    log_scale=st.floats(math.log(1e-4), math.log(1e4)),
    p=st.floats(1e-6, 1.0 - 1e-6),
)
def test_gamma_quantile_round_trips_over_stress_ranges(log_shape, log_scale, p):
    shape, scale = math.exp(log_shape), math.exp(log_scale)
    x = gamma_quantile(p, shape, scale)
    assert x > 0.0
    if x >= sys.float_info.min:  # below it, doubles cannot resolve the CDF to 1e-8
        assert regularized_gamma_p(shape, x / scale) == pytest.approx(p, abs=1e-8)


def _gamma_quantile_oracle(p, shape, scale):
    """The search of :func:`gamma_quantile` without its underflow check,
    kept as the oracle of that check."""
    a = shape
    lgamma_a = math.lgamma(a)
    t_floor = pvmi.intervals._LOG_TINY + max(0.0, -math.log(scale))
    t_lo = max((math.log(p) + math.lgamma(a + 1.0)) / a, t_floor)
    t_hi = math.log(a + math.sqrt(a * p / (1.0 - p)))
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


def _at_floor(log_shape, log_scale, u):
    """A (p, shape, scale) whose bracket starts at the floor (for tiny
    scales the floor is no longer tiny in x), with p from 2e-8 below the CDF
    at the floor (where the check fires or just does not) up to the
    closed-form bound that puts t_lo at the floor (where the search runs)."""
    shape, scale = math.exp(log_shape), math.exp(log_scale)
    t_floor = pvmi.intervals._LOG_TINY - math.log(scale)
    at_floor = regularized_gamma_p(shape, math.exp(t_floor))
    bound = math.exp(shape * t_floor - math.lgamma(shape + 1.0))
    p = at_floor - 2e-8 + u * (bound - at_floor + 2e-8)
    return (p, shape, scale) if 0.0 < p < 1.0 else None


_LOG_SMALL_SHAPE = st.floats(math.log(1e-6), math.log(1e-2))
_SMALL_SHAPE_QUANTILE = st.one_of(
    st.tuples(st.one_of(st.floats(1e-6, 1.0 - 1e-6), st.sampled_from([0.025, 0.975])),
              _LOG_SMALL_SHAPE.map(math.exp),
              st.one_of(st.floats(math.log(1e-6), math.log(1e-2)),
                        st.floats(math.log(1e2), math.log(1e6))).map(math.exp)),
    st.builds(_at_floor, _LOG_SMALL_SHAPE, st.floats(math.log(1e-323), math.log(1e-300)),
              st.floats(0.0, 1.0)).filter(lambda e: e is not None),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SMALL_SHAPE_QUANTILE, min_size=1, max_size=12))
def test_the_underflow_check_keeps_every_quantiles_bits(elements):
    want = [_outcome(_gamma_quantile_oracle, *e) for e in elements]
    assert [_outcome(gamma_quantile, *e) for e in elements] == want
    p, shape, scale = (np.array(c) for c in zip(*elements))
    if all(isinstance(w, float) for w in want):
        assert pvmi.intervals._gamma_quantiles(p, shape, scale).tolist() == want
    else:
        with pytest.raises((ValueError, ArithmeticError)):
            pvmi.intervals._gamma_quantiles(p, shape, scale)


_QUANTILE = st.one_of(
    _SMALL_SHAPE_QUANTILE,
    st.tuples(st.floats(1e-6, 1.0 - 1e-6), st.floats(1e-2, 1e4), st.floats(1e-4, 1e4)),
)


def _pieced(p, shape, scale, piece):
    with mock.patch.object(pvmi.intervals, "_GAMMA_PIECE", piece):
        return _outcome(pvmi.intervals._gamma_quantiles, p, shape, scale)


@settings(max_examples=200, deadline=None)
@given(st.lists(_QUANTILE, min_size=1, max_size=40), st.sampled_from([1, 3, 7]))
def test_gamma_quantile_pieces_change_no_bit(elements, piece):
    p, shape, scale = (np.array(c) for c in zip(*elements))
    whole = _pieced(p, shape, scale, 10**9)
    pieced = _pieced(p, shape, scale, piece)
    if isinstance(whole, type):  # the error of the whole call
        assert pieced is whole
    else:
        np.testing.assert_array_equal(pieced.view(np.uint64), whole.view(np.uint64))


def test_gamma_quantiles_in_default_pieces_equal_one_call(rng):
    # more elements than one piece, shapes from 1e-4 to 1e4 in random order
    n = 3 * pvmi.intervals._GAMMA_PIECE + 5
    p = rng.choice([0.025, 0.975], size=n)
    shape, scale = np.exp(rng.uniform(-9.2, 9.2, n)), np.exp(rng.uniform(-7.0, 2.0, n))
    np.testing.assert_array_equal(
        pvmi.intervals._gamma_quantiles(p, shape, scale).view(np.uint64),
        _pieced(p, shape, scale, 10**9).view(np.uint64))


def test_an_underflowing_quantile_takes_one_cdf_evaluation(monkeypatch):
    # shape 1e-4: P(a, x) at the smallest double is about 0.93, far above
    # p = 0.025, so the search could only end at the floor
    calls = []

    def counted(fn):
        def wrapper(a, x, *args):
            calls.append(np.size(x))
            return fn(a, x, *args)
        return wrapper

    monkeypatch.setattr(pvmi.intervals, "regularized_gamma_p",
                        counted(regularized_gamma_p))
    assert gamma_quantile(0.025, 1e-4, 2.0) == math.ulp(0.0)
    assert calls == [1]
    monkeypatch.setattr(pvmi.intervals, "_regularized_gamma_p",
                        counted(pvmi.intervals._regularized_gamma_p))
    calls.clear()
    q = pvmi.intervals._gamma_quantiles(np.array([0.025, 0.025]), np.array([1e-4, 3.0]),
                                        np.array([2.0, 2.0]))
    assert q[0] == math.ulp(0.0) and q[1] == gamma_quantile(0.025, 3.0, 2.0)
    assert calls[0] == 1 and all(n == 1 for n in calls[1:])  # then the other alone


def test_gamma_interval_tiny_shape_is_ordered():
    # shape 1.7e-4: the 97.5% quantile is near 7e-64 and the 2.5% quantile
    # lies below the smallest positive double
    mean, variance = 0.003264010934386737, 0.0621716544700807
    iv = gamma_interval(mean, variance, 0.05)
    shape, scale = moment_match(mean, variance)
    assert iv.lower == math.ulp(0.0) <= iv.upper
    assert regularized_gamma_p(shape, iv.upper / scale) == pytest.approx(0.975, abs=1e-8)
    assert iv.upper == pytest.approx(scale * special.gammaincinv(shape, 0.975), rel=1e-6)


def test_gamma_quantile_exponential_median_is_log_two():
    assert gamma_quantile(0.5, 1.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-7)


def test_gamma_quantile_matches_scipy_ppf():
    for shape in (0.8, 2.0, 16.0):
        for p in (0.01, 0.25, 0.5, 0.9, 0.999):
            assert gamma_quantile(p, shape, 2.5) == pytest.approx(
                float(stats.gamma.ppf(p, shape, scale=2.5)), rel=1e-6, abs=1e-8
            )


def test_gamma_quantile_scale_is_multiplicative():
    base = gamma_quantile(0.9, 4.0, 1.0)
    assert gamma_quantile(0.9, 4.0, 7.0) == pytest.approx(7.0 * base, rel=1e-6)


def test_gamma_quantile_monotone_in_p():
    qs = [gamma_quantile(p, 3.0, 1.5) for p in np.linspace(0.01, 0.99, 25)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_gamma_quantile_rejects_bad_arguments():
    with pytest.raises(ValueError, match="strictly inside"):
        gamma_quantile(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        gamma_quantile(0.5, -1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        gamma_quantile(0.5, 1.0, 0.0)


# ------------------------------------------------------------- intervals


def test_normal_interval_hand_example():
    band = normal_interval(mean=1.0, variance=4.0, alpha=0.05)
    z = 1.959963984540054
    assert band.lower == pytest.approx(1.0 - 2.0 * z, abs=1e-9)
    assert band.upper == pytest.approx(1.0 + 2.0 * z, abs=1e-9)


def test_normal_interval_zero_variance_is_a_point():
    band = normal_interval(mean=0.7, variance=0.0, alpha=0.05)
    assert (band.lower, band.upper) == (0.7, 0.7)


def test_normal_interval_argument_validation():
    with pytest.raises(ValueError, match="alpha"):
        normal_interval(0.0, 1.0, alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        normal_interval(0.0, 1.0, alpha=1.0)
    with pytest.raises(ValueError, match="variance"):
        normal_interval(0.0, -1e-9, alpha=0.05)


def test_gamma_interval_matches_its_quantiles():
    band = gamma_interval(mean=2.0, variance=0.5, alpha=0.1)
    shape, scale = moment_match(2.0, 0.5)
    assert band.lower == gamma_quantile(0.05, shape, scale)
    assert band.upper == gamma_quantile(0.95, shape, scale)
    assert 0.0 < band.lower < 2.0 < band.upper


def test_gamma_interval_degenerate_cases():
    assert gamma_interval(0.0, 1.0, alpha=0.05) == PredictionInterval(0.0, 0.0)
    assert gamma_interval(-3.0, 1.0, alpha=0.05) == PredictionInterval(0.0, 0.0)
    assert gamma_interval(1.5, 0.0, alpha=0.05) == PredictionInterval(1.5, 1.5)
    with pytest.raises(ValueError, match="variance"):
        gamma_interval(1.0, -0.5, alpha=0.05)


def test_gamma_interval_monte_carlo_coverage(rng):
    mean, var, alpha = 2.0, 0.5, 0.05
    shape, scale = moment_match(mean, var)
    band = gamma_interval(mean, var, alpha)
    draws = rng.gamma(shape, scale, size=200_000)
    inside = np.mean((draws >= band.lower) & (draws <= band.upper))
    assert inside == pytest.approx(1 - alpha, abs=0.005)
    assert np.mean(draws < band.lower) == pytest.approx(alpha / 2, abs=0.004)
    assert np.mean(draws > band.upper) == pytest.approx(alpha / 2, abs=0.004)


def test_interval_rejects_inverted_or_nan_bounds():
    with pytest.raises(ValueError, match="exceeds"):
        PredictionInterval(2.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        PredictionInterval(float("nan"), 1.0)


# ------------------------------------------------ array kernels vs scalar


def _moments(log_shape, log_scale):
    shape, scale = math.exp(log_shape), math.exp(log_scale)
    return shape * scale, shape * scale * scale


_HOUR = st.one_of(
    # a gamma law with shape 1e-8 .. 1e6 and scale 1e-6 .. 1e3
    st.builds(_moments, st.floats(math.log(1e-8), math.log(1e6)),
              st.floats(math.log(1e-6), math.log(1e3))),
    st.tuples(st.floats(-5.0, 0.0), st.floats(0.0, 5.0)),  # mean <= 0
    st.tuples(st.floats(1e-6, 5.0), st.just(0.0)),  # variance 0
)


@settings(max_examples=300, deadline=None)
@given(hours=st.lists(_HOUR, min_size=1, max_size=24),
       alpha=st.sampled_from([0.05, 0.2, 1e-3]))
def test_array_bounds_equal_the_scalar_intervals(hours, alpha):
    means, variances = (np.array(c) for c in zip(*hours))
    lower, upper = gamma_bounds(means, variances, alpha)
    assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
    assert np.all(0.0 <= lower) and np.all(lower <= upper)
    for i, (m, v) in enumerate(hours):
        band = gamma_interval(m, v, alpha)
        assert (lower[i], upper[i]) == (band.lower, band.upper)  # bit for bit
        if m > 0.0 and v > 0.0:
            shape, scale = moment_match(m, v)
            for x, p in ((lower[i], alpha / 2.0), (upper[i], 1.0 - alpha / 2.0)):
                assert x >= math.ulp(0.0)
                if x >= sys.float_info.min:
                    assert abs(regularized_gamma_p(shape, x / scale) - p) <= 1e-8
    lower, upper = normal_bounds(means, variances, alpha)
    for i, (m, v) in enumerate(hours):
        band = normal_interval(m, v, alpha)
        assert (lower[i], upper[i]) == (band.lower, band.upper)


def test_array_bounds_of_an_empty_cell_are_empty():
    for bounds in (normal_bounds, gamma_bounds):
        lower, upper = bounds(np.array([]), np.array([]), 0.05)
        assert lower.size == upper.size == 0


def test_array_bounds_reject_what_the_scalar_intervals_reject():
    with pytest.raises(ValueError, match="alpha"):
        gamma_bounds(np.ones(2), np.ones(2), alpha=0.0)
    with pytest.raises(ValueError, match="variance"):
        gamma_bounds(np.array([1.0, 2.0]), np.array([0.5, -1e-9]), alpha=0.05)
    with pytest.raises(ValueError, match="variance"):
        normal_bounds(np.zeros(2), np.array([0.5, -1e-9]), alpha=0.05)
    # a negative variance is ignored where the mean is not positive, as in
    # gamma_interval
    lower, upper = gamma_bounds(np.array([-1.0]), np.array([-1.0]), 0.05)
    assert lower.tolist() == upper.tolist() == [0.0]
    # a NaN variance fails the search: an error, never a NaN bound
    with pytest.raises(ArithmeticError):
        gamma_interval(1.0, math.nan, 0.05)
    with pytest.raises(ArithmeticError):
        gamma_bounds(np.array([1.0, 1.0]), np.array([0.5, math.nan]), 0.05)


def test_a_nan_mean_fails_both_gamma_layers_alike():
    # a NaN mean is not "not positive": it fails the search, never [0, 0]
    with pytest.raises(ArithmeticError):
        gamma_interval(math.nan, 1.0, 0.05)
    with pytest.raises(ArithmeticError):
        gamma_bounds(np.array([1.0, math.nan]), np.array([0.5, 1.0]), 0.05)
    # with a zero variance both give the point [nan, nan], which is rejected
    with pytest.raises(ValueError, match="NaN"):
        gamma_interval(math.nan, 0.0, 0.05)
    with pytest.raises(ValueError, match="NaN"):
        gamma_bounds(np.array([math.nan]), np.array([0.0]), 0.05)


@pytest.mark.parametrize("mean, variance", [
    (1e-300, 1.0),   # the shape underflows to 0
    (3.0, 5e-324),   # the scale underflows to 0 and the shape overflows
    (1.0, 1e-310),   # the shape overflows to inf
])
def test_both_gamma_layers_reject_a_zero_or_infinite_match(mean, variance):
    rule = "^shape and scale must be positive and finite$"
    with pytest.raises(ValueError, match=rule):
        gamma_interval(mean, variance, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the match itself warns about nothing
        with pytest.raises(ValueError, match=rule):
            gamma_bounds(np.array([2.0, mean]), np.array([0.5, variance]), 0.05)
