"""Multiple-imputation pooling of a (B, hours) stack of round forecasts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvmi import PooledPrediction, rubin_pool


def _column(means, variances) -> PooledPrediction:
    """One hour's rounds pooled as a (B, 1) stack; its scalar pooling."""
    (hour,) = rubin_pool(np.reshape(means, (-1, 1)), variances).hours()
    return hour


def test_two_round_hand_example():
    pooled = _column([1.0, 3.0], [0.5, 1.5])
    assert pooled.mean == 2.0
    assert pooled.within_var == 1.0
    assert pooled.between_var == 2.0  # ((1-2)^2 + (3-2)^2) / (2-1)
    assert pooled.total_var == 4.0  # 1 + (1 + 1/2) * 2
    assert pooled.n_rounds == 2


def test_single_round_collapses_to_its_own_variance():
    pooled = _column([1.7], [0.9])
    assert pooled.mean == 1.7
    assert pooled.between_var == 0.0
    assert pooled.within_var == 0.9
    assert pooled.total_var == 0.9


def test_pooled_fields_match_numpy_oracle(rng):
    # 1000 random round sets: pooled numbers must agree with an independent
    # computation (mean, mean of variances, ddof=1 spread, combination rule)
    for _ in range(1000):
        b = int(rng.integers(1, 11))
        means = rng.normal(scale=5.0, size=b)
        variances = rng.uniform(0.0, 3.0, size=b)
        pooled = _column(means, variances)

        within = float(np.mean(variances))
        between = float(np.var(means, ddof=1)) if b > 1 else 0.0
        total = within + (1.0 + 1.0 / b) * between
        assert pooled.mean == pytest.approx(float(np.mean(means)), rel=1e-12, abs=1e-15)
        assert pooled.within_var == pytest.approx(within, rel=1e-12, abs=1e-15)
        assert pooled.between_var == pytest.approx(between, rel=1e-12, abs=1e-15)
        assert pooled.total_var == pytest.approx(total, rel=1e-12, abs=1e-15)
        assert pooled.n_rounds == b


def test_pooling_is_order_invariant_bitwise(rng):
    means = rng.normal(size=(9, 4))
    variances = rng.uniform(0.1, 2.0, size=9)
    base = rubin_pool(means, variances).hours()
    for _ in range(20):
        order = rng.permutation(9)
        assert rubin_pool(means[order], variances[order]).hours() == base  # exact


def test_more_disagreement_means_more_total_variance():
    tight = _column([2.0, 2.1, 1.9], [1.0] * 3)
    loose = _column([1.0, 3.0, 2.0], [1.0] * 3)
    assert tight.within_var == loose.within_var
    assert loose.total_var > tight.total_var


def test_rejects_empty_and_invalid_rounds():
    with pytest.raises(ValueError, match="stack"):
        rubin_pool(np.zeros(3), np.ones(3))  # a 1-D stack
    with pytest.raises(ValueError, match="B >= 1"):
        rubin_pool(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError, match="one variance per round"):
        rubin_pool(np.zeros((2, 3)), np.ones(3))
    with pytest.raises(ValueError, match="one variance per round"):
        rubin_pool(np.zeros((2, 3)), np.ones((2, 1)))
    with pytest.raises(ValueError, match=">= 0"):
        rubin_pool(np.zeros((2, 3)), np.array([1.0, -0.01]))


def test_pooled_prediction_is_immutable():
    pooled = rubin_pool(np.ones((1, 1)), np.ones(1))
    assert isinstance(pooled, PooledPrediction)
    with pytest.raises(AttributeError):
        pooled.mean = 0.0


# ------------------------------------------------------ one call per cell


@settings(max_examples=200, deadline=None)
@given(b=st.integers(1, 10), n=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_array_pooling_equals_per_hour_pooling_bitwise(b, n, seed):
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=4.0, size=(b, n)) * rng.choice([1e-8, 1.0, 1e6], size=(b, n))
    means[:, : n // 3] = means[0, : n // 3]  # hours whose rounds agree
    variances = rng.uniform(0.0, 3.0, size=b)
    pooled = rubin_pool(means, variances)
    assert pooled.mean.shape == pooled.within_var.shape == pooled.total_var.shape == (n,)
    hours = [_column(means[:, i], variances) for i in range(n)]
    assert pooled.hours() == hours  # every moment, bit for bit
    order = rng.permutation(b)
    assert rubin_pool(means[order], variances[order]).hours() == hours


def test_array_round_means_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            rubin_pool(np.array([[1.0, bad], [2.0, 3.0]]), np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            rubin_pool(np.zeros((2, 3)), np.array([1.0, bad]))


def test_an_hour_pooled_alone_equals_it_inside_a_cell_at_nine_rounds():
    # numpy sums a contiguous axis pairwise from 8 terms on: a (9, 1) stack
    # summed by a reduction would round unlike the same column of a (9, 3) one
    means = np.array([[1e16, 3.0, 0.1], [1.0, 1e-3, 0.7], [1.0, -2.5, 0.3],
                      [1.0, 7.0, 0.9], [1.0, 1e3, 0.2], [1.0, 0.5, 0.8],
                      [1.0, -1e2, 0.4], [1.0, 2.0, 0.6], [-1e16, 1e-9, 0.5]])
    variances = np.array([0.1 * (r + 1) for r in range(9)])
    cell = rubin_pool(means, variances).hours()
    for i in range(3):
        alone = rubin_pool(means[:, i:i + 1], variances)
        assert alone.mean.shape == alone.total_var.shape == (1,)
        assert _bits(alone.hours()[0]) == _bits(cell[i])


def test_round_means_with_more_than_one_dimension_are_rejected():
    # each round is one row of hours: a stack of 2-D rounds is not a stack
    with pytest.raises(ValueError, match="stack"):
        rubin_pool(np.zeros((2, 3, 4)), np.ones(2))


# --------------------------------------------- the exactly rounded oracle


def _bits(p: PooledPrediction) -> tuple:
    return tuple(float(v).hex() for v in (p.mean, p.within_var, p.between_var, p.total_var))


def _fsum_pool_hour(means: list[float], variances: list[float]) -> tuple:
    """One hour pooled with exactly rounded sums (``math.fsum``) and squares
    by Python's ``** 2``: the per-hour pooling the array path replaced."""
    b = len(means)
    within = math.fsum(variances) / b
    if min(means) == max(means):
        mean, between = means[0], 0.0
    else:
        mean = math.fsum(means) / b
        between = math.fsum([(m - mean) ** 2 for m in means]) / (b - 1)
    return mean, within, between, within + (1.0 + 1.0 / b) * between


@settings(max_examples=300, deadline=None)
@given(b=st.integers(1, 12), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_array_pooling_stays_within_stated_ulps_of_the_fsum_oracle(b, n, seed):
    rng = np.random.default_rng(seed)
    scale = rng.choice([1e-6, 1.0, 1e6], size=n)
    means = rng.normal(size=(b, n)) * scale
    near = n // 3  # hours whose rounds differ by a few ulps only
    means[:, :near] = scale[:near] + rng.integers(-4, 5, size=(b, near)) * np.spacing(scale[:near])
    means[:, near:2 * near] = means[0, near:2 * near]  # hours whose rounds agree
    variances = rng.uniform(0.0, 3.0, size=b).tolist()
    pooled = rubin_pool(means, np.array(variances))
    u = 2.0 ** -53
    for i, hour in enumerate(pooled.hours()):
        column = means[:, i].tolist()
        mean, within, between, total = _fsum_pool_hour(column, variances)
        big = max(abs(m) for m in column)
        # A sum of b doubles taken in sorted order is within (b-1)u of its
        # absolute sum, so each mean lies within (b+1) ulps of the largest
        # round mean of the exactly rounded one. The between variance is
        # flat in the mean to first order: a mean off by dm adds b*dm^2.
        # Rounding the b deviations, squares and sums adds a relative
        # (2b + 10)u against the oracle's own rounding.
        dm = (b + 1) * math.ulp(big)
        tol_between = (2 * b + 10) * u * between + 2 * b * dm * dm
        assert hour.within_var == within
        assert abs(hour.mean - mean) <= dm
        assert abs(hour.between_var - between) <= tol_between
        assert abs(hour.total_var - total) <= 2 * tol_between + math.ulp(total)
        if min(column) == max(column):
            assert hour.between_var == 0.0 and hour.mean == column[0]
