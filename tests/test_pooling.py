"""Multiple-imputation pooling of per-round (mean, variance) forecasts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvmi import PooledPrediction, RoundPrediction, rubin_pool


def test_two_round_hand_example():
    pooled = rubin_pool([RoundPrediction(1.0, 0.5), RoundPrediction(3.0, 1.5)])
    assert pooled.mean == 2.0
    assert pooled.within_var == 1.0
    assert pooled.between_var == 2.0  # ((1-2)^2 + (3-2)^2) / (2-1)
    assert pooled.total_var == 4.0  # 1 + (1 + 1/2) * 2
    assert pooled.n_rounds == 2


def test_single_round_collapses_to_its_own_variance():
    pooled = rubin_pool([RoundPrediction(1.7, 0.9)])
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
        pooled = rubin_pool(
            [RoundPrediction(float(m), float(v)) for m, v in zip(means, variances)]
        )

        within = float(np.mean(variances))
        between = float(np.var(means, ddof=1)) if b > 1 else 0.0
        total = within + (1.0 + 1.0 / b) * between
        assert pooled.mean == pytest.approx(float(np.mean(means)), rel=1e-12, abs=1e-15)
        assert pooled.within_var == pytest.approx(within, rel=1e-12, abs=1e-15)
        assert pooled.between_var == pytest.approx(between, rel=1e-12, abs=1e-15)
        assert pooled.total_var == pytest.approx(total, rel=1e-12, abs=1e-15)
        assert pooled.n_rounds == b


def test_pooling_is_order_invariant_bitwise(rng):
    rounds = [
        RoundPrediction(float(m), float(v))
        for m, v in zip(rng.normal(size=9), rng.uniform(0.1, 2.0, size=9))
    ]
    base = rubin_pool(rounds)
    for _ in range(20):
        shuffled = list(rounds)
        rng.shuffle(shuffled)
        again = rubin_pool(shuffled)
        assert again == base  # exact, not approximate


def test_more_disagreement_means_more_total_variance():
    tight = rubin_pool([RoundPrediction(m, 1.0) for m in (2.0, 2.1, 1.9)])
    loose = rubin_pool([RoundPrediction(m, 1.0) for m in (1.0, 3.0, 2.0)])
    assert tight.within_var == loose.within_var
    assert loose.total_var > tight.total_var


def test_rejects_empty_and_invalid_rounds():
    with pytest.raises(ValueError, match="empty"):
        rubin_pool([])
    with pytest.raises(ValueError, match=">= 0"):
        RoundPrediction(1.0, -0.01)
    with pytest.raises(ValueError, match="finite"):
        RoundPrediction(float("nan"), 1.0)
    with pytest.raises(ValueError, match="finite"):
        RoundPrediction(0.0, float("inf"))


def test_pooled_prediction_is_immutable():
    pooled = rubin_pool([RoundPrediction(1.0, 1.0)])
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
    pooled = rubin_pool([RoundPrediction(means[r], float(variances[r])) for r in range(b)])
    assert pooled.mean.shape == pooled.within_var.shape == pooled.total_var.shape == (n,)
    hours = [
        rubin_pool([RoundPrediction(float(means[r, i]), float(variances[r])) for r in range(b)])
        for i in range(n)
    ]
    assert pooled.hours() == hours  # every moment, bit for bit
    order = rng.permutation(b)
    again = rubin_pool([RoundPrediction(means[r], float(variances[r])) for r in order])
    assert again.hours() == hours


def test_array_round_means_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        RoundPrediction(np.array([1.0, float("nan")]), 1.0)
    with pytest.raises(ValueError, match="finite"):
        RoundPrediction(np.array([float("inf")]), 1.0)
    with pytest.raises(ValueError, match=">= 0"):
        RoundPrediction(np.zeros(3), -1.0)
