"""Coverage and normalized RMSE over the observed test hours."""

import math

import numpy as np
import pytest

from pvmi import (
    DegenerateNormalizationError,
    EmptyEvaluationError,
    EvalReport,
    PredictionInterval,
    coverage,
    evaluate,
    nrmse,
)
from pvmi.metrics import score, target_truths

from conftest import make_series


def series_with_targets(target_power, masked=()):
    """26+ hour series whose hours 24, 25, ... carry the given powers."""
    power = np.concatenate([np.linspace(0.5, 2.0, 24), np.asarray(target_power, float)])
    for offset in masked:
        power[24 + offset] = np.nan
    return make_series(power)


def test_all_enclosing_intervals_score_one():
    truths = series_with_targets([1.0, 2.0, 3.0])
    bands = [PredictionInterval(-1e9, 1e9)] * 3
    assert coverage(bands, truths) == 1.0


def test_degenerate_zero_intervals_score_zero():
    truths = series_with_targets([1.0, 2.0, 3.0])
    bands = [PredictionInterval(0.0, 0.0)] * 3
    assert coverage(bands, truths) == 0.0


def test_interval_endpoints_count_as_hits():
    truths = series_with_targets([1.5, 4.0])
    bands = [PredictionInterval(1.5, 9.0), PredictionInterval(0.0, 4.0)]
    assert coverage(bands, truths) == 1.0


def test_nrmse_hand_example():
    # errors 6 and 8 -> mean squared error 50, largest truth 10
    truths = series_with_targets([10.0, 2.0])
    assert nrmse([4.0, 10.0], truths) == math.sqrt(50.0) / 10.0


def test_nrmse_zero_for_exact_predictions():
    truths = series_with_targets([1.0, 2.0, 3.0])
    assert nrmse([1.0, 2.0, 3.0], truths) == 0.0


def test_nrmse_undefined_when_all_truths_are_zero():
    truths = series_with_targets([0.0, 0.0])
    with pytest.raises(DegenerateNormalizationError, match="zero"):
        nrmse([1.0, 1.0], truths)


def test_masked_target_hours_never_contribute():
    # position 1 (hour 25) is missing: its wild interval and prediction must
    # not be scored
    truths = series_with_targets([1.0, 2.0, 3.0], masked=[1])
    bands = [
        PredictionInterval(0.9, 1.1),
        PredictionInterval(-500.0, -400.0),
        PredictionInterval(2.9, 3.1),
    ]
    assert coverage(bands, truths) == 1.0
    assert nrmse([1.0, 999.0, 3.0], truths) == 0.0


def test_prediction_i_targets_hour_24_plus_i():
    truths = series_with_targets([5.0, 6.0, 7.0])
    bands = [
        PredictionInterval(5.9, 6.1),  # would cover hour 25, scored against 24
        PredictionInterval(5.9, 6.1),  # covers hour 25
        PredictionInterval(5.9, 6.1),
    ]
    assert coverage(bands, truths) == pytest.approx(1.0 / 3.0)


def test_prediction_count_must_match_series():
    truths = series_with_targets([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="supports 3"):
        coverage([PredictionInterval(0.0, 1.0)] * 4, truths)
    with pytest.raises(ValueError, match="supports 3"):
        nrmse([1.0, 2.0], truths)


def test_no_observed_targets_raises():
    truths = series_with_targets([1.0, 2.0], masked=[0, 1])
    with pytest.raises(EmptyEvaluationError):
        coverage([PredictionInterval(0.0, 1.0)] * 2, truths)


def test_coverage_is_shift_invariant(rng):
    n_targets = 12
    powers = rng.uniform(0.0, 5.0, size=n_targets)
    centers = powers + rng.normal(scale=1.0, size=n_targets)
    halves = rng.uniform(0.1, 1.5, size=n_targets)

    shift = 3.7
    base = series_with_targets(powers, masked=[4])
    moved = series_with_targets(powers + shift, masked=[4])
    bands = [PredictionInterval(c - h, c + h) for c, h in zip(centers, halves)]
    moved_bands = [
        PredictionInterval(c - h + shift, c + h + shift) for c, h in zip(centers, halves)
    ]
    assert coverage(bands, base) == coverage(moved_bands, moved)


def test_metrics_match_brute_force_oracle(rng):
    n_targets = 16
    powers = rng.uniform(0.0, 5.0, size=n_targets)
    masked = [2, 9, 13]
    truths = series_with_targets(powers, masked=masked)
    means = rng.uniform(0.0, 5.0, size=n_targets)
    bands = [
        PredictionInterval(m - w, m + w)
        for m, w in zip(means, rng.uniform(0.0, 2.0, size=n_targets))
    ]

    scored = [i for i in range(n_targets) if i not in masked]
    hits = sum(1 for i in scored if bands[i].lower <= powers[i] <= bands[i].upper)
    sq = [(means[i] - powers[i]) ** 2 for i in scored]
    want_nrmse = math.sqrt(sum(sq) / len(sq)) / max(powers[i] for i in scored)

    assert coverage(bands, truths) == hits / len(scored)
    assert nrmse(means, truths) == pytest.approx(want_nrmse, rel=1e-12)


def test_evaluate_bundles_both_metrics():
    truths = series_with_targets([1.0, 2.0, 3.0], masked=[2])
    bands = [PredictionInterval(0.5, 1.5), PredictionInterval(5.0, 6.0),
             PredictionInterval(0.0, 0.1)]
    means = [1.0, 2.5, 99.0]
    report = evaluate(bands, means, truths, alpha=0.05)
    assert isinstance(report, EvalReport)
    assert report.coverage == coverage(bands, truths) == 0.5
    assert report.nrmse == nrmse(means, truths)
    assert report.n_evaluated == 2
    assert report.alpha == 0.05


def test_score_of_arrays_matches_the_per_hour_adapters(rng):
    n_targets = 16
    powers = rng.uniform(0.0, 5.0, size=n_targets)
    truths = series_with_targets(powers, masked=[2, 9, 13])
    means = rng.uniform(0.0, 5.0, size=n_targets)
    half = rng.uniform(0.0, 2.0, size=n_targets)
    bands = [PredictionInterval(m - h, m + h) for m, h in zip(means, half)]
    report = score(means - half, means + half, means, target_truths(truths, n_targets), 0.1)
    assert report == evaluate(bands, list(means), truths, alpha=0.1)
    assert report.coverage == coverage(bands, truths)
    assert report.nrmse == nrmse(list(means), truths)
    assert report.n_evaluated == 13
    assert report.mean_width == float(np.mean([b.width() for b in bands]))  # all 16 hours


def test_score_needs_one_entry_per_prediction():
    truth = np.array([1.0, np.nan, 2.0])
    with pytest.raises(ValueError, match="one entry per prediction"):
        score(np.zeros(3), np.ones(3), np.ones(2), truth, 0.1)
    with pytest.raises(EmptyEvaluationError):
        score(np.zeros(1), np.ones(1), np.ones(1), np.array([np.nan]), 0.1)
