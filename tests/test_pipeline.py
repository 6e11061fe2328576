"""End-to-end pipeline: impute, fit, forecast, pool, for all three setups."""

import numpy as np
import pytest

from pvmi import (
    MissingSpec,
    PooledPrediction,
    RegressorSpec,
    SynthSpec,
    build_training,
    fit,
    fit_sampler,
    generate,
    inject_missing,
    residual_variance,
    run_pipeline,
    split_chronological,
)
from pvmi.missingness import MODE_FRACTION

SPEC = RegressorSpec("knn", {"k": 3})


@pytest.fixture(scope="module")
def complete_pair():
    series = generate(SynthSpec(days=10, seed=3))
    return split_chronological(series, test_len=72)


@pytest.fixture(scope="module")
def gappy_pair(complete_pair):
    train, test = complete_pair
    train, _ = inject_missing(
        train, MissingSpec(MODE_FRACTION, target_fraction=0.2, block_len_hours=12, seed=1)
    )
    test, _ = inject_missing(
        test, MissingSpec(MODE_FRACTION, target_fraction=0.2, block_len_hours=6, seed=2)
    )
    return train, test


def test_rejects_bad_setup_and_rounds(complete_pair):
    train, test = complete_pair
    with pytest.raises(ValueError, match="setup"):
        run_pipeline(train, test, SPEC, setup=0)
    with pytest.raises(ValueError, match="setup"):
        run_pipeline(train, test, SPEC, setup=4)
    with pytest.raises(ValueError, match="n_rounds"):
        run_pipeline(train, test, SPEC, setup=2, n_rounds=0)


def test_one_prediction_per_admissible_test_hour(gappy_pair):
    train, test = gappy_pair
    pooled = run_pipeline(train, test, SPEC, setup=1)
    assert len(pooled) == len(test) - 24
    assert all(isinstance(p, PooledPrediction) for p in pooled)


def test_setup1_runs_a_single_round(gappy_pair):
    train, test = gappy_pair
    pooled = run_pipeline(train, test, SPEC, setup=1, n_rounds=7)
    assert all(p.n_rounds == 1 for p in pooled)
    assert all(p.between_var == 0.0 for p in pooled)
    assert all(p.total_var == p.within_var for p in pooled)


def test_setup2_shares_within_variance_with_setup1(gappy_pair):
    train, test = gappy_pair
    s1 = run_pipeline(train, test, SPEC, setup=1, seed=5)
    s2 = run_pipeline(train, test, SPEC, setup=2, n_rounds=4, seed=5)
    # same deterministic train completion, same model: identical within term
    assert all(a.within_var == b.within_var for a, b in zip(s1, s2))
    assert all(p.n_rounds == 4 for p in s2)


def test_stochastic_test_rounds_add_between_variance(gappy_pair):
    train, test = gappy_pair
    s1 = run_pipeline(train, test, SPEC, setup=1, seed=5)
    s2 = run_pipeline(train, test, SPEC, setup=2, n_rounds=4, seed=5)
    s3 = run_pipeline(train, test, SPEC, setup=3, n_rounds=4, seed=5)
    assert max(p.between_var for p in s2) > 0.0
    assert max(p.between_var for p in s3) > 0.0
    assert np.mean([p.total_var for p in s2]) > np.mean([p.total_var for p in s1])
    assert np.mean([p.total_var for p in s3]) > np.mean([p.total_var for p in s1])


def test_complete_data_collapses_all_setups(complete_pair):
    # nothing to impute: every round sees the same series, so extra rounds
    # change nothing but the recorded round count
    train, test = complete_pair
    s1 = run_pipeline(train, test, SPEC, setup=1, seed=0)
    s2 = run_pipeline(train, test, SPEC, setup=2, n_rounds=4, seed=0)
    s3 = run_pipeline(train, test, SPEC, setup=3, n_rounds=4, seed=0)
    for a, b, c in zip(s1, s2, s3):
        assert a.mean == b.mean == c.mean
        assert a.total_var == b.total_var == c.total_var
        assert b.between_var == c.between_var == 0.0


def test_same_seed_reproduces_different_seed_varies(gappy_pair):
    train, test = gappy_pair
    a = run_pipeline(train, test, SPEC, setup=3, n_rounds=3, seed=11)
    b = run_pipeline(train, test, SPEC, setup=3, n_rounds=3, seed=11)
    c = run_pipeline(train, test, SPEC, setup=3, n_rounds=3, seed=12)
    assert a == b
    assert any(x.mean != y.mean for x, y in zip(a, c))


def test_k1_model_on_identical_series_recovers_truth(complete_pair):
    # train == test and k=1: every test input is its own training row, so the
    # forecast is exactly the next hour's power; the variance is the 1-NN
    # leave-one-out residual variance of the training rows, not the zero
    # in-sample residual of an interpolator
    train, _ = complete_pair
    pooled = run_pipeline(train, train, RegressorSpec("knn", {"k": 1}), setup=1)
    assert len(pooled) == len(train) - 24

    ds = build_training(train)
    xs = (ds.inputs - ds.inputs.mean(axis=0)) / ds.inputs.std(axis=0)
    loo_sq = []
    for i in range(len(ds)):
        d2 = ((xs - xs[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        loo_sq.append((ds.targets[np.argmin(d2)] - ds.targets[i]) ** 2)
    loo_var = float(np.mean(loo_sq))

    for i, p in enumerate(pooled):
        assert p.mean == train.power[24 + i]
        assert p.between_var == 0.0
        assert p.total_var == p.within_var
        assert p.total_var == pytest.approx(loo_var, rel=1e-12)



def test_round_variance_is_loo_for_knn_and_in_sample_for_lasso(complete_pair):
    train, test = complete_pair
    ds = build_training(train)
    knn = run_pipeline(train, test, SPEC, setup=1)[0]
    assert knn.within_var == fit(SPEC, ds).loo_residual_variance()
    lasso_spec = RegressorSpec("lasso", {"lam": 0.01})
    lasso = run_pipeline(train, test, lasso_spec, setup=1)[0]
    assert lasso.within_var == residual_variance(fit(lasso_spec, ds), ds)


def test_sampler_k_is_honoured(gappy_pair):
    train, _ = gappy_pair
    assert fit_sampler(train, k=3).k == 3
    auto = fit_sampler(train, k=None)
    assert auto.k == fit_sampler(train).k
