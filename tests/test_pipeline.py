"""End-to-end pipeline: impute, fit, forecast, pool, for all three setups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvmi import (
    MissingSpec,
    PooledPrediction,
    RegressorSpec,
    SynthSpec,
    build_training,
    complete_series,
    fit,
    fit_sampler,
    generate,
    inject_missing,
    residual_variance,
    rubin_pool,
    run_pipeline,
    split_chronological,
)
from pvmi.missingness import MODE_FRACTION
from pvmi.models import KNNRegressor
from pvmi.pipeline import SETUPS, Completions, Pipeline, _round_variance

pytestmark = pytest.mark.threaded_blas

SPEC = RegressorSpec("knn", {"k": 3})
FAMILY_SPECS = {
    "knn": SPEC,
    "lasso": RegressorSpec("lasso", {"lam": 0.01}),
    "mlp": RegressorSpec("mlp", {"hidden": (8, 4), "iterations": 40}, seed=2),
}


def reference_run_pipeline(train, test, spec, setup, n_rounds=5, seed=0, sampler_k=None):
    """Reference oracle: the pipeline as one plain loop over rounds, in which
    every round completes both series from scratch and predicts every test
    row with one batch."""
    b_total = 1 if setup == 1 else n_rounds
    sampler = fit_sampler(train, k=sampler_k)
    if setup in (1, 2):
        train_ds = build_training(complete_series(train, sampler))
        shared_model = fit(spec, train_ds)
        shared_var = _round_variance(shared_model, train_ds)
    means, variances = [], []
    for b in range(1, b_total + 1):
        rng = np.random.default_rng([seed, b])
        if setup == 3:
            train_ds = build_training(complete_series(train, sampler, rng))
            model = fit(spec, train_ds)
            var = _round_variance(model, train_ds)
        else:
            model, var = shared_model, shared_var
        test_b = complete_series(test, sampler, None if setup == 1 else rng)
        means.append(model.predict(build_training(test_b).inputs))
        variances.append(var)
    # each hour pooled alone, as a (B, 1) stack
    return [
        rubin_pool(np.array([[m[i]] for m in means]), np.array(variances)).hours()[0]
        for i in range(len(means[0]))
    ]


def gap_free_rows(test):
    """True for each test row whose 24-hour input window holds no gap."""
    return np.array([not test.mask[i:i + 24].any() for i in range(len(test) - 24)])


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
    # a bool is never a number and a float never an integer: each is
    # rejected, not truncated; setup 1 runs one round but checks the count
    train, test = complete_pair
    for name, kwargs in [
        ("setup", {"setup": 0}),
        ("setup", {"setup": 4}),
        ("setup", {"setup": True}),
        ("setup", {"setup": 2.0}),
        ("n_rounds", {"setup": 2, "n_rounds": 0}),
        ("n_rounds", {"setup": 2, "n_rounds": 2.5}),
        ("n_rounds", {"setup": 2, "n_rounds": True}),
        ("n_rounds", {"setup": 1, "n_rounds": 2.5}),
        ("seed", {"setup": 2, "seed": True}),
        ("seed", {"setup": 2, "seed": 2.5}),
        ("seed", {"setup": 2, "seed": -1}),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run_pipeline(train, test, SPEC, **kwargs)
    numpy_ints = run_pipeline(train, test, SPEC, np.int64(2), np.int64(2), np.int64(3))
    assert numpy_ints == run_pipeline(train, test, SPEC, 2, 2, 3)


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


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
@pytest.mark.parametrize("setup", (1, 2, 3))
@pytest.mark.parametrize("test_gaps", [True, False])
def test_matches_the_per_round_reference(complete_pair, gappy_pair, family, setup, test_gaps):
    # kNN rows do not depend on the batch they are predicted in; lasso and MLP
    # rows may move by BLAS rounding, since setups 1-2 predict only the
    # windows that hold a gap in each round
    train = gappy_pair[0]
    test = gappy_pair[1] if test_gaps else complete_pair[1]
    spec = FAMILY_SPECS[family]
    new = run_pipeline(train, test, spec, setup=setup, n_rounds=3, seed=4, sampler_k=5)
    ref = reference_run_pipeline(train, test, spec, setup=setup, n_rounds=3, seed=4, sampler_k=5)
    if family == "knn" or setup == 3:
        assert new == ref
        return
    for name in ("mean", "within_var", "between_var", "total_var"):
        got = np.array([getattr(p, name) for p in new])
        want = np.array([getattr(p, name) for p in ref])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)
    assert [p.n_rounds for p in new] == [p.n_rounds for p in ref]


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
@pytest.mark.parametrize("setup", (1, 2))
def test_gap_free_windows_have_exactly_zero_between_variance(gappy_pair, family, setup):
    # the shared model's forecast of a window with no gap is the same in every
    # round, so it must not pick up rounding noise from the batch it is in or
    # from pooling: B equal doubles' exact sum divided by B = 3 or 5 can miss
    # them by an ulp (B = 4 divides exactly)
    train, test = gappy_pair
    free = gap_free_rows(test)
    assert 0 < free.sum() < free.size
    spec = FAMILY_SPECS[family]
    shared = Pipeline(Completions(train, test, fit_sampler(train)), spec).gap_free_means
    for n_rounds in (3, 4, 5):
        pooled = run_pipeline(train, test, spec, setup=setup, n_rounds=n_rounds, seed=9)
        between = np.array([p.between_var for p in pooled])
        assert np.all(between[free] == 0.0)
        assert np.array_equal(np.array([p.mean for p in pooled])[free], shared)
        if setup == 2:
            assert np.any(between[~free] > 0.0)


@settings(max_examples=50, deadline=None)
@given(family=st.sampled_from(("knn", "lasso")),
       requests=st.lists(st.tuples(st.sampled_from(SETUPS), st.integers(1, 5),
                                   st.sampled_from((4, 9))), min_size=1, max_size=6))
def test_any_order_of_poolings_gives_the_bits_of_a_fresh_pipeline(gappy_pair, family,
                                                                  requests):
    # round b depends only on (setup, seed, b), so a pooling that reuses,
    # extends or takes the first of an earlier pooling's rounds must equal
    # one computed from scratch
    train, test = gappy_pair
    spec = FAMILY_SPECS[family]
    pipeline = Pipeline(Completions(train, test, fit_sampler(train, k=5)), spec)
    for setup, n_rounds, seed in requests:
        got = pipeline.pool(setup, n_rounds, seed).hours()
        assert got == run_pipeline(train, test, spec, setup, n_rounds, seed, sampler_k=5)


def test_a_longer_pooling_fits_and_predicts_only_its_new_rounds(gappy_pair, monkeypatch):
    import pvmi.models

    train, test = gappy_pair
    completions = Completions(train, test, fit_sampler(train))
    fresh = [Pipeline(completions, SPEC).pool(setup, 2, seed=4) for setup in (1, 2, 3)]
    pipeline = Pipeline(completions, SPEC)
    for setup in (1, 2, 3):
        pipeline.pool(setup, 3, seed=4)
    calls = {"fit": 0, "predict": 0, "train_draw": [], "test_draw": []}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def drawn(name, fn):
        def wrapper(self, rng):
            calls[name].append(rng.bit_generator.seed_seq.entropy[1] - 1)  # round b
            return fn(self, rng)
        return wrapper

    monkeypatch.setattr(pvmi.models, "fit", counted("fit", pvmi.models.fit))
    monkeypatch.setattr(KNNRegressor, "predict", counted("predict", KNNRegressor.predict))
    for name in ("train_draw", "test_draw"):
        monkeypatch.setattr(Completions, name, drawn(name, getattr(Completions, name)))

    for setup in (1, 2, 3):
        assert pipeline.pool(setup, 5, seed=4).n_rounds == (1 if setup == 1 else 5)
    # setup 3 fits rounds 3 and 4; setups 2 and 3 each predict them
    assert calls == {"fit": 2, "predict": 4, "train_draw": [3, 4], "test_draw": [3, 4, 3, 4]}

    calls.update(fit=0, predict=0, train_draw=[], test_draw=[])
    # a shorter pooling takes the first rounds, not the last
    assert [pipeline.pool(setup, 2, seed=4) for setup in (1, 2, 3)] == fresh
    assert calls == {"fit": 0, "predict": 0, "train_draw": [], "test_draw": []}


def test_a_pooling_that_raises_keeps_the_rounds_it_finished(gappy_pair, monkeypatch):
    # round b depends only on (setup, seed, b), so the rounds finished before
    # a failing one stay valid, and later poolings compute only the others
    import pvmi.models

    train, test = gappy_pair
    completions = Completions(train, test, fit_sampler(train))
    fresh = {b: Pipeline(completions, SPEC).pool(3, b, seed=4) for b in (2, 4)}
    pipeline = Pipeline(completions, SPEC)
    fit_calls, drawn, predicted = [], [], []
    fit_original, train_draw_original = pvmi.models.fit, Completions.train_draw
    predict_original = KNNRegressor.predict

    def third_fit_fails(spec, data):
        fit_calls.append(spec)
        if len(fit_calls) == 3:
            raise RuntimeError("third fit")
        return fit_original(spec, data)

    def train_draw(self, rng):
        drawn.append(rng.bit_generator.seed_seq.entropy[1] - 1)  # round b
        return train_draw_original(self, rng)

    def predict(self, x):
        predicted.append(len(x))
        return predict_original(self, x)

    monkeypatch.setattr(pvmi.models, "fit", third_fit_fails)
    monkeypatch.setattr(Completions, "train_draw", train_draw)
    monkeypatch.setattr(KNNRegressor, "predict", predict)
    with pytest.raises(RuntimeError, match="third fit"):
        pipeline.pool(3, 4, seed=4)
    assert drawn == [0, 1, 2]

    for log in (fit_calls, drawn, predicted):
        log.clear()
    assert pipeline.pool(3, 2, seed=4) == fresh[2]
    assert (fit_calls, drawn, predicted) == ([], [], [])

    monkeypatch.setattr(pvmi.models, "fit", fit_original)
    assert pipeline.pool(3, 4, seed=4) == fresh[4]
    assert drawn == [2, 3]
    assert len(predicted) == 2
