"""Regressor families, shared scaling, and chronological tuning."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvmi
from pvmi import CollinearDesignError, DataError, InsufficientDataError
from pvmi.features import SupervisedDataset
from pvmi.models import (
    FeatureScaler,
    KNNRegressor,
    LassoRegressor,
    MLPRegressor,
    RegressorSpec,
    default_knn_grid,
    default_lasso_grid,
    expanding_window_folds,
    fit,
    lambda_max,
    residual_variance,
    tune_chronological,
)
from pvmi.models import knn
from pvmi.models.mlp import init_params, loss_and_grads


def make_dataset(rng, n, target_fn=None):
    """Random 48-feature dataset; targets from target_fn(inputs) if given."""
    inputs = rng.normal(size=(n, 48))
    if target_fn is None:
        targets = rng.normal(size=n)
    else:
        targets = target_fn(inputs)
    return SupervisedDataset(inputs=inputs, targets=targets)


# ---------------------------------------------------------------- scaling


def test_scaler_standardizes_columns(rng):
    x = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
    xs = FeatureScaler.fit(x).transform(x)
    assert np.allclose(xs.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(xs.std(axis=0), 1.0, atol=1e-12)


def test_scaler_constant_column_passes_through_as_zeros(rng):
    x = rng.normal(size=(50, 3))
    x[:, 1] = 7.0
    scaler = FeatureScaler.fit(x)
    assert scaler.std[1] == 1.0  # unit divisor instead of 0
    assert np.all(scaler.transform(x)[:, 1] == 0.0)


@pytest.mark.parametrize("value, n", [(0.1, 3), (2.7, 456)])
def test_scaler_maps_an_inexact_constant_to_exact_zeros(rng, value, n):
    # the float mean of n copies of these values is not the value itself, so
    # mean and std alone would leave a std of ~1e-17 and a column of +-1.0
    x = rng.normal(size=(n, 2))
    x[:, 0] = value
    scaler = FeatureScaler.fit(x)
    assert scaler.std[0] == 1.0
    assert np.all(scaler.transform(x)[:, 0] == 0.0)


@settings(max_examples=150, deadline=None)
@given(width=st.sampled_from([1, 2, 5, 48, 49]), rows=st.integers(1, 400),
       seed=st.integers(0, 2**32 - 1), constant=st.sets(st.integers(0, 48)),
       offset=st.sampled_from([0.0, 0.1, 1e3]), contiguous=st.booleans())
def test_scaler_std_is_numpy_std_and_one_on_constant_columns(width, rows, seed, constant,
                                                             offset, contiguous):
    # numpy's std of each varying column, bit for bit, and 1 for each constant
    # one, whatever the width, on contiguous inputs (as the windowed datasets
    # are) and views
    rng = np.random.default_rng(seed)
    x = rng.normal(offset, rng.uniform(1e-3, 1e3, width + 1), size=(rows, width + 1))[:, 1:]
    if contiguous:
        x = np.ascontiguousarray(x)
    for j in constant & set(range(width)):
        x[:, j] = offset + j / 7.0
    scaler = FeatureScaler.fit(x)
    varying = np.ptp(x, axis=0) != 0
    assert scaler.std[varying].tobytes() == x.std(axis=0)[varying].tobytes()
    assert np.all(scaler.std[~varying] == 1.0)


# ------------------------------------------------------------------ spec


def test_spec_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        RegressorSpec(family="forest")


def test_spec_copies_hyperparameters():
    hp = {"k": 3}
    spec = RegressorSpec(family="knn", hyperparameters=hp)
    hp["k"] = 99
    assert spec.hyperparameters["k"] == 3


@pytest.mark.parametrize(
    "family, hp, key",
    [("lasso", {"lamda": 0.5}, "lamda"), ("knn", {"K": 2}, "K"),
     ("lasso", {"lam": 0.1, "tol": 1e-3}, "tol"), ("mlp", {"seed": 3}, "seed")],
)
def test_spec_rejects_unknown_hyperparameters(family, hp, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        RegressorSpec(family, hp)


@pytest.mark.parametrize("family, hp, key", [
    ("knn", {"k": 2.5}, "k"),
    ("knn", {"k": True}, "k"),
    ("knn", {"k": "3"}, "k"),
    ("mlp", {"iterations": 5.7}, "iterations"),
    ("mlp", {"hidden": [4.9, 3]}, "hidden"),
    ("mlp", {"hidden": [4, 3, 2]}, "hidden"),
    ("mlp", {"hidden": 4}, "hidden"),
    ("mlp", {"hidden": [True, 3]}, "hidden"),
    ("mlp", {"learning_rate": "0.01"}, "learning_rate"),
    ("lasso", {"lam": False}, "lam"),
    ("lasso", {"lam": None}, "lam"),
    ("mlp", {"seed": 1.5}, "seed"),
    ("mlp", {"hidden": (4.9, 3)}, "hidden"),
    ("lasso", {"lam": True}, "lam"),
    ("mlp", {"seed": -1}, "seed"),
    ("mlp", {"seed": True}, "seed"),
    ("mlp", {"learning_rate": float("nan")}, "learning_rate"),
    ("lasso", {"lam": float("nan")}, "lam"),
    ("lasso", {"lam": float("inf")}, "lam"),
])
def test_spec_rejects_a_value_of_the_wrong_type(rng, family, hp, key):
    # each used to run truncated (k 2.5 as 2, hidden [4.9, 3] as (4, 3)) or
    # fail late inside the fit (seed 1.5 with a bare TypeError), both in the
    # spec and in the family's own fit; a "seed" entry here is the spec's own
    # field, not a hyperparameter, and the MLP fit's seed argument
    hp = dict(hp)
    seed = hp.pop("seed", 0)
    with pytest.raises(ValueError, match=f"^{key} must be "):
        RegressorSpec(family, hp, seed)
    regressor = {"knn": KNNRegressor, "lasso": LassoRegressor, "mlp": MLPRegressor}[family]
    with pytest.raises(ValueError, match=f"^{key} must be "):
        regressor.fit(rng.normal(size=(6, 2)), rng.normal(size=6), **hp,
                      **({"seed": seed} if family == "mlp" else {}))


@pytest.mark.parametrize("hp", [5, [5], None, "k"])
def test_spec_rejects_hyperparameters_that_are_not_a_mapping(hp):
    # each raised a bare TypeError from dict(...), or read a string as keys
    with pytest.raises(ValueError, match="^hyperparameters must be a mapping"):
        RegressorSpec("knn", hp)


def test_spec_takes_the_types_of_the_fit_defaults():
    # a numpy scalar is stored as the Python number it holds
    assert type(RegressorSpec("knn", {"k": np.int64(3)}).hyperparameters["k"]) is int
    assert type(RegressorSpec("lasso", {"lam": 0}).hyperparameters["lam"]) is int
    assert type(RegressorSpec("lasso", {"lam": np.float64(0.1)}).hyperparameters["lam"]) is float
    RegressorSpec("mlp", {"hidden": [4, 3], "learning_rate": 1, "iterations": 5})
    hidden = RegressorSpec("mlp", {"hidden": (np.int32(4), 3)}).hyperparameters["hidden"]
    assert hidden == (4, 3) and type(hidden[0]) is int
    # and the family's own fit takes them too
    x, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    assert type(KNNRegressor.fit(x, y, k=np.int64(3)).k) is int
    mlp = MLPRegressor.fit(x, y, hidden=(np.int32(4), 3), learning_rate=np.float32(0.5),
                           iterations=np.int64(2), seed=np.uint8(1))
    assert mlp.hidden == (4, 3) and type(mlp.hidden[0]) is int
    assert LassoRegressor.fit(x, y, lam=np.float64(0.1)).lam == 0.1


def test_fit_defaults_come_from_the_family(rng):
    data = make_dataset(rng, 100, target_fn=lambda x: x[:, 0])
    assert fit(RegressorSpec("knn"), data).k == 8
    lasso = fit(RegressorSpec("lasso"), data)
    assert lasso.lam == 0.0
    assert np.array_equal(lasso.coef_, LassoRegressor.fit(data.inputs, data.targets).coef_)


# ------------------------------------------------------------------- knn


def test_knn_k1_reproduces_training_targets(rng):
    data = make_dataset(rng, 30)
    model = KNNRegressor.fit(data.inputs, data.targets, k=1)
    # every training row is its own nearest neighbour at distance zero
    assert np.array_equal(model.predict(data.inputs), data.targets)


def test_knn_k_equal_n_predicts_global_mean(rng):
    data = make_dataset(rng, 25)
    model = KNNRegressor.fit(data.inputs, data.targets, k=25)
    pred = model.predict(rng.normal(size=(4, 48)))
    assert np.allclose(pred, data.targets.mean(), atol=1e-12)


def test_knn_matches_brute_force_neighbour_search(rng):
    train_x = rng.normal(size=(60, 48))
    train_y = rng.normal(size=60)
    model = KNNRegressor.fit(train_x, train_y, k=5)
    queries = rng.normal(size=(20, 48))

    scaler = FeatureScaler.fit(train_x)
    xs, qs = scaler.transform(train_x), scaler.transform(queries)
    expected = []
    for q in qs:
        d2 = ((xs - q) ** 2).sum(axis=1)
        expected.append(train_y[np.argsort(d2, kind="stable")[:5]].mean())
    assert np.allclose(model.predict(queries), expected, atol=1e-9)


def oracle_nearest(xs, q, k, own=None):
    """Brute force: the k training rows with the smallest float64 distance
    ``((xs - q) ** 2).sum(axis=1)``, ties to the smaller index, in ascending
    index order; ``own`` is left out."""
    d2 = ((xs - q) ** 2).sum(axis=1)
    ranked = np.lexsort((np.arange(len(xs)), d2))
    if own is not None:
        ranked = ranked[ranked != own]
    return np.sort(ranked[:k])


def assert_knn_matches_the_oracle(model, x, y, queries):
    """``predict`` and ``loo_residual_variance`` equal the oracle's targets,
    averaged in index order, bit for bit."""
    xs, qs = model.scaler.transform(x), model.scaler.transform(queries)
    expected = [y[oracle_nearest(xs, q, model.k)].mean() for q in qs]
    np.testing.assert_array_equal(model.predict(queries), expected)
    if model.k < len(x):
        resid = np.array([y[oracle_nearest(xs, xs[i], model.k, own=i)].mean() - y[i]
                          for i in range(len(x))])
        assert model.loo_residual_variance() == np.mean(resid ** 2)


@st.composite
def knn_cases(draw):
    """Training rows, targets, queries, k and a chunk budget, with exact
    duplicates, mirrored near-ties 1e-12 apart, constant features, one
    huge-norm training row or query, and more rows than residue classes."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(129, 300)))
    p = draw(st.sampled_from([1, 2, 5, 48]))
    k = draw(st.one_of(st.just(1), st.just(n), st.just(n - 1), st.integers(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # few levels: exact duplicates and exact ties
        x = rng.integers(0, 3, size=(n, p)).astype(float)
    else:
        x = rng.normal(size=(n, p))
    queries = [rng.normal(size=(3, p)), x[rng.integers(0, n, size=3)]]
    if n >= 4 and draw(st.booleans()):  # mirrored pairs around a query
        centre = rng.normal(size=p)
        step = 1e-12 * rng.normal(size=p)
        i, j = rng.choice(n, size=2, replace=False)
        x[i], x[j] = centre + step, centre - step
        queries.append(centre[None, :])
    if draw(st.booleans()):
        x[:, rng.integers(0, p)] = draw(st.sampled_from([0.0, 0.1, -7.5]))
    outlier = draw(st.sampled_from([None, "row", "query"]))
    scale = draw(st.sampled_from([1e3, 1e30, 1e100]))
    if outlier == "row":
        x[rng.integers(0, n)] *= scale
    elif outlier == "query":
        queries.append(scale * rng.normal(size=(1, p)))
    budget = draw(st.sampled_from([4 * n, 4 * n * 7, knn._CHUNK_BYTES]))
    return x, rng.normal(size=n), np.vstack(queries), k, budget


@pytest.mark.threaded_blas
@settings(max_examples=300, deadline=None)
@given(case=knn_cases())
def test_knn_equals_the_float64_oracle(case):
    # the float32 filter must never drop a neighbour of the exact search,
    # whatever the chunk (one row, seven, the default)
    x, y, queries, k, budget = case
    with mock.patch.object(knn, "_CHUNK_BYTES", budget):
        model = KNNRegressor.fit(x, y, k=k)
        assert_knn_matches_the_oracle(model, x, y, queries)


@pytest.mark.threaded_blas
@pytest.mark.parametrize("k", [1, 4, 299])
def test_knn_equals_the_float64_oracle_on_pv_windows(pv_windows, monkeypatch, k):
    # strongly correlated lags with exact night duplicates, in 24-row chunks
    x, y = pv_windows
    monkeypatch.setattr(knn, "_CHUNK_BYTES", 4 * 300 * 24)
    assert_knn_matches_the_oracle(KNNRegressor.fit(x[:300], y[:300], k=k), x[:300], y[:300], x)


def ring_rows(rng, n, noise):
    """``n`` rows near a ring in a random plane of 48-D space: 24 angles, as
    hourly PV windows have, radii 1-3, and ``noise`` in every direction."""
    basis = np.linalg.qr(rng.normal(size=(48, 2)))[0].T
    theta = 2 * np.pi * rng.integers(0, 24, n) / 24 + 0.05 * rng.normal(size=n)
    r = rng.uniform(1.0, 3.0, n)
    ring = (r * np.cos(theta))[:, None] * basis[0] + (r * np.sin(theta))[:, None] * basis[1]
    return ring + noise * rng.normal(size=(n, 48)), basis


@st.composite
def ring_cases(draw):
    """Ring rows in +- pairs, so that their mean is 0 and the ring's plane is
    the model's, with exact duplicates; a query on the ring at radius 2 with
    two training rows at the feet of the rays arcsin(d / 2) either side of
    it, both at distance d: a tie at the edge of its window when they are
    its nearest. Queries, k and a chunk budget as in ``knn_cases``, and a
    chunk cost of 1, which keeps chunks narrow on records this short."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = draw(st.integers(2, 150))
    rows, basis = ring_rows(rng, half, draw(st.sampled_from([0.0, 1e-3, 0.03])))
    if draw(st.booleans()):
        rows[rng.integers(0, half, size=3)] = rows[rng.integers(0, half, size=3)]
    theta, phi = rng.uniform(-np.pi, np.pi), draw(st.floats(1e-3, 1.2))
    for i, side in zip(rng.choice(half, size=2, replace=False), (-1, 1)):
        angle = theta + side * phi
        rows[i] = 2.0 * np.cos(phi) * (np.cos(angle) * basis[0] + np.sin(angle) * basis[1])
    x = np.empty((2 * half, 48))
    x[0::2], x[1::2] = rows, -rows
    n = len(x)
    query = 2.0 * (np.cos(theta) * basis[0] + np.sin(theta) * basis[1])
    near = x[rng.integers(0, n, 5)] + 1e-3 * rng.normal(size=(5, 48))
    queries = np.vstack([query, near, x[rng.integers(0, n, 3)]])
    k = draw(st.one_of(st.just(1), st.just(2), st.just(n - 1), st.integers(1, n)))
    budget = draw(st.sampled_from([4 * n, 4 * n * 7, knn._CHUNK_BYTES]))
    cost = draw(st.sampled_from([1, knn._CHUNK_COST]))
    return x, rng.normal(size=n), queries, k, budget, cost


@pytest.mark.threaded_blas
@settings(max_examples=300, deadline=None)
@given(case=ring_cases())
def test_knn_window_equals_the_float64_oracle_on_ring_rows(case):
    # the angular window must never drop a neighbour: with duplicates, ties
    # at its edge and leave-one-out, in chunks of one row, seven, the default
    x, y, queries, k, budget, cost = case
    with mock.patch.multiple(knn, _CHUNK_BYTES=budget, _CHUNK_COST=cost):
        model = KNNRegressor(FeatureScaler(np.zeros(48), np.ones(48)), x, y, k)
        assert_knn_matches_the_oracle(model, x, y, queries)


def test_knn_invariant_to_feature_rescaling(rng):
    train_x = rng.normal(size=(40, 6))
    train_y = rng.normal(size=40)
    queries = rng.normal(size=(10, 6))
    scale = rng.uniform(0.5, 100.0, size=6)
    shift = rng.normal(scale=10.0, size=6)

    a = KNNRegressor.fit(train_x, train_y, k=3).predict(queries)
    b = KNNRegressor.fit(train_x * scale + shift, train_y, k=3).predict(
        queries * scale + shift
    )
    assert np.allclose(a, b, atol=1e-9)


def test_knn_rejects_bad_k(rng):
    data = make_dataset(rng, 10)
    with pytest.raises(ValueError, match="k must lie"):
        KNNRegressor.fit(data.inputs, data.targets, k=0)
    with pytest.raises(ValueError, match="k must lie"):
        KNNRegressor.fit(data.inputs, data.targets, k=11)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_knn_loo_variance_matches_brute_force(rng, k):
    # 600 rows span two query chunks of the distance pass
    data = make_dataset(rng, 600)
    xs = (data.inputs - data.inputs.mean(axis=0)) / data.inputs.std(axis=0)
    sq = []
    for i in range(len(data)):
        d2 = ((xs - xs[i]) ** 2).sum(axis=1)
        others = np.delete(np.arange(len(data)), i)
        nearest = others[np.argsort(d2[others])[:k]]
        sq.append((data.targets[nearest].mean() - data.targets[i]) ** 2)
    model = KNNRegressor.fit(data.inputs, data.targets, k=k)
    assert model.loo_residual_variance() == pytest.approx(np.mean(sq), rel=1e-12)


def test_knn_loo_variance_excludes_self_among_tied_inputs():
    # identical inputs, targets 4 and 6: at k=1 each row's only other
    # neighbour is the other row, so both leave-one-out residuals are 2
    model = KNNRegressor.fit(np.zeros((2, 48)), np.array([4.0, 6.0]), k=1)
    assert model.loo_residual_variance() == 4.0


@pytest.mark.threaded_blas
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_knn_ties_go_to_the_smaller_index(k):
    # +-1 inputs with every column balanced standardize to themselves, so
    # each squared distance is an exact integer and ties are exact; rows
    # 10-13 duplicate row 3, and rows 40-43 its mirror, row 33, each with
    # its own target. The second input adds rows 20-27 as duplicates of row
    # 15: a run of 9, longer than k + 2, whose last rows are not among their
    # own k + 1 nearest, so leave-one-out drops the last of those instead.
    rng = np.random.default_rng(5)
    half = np.where(rng.random((30, 48)) < 0.5, -1.0, 1.0)
    half[10:14] = half[3]
    long_run = half.copy()
    long_run[20:28] = half[15]
    y = rng.normal(size=60)
    for h in (half, long_run):
        x = np.vstack([h, -h])
        model = KNNRegressor.fit(x, y, k=k)
        assert np.array_equal(model.scaler.transform(x), x)

        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        order = np.arange(len(x))
        nearest = [np.sort(np.lexsort((order, row))[:k]) for row in d2]
        np.testing.assert_allclose(model.predict(x), [y[i].mean() for i in nearest],
                                   rtol=1e-12, atol=1e-12)
        assert model.predict(x[3])[0] == y[np.array([3, 10, 11, 12, 13])[:k]].mean()

        np.fill_diagonal(d2, np.inf)
        loo = [y[np.sort(np.lexsort((order, row))[:k])].mean() - y[i]
               for i, row in enumerate(d2)]
        assert model.loo_residual_variance() == pytest.approx(np.mean(np.square(loo)),
                                                              rel=1e-12)


@pytest.mark.threaded_blas
def test_knn_results_do_not_depend_on_the_chunk_size(pv_windows, monkeypatch):
    x, y = pv_windows
    model = KNNRegressor.fit(x[:300], y[:300], k=4)
    queries = np.vstack([x[300:], x[:20]])  # 20 rows that are training rows
    expected = model.predict(queries), model.loo_residual_variance()
    for budget in (4 * 300, 4 * 300 * 300):  # one row, every row
        monkeypatch.setattr(knn, "_CHUNK_BYTES", budget)
        assert np.array_equal(model.predict(queries), expected[0])
        assert model.loo_residual_variance() == expected[1]


@pytest.mark.threaded_blas
@pytest.mark.parametrize("n_train", [100, 600, 2700, 3000])
def test_knn_row_predicts_the_same_alone_and_in_a_batch(n_train):
    # each query sits halfway between two training rows, so its nearest
    # neighbour is decided by the last bits of the distances: those must not
    # depend on how many other rows share the query's batch. The tied rows
    # come first, then last, where a BLAS kernel's remainder block falls.
    rng = np.random.default_rng(n_train)
    queries = rng.normal(size=(60, 48))
    step = 1e-4 * rng.normal(size=queries.shape)
    tied, other = np.vstack([queries + step, queries - step]), rng.normal(size=(n_train, 48))
    for x, first in ((np.vstack([tied, other]), 0), (np.vstack([other, tied]), n_train)):
        model = KNNRegressor.fit(x, np.arange(len(x), dtype=float), k=1)
        batch = model.predict(queries)
        alone = np.array([model.predict(queries[i:i + 1])[0] for i in range(len(queries))])
        np.testing.assert_array_equal(alone, batch)
        assert np.all((first <= batch) & (batch < first + len(tied)))  # a mirrored row won


def test_knn_loo_leaves_its_own_row_out_when_the_filter_keeps_every_row():
    # rows of 1e20 have squared norms past float32 range, so every
    # threshold is +inf and the filter keeps every column: the refine ranks
    # them all, and leave-one-out drops the row's own index from its k + 1
    # nearest. Rows 0-4 and 5-9 are pairwise apart.
    rng = np.random.default_rng(3)
    x = 1e20 * np.vstack([np.eye(5), np.eye(5) + 1e-3 * rng.random((5, 5))])
    y = rng.normal(size=10)
    model = KNNRegressor(FeatureScaler(np.zeros(5), np.ones(5)), x, y, k=1)
    assert_knn_matches_the_oracle(model, x, y, x)


def test_knn_peak_memory_stays_flat(rng):
    # a year of hourly windows; one full distance matrix would be 350 MB
    x = rng.normal(size=(6600, 48))
    model = KNNRegressor.fit(x, rng.normal(size=6600), k=8)
    tracemalloc.start()
    try:
        model.loo_residual_variance()
        model.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_knn_peak_memory_stays_flat_on_ring_data(rng):
    # windows narrow enough for chunks of hundreds of query rows
    x, _ = ring_rows(rng, 6600, 0.01)
    model = KNNRegressor.fit(x, rng.normal(size=6600), k=8)
    tracemalloc.start()
    try:
        model.loo_residual_variance()
        model.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_knn_search_reads_a_fraction_of_the_columns_on_pv_windows(pv_windows, monkeypatch):
    # a full scan reads every column once; thresholds and windows read under
    # 30% here. Chunks are priced by their width alone: at the default fixed
    # cost per chunk, a record this short is cheapest read whole.
    x, y = pv_windows
    model = KNNRegressor.fit(x, y, k=4)
    monkeypatch.setattr(knn, "_CHUNK_COST", 1)
    read = []
    products = KNNRegressor._products

    def counted(self, *args):
        f, first = products(self, *args)
        read.append(f.size)
        return f, first

    monkeypatch.setattr(KNNRegressor, "_products", counted)
    model.loo_residual_variance()
    assert sum(read) <= 0.3 * len(x) ** 2
    read.clear()
    model.predict(x)
    assert sum(read) <= 0.3 * len(x) ** 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_predict_rejects_a_non_finite_query_entry(rng, bad):
    data = make_dataset(rng, 50)
    model = KNNRegressor.fit(data.inputs, data.targets, k=3)
    queries = rng.normal(size=(4, 48))
    queries[2, 17] = bad
    with pytest.raises(DataError, match="NaN or infinite"):
        model.predict(queries)
    with pytest.raises(DataError, match="NaN or infinite"):
        model.predict(queries[2])  # a single row
    assert np.isfinite(model.predict(queries[[0, 1, 3]])).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fit_model", [
    lambda x, y: LassoRegressor.fit(x, y, lam=0.1),
    lambda x, y: MLPRegressor.fit(x, y, hidden=(4, 3), iterations=5),
], ids=["lasso", "mlp"])
def test_linear_and_mlp_predict_reject_a_non_finite_query_entry(rng, fit_model, bad):
    # a NaN would come back as a NaN forecast, and +inf through inf * 0 on a
    # zero lasso coefficient
    data = make_dataset(rng, 50)
    model = fit_model(data.inputs, data.targets)
    queries = rng.normal(size=(4, 48))
    queries[2, 17] = bad
    with pytest.raises(DataError, match="NaN or infinite"):
        model.predict(queries)
    with pytest.raises(DataError, match="NaN or infinite"):
        model.predict(queries[2])  # a single row
    assert np.isfinite(model.predict(queries[[0, 1, 3]])).all()


def test_knn_loo_variance_needs_k_below_n(rng):
    data = make_dataset(rng, 10)
    model = KNNRegressor.fit(data.inputs, data.targets, k=10)
    with pytest.raises(InsufficientDataError, match="leave-one-out"):
        model.loo_residual_variance()


# ----------------------------------------------------------------- lasso


def test_lasso_single_feature_soft_threshold(rng):
    # with one standardized feature and noiseless y = 2*xs, the coordinate
    # minimizer is the soft-thresholded covariance: sign(2)*max(2 - lam, 0)
    x = rng.normal(size=(400, 1))
    xs = (x - x.mean()) / x.std()
    y = 2.0 * xs[:, 0] + 1.0
    for lam, want in [(0.0, 2.0), (0.5, 1.5), (2.0, 0.0), (3.0, 0.0)]:
        model = LassoRegressor.fit(x, y, lam=lam)
        assert model.converged
        assert abs(model.coef_[0] - want) < 1e-9
        assert abs(model.intercept_ - y.mean()) < 1e-12


def test_lasso_unpenalized_matches_least_squares(rng):
    x = rng.normal(size=(100, 5))
    y = x @ rng.normal(size=5) + 0.3 * rng.normal(size=100)
    model = LassoRegressor.fit(x, y, lam=0.0)

    xs = FeatureScaler.fit(x).transform(x)
    design = np.column_stack([np.ones(100), xs])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.allclose(model.predict(x), design @ beta, atol=1e-5)


def test_lasso_full_penalty_gives_intercept_only(rng):
    x = rng.normal(size=(80, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(size=80)
    top = lambda_max(x, y)
    assert top > 0
    model = LassoRegressor.fit(x, y, lam=top)
    assert np.all(model.coef_ == 0.0)
    assert np.allclose(model.predict(x), y.mean(), atol=1e-12)


def test_lasso_satisfies_kkt_conditions(rng):
    x = rng.normal(size=(200, 8))
    y = x @ rng.normal(size=8) + 0.5 * rng.normal(size=200)
    model = LassoRegressor.fit(x, y, lam=0.1)
    assert model.converged
    assert model.n_sweeps >= 1
    assert model.kkt_violation(x, y) <= 1e-9


def coordinate_descent(inputs, targets, lam, tol=1e-12, max_sweeps=2000):
    """Reference lasso: cyclic coordinate descent with soft-threshold
    updates on the standardized inputs; (coef, converged). Its sweeps
    contract more slowly the more collinear the inputs are, so a tolerance
    this tight is only met where the iterate is accurate."""
    xs = FeatureScaler.fit(inputs).transform(inputs)
    n = xs.shape[0]
    col_sq = (xs ** 2).mean(axis=0)
    coef = np.zeros(xs.shape[1])
    resid = targets - targets.mean()
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(xs.shape[1]):
            if col_sq[j] == 0.0:
                continue
            old = coef[j]
            rho = xs[:, j] @ resid / n + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if new != old:
                resid -= xs[:, j] * (new - old)
                coef[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            return coef, True
    return coef, False


@settings(max_examples=150, deadline=None)
@given(n=st.integers(5, 150), p=st.integers(1, 12), share=st.floats(0.0, 1.2),
       extra=st.sampled_from(["none", "constant", "duplicate"]),
       seed=st.integers(0, 2**32 - 1))
def test_lasso_path_satisfies_kkt_and_matches_coordinate_descent(n, p, share, extra, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = x @ (rng.normal(size=p) * (rng.random(p) < 0.5)) + rng.normal(size=n)
    if extra == "constant":
        x[:, rng.integers(p)] = 0.1
    duplicated = extra == "duplicate" and p > 1
    if duplicated:
        x[:, 0] = x[:, p - 1]
    lam = share * lambda_max(x, y)
    usable = int(np.sum(np.ptp(x, axis=0) > 0))
    if lam == 0 and (duplicated or usable >= n):
        # least squares on dependent columns has no unique solution
        with pytest.raises(CollinearDesignError):
            LassoRegressor.fit(x, y, lam=lam)
        return
    model = LassoRegressor.fit(x, y, lam=lam)
    assert model.converged
    assert model.kkt_violation(x, y) <= 1e-9
    # with duplicates or more features than rows the coefficients are not
    # pinned down to rounding, so compare only where they are
    oracle, converged = coordinate_descent(x, y, lam)
    if converged and not duplicated and usable < n:
        assert np.max(np.abs(model.coef_ - oracle)) <= 1e-6


def test_lasso_without_penalty_needs_more_rows_than_features(rng):
    x = rng.normal(size=(6, 8))
    y = rng.normal(size=6)
    with pytest.raises(CollinearDesignError, match="linearly dependent"):
        LassoRegressor.fit(x, y, lam=0.0)
    # any positive penalty picks the lasso solution among the interpolants
    assert LassoRegressor.fit(x, y, lam=1e-6).kkt_violation(x, y) <= 1e-9


@pytest.fixture(scope="module")
def pv_windows():
    """A 40-day synthetic record with 30% of its training power missing in
    48 h blocks, completed once: 456 rows of strongly correlated lags."""
    full = pvmi.generate(pvmi.SynthSpec(days=40, seed=759137738))
    train, _ = pvmi.split_chronological(full, 480)
    train, _ = pvmi.inject_missing(train, pvmi.MissingSpec(
        "target-fraction", target_fraction=0.3, block_len_hours=48, seed=1165307468))
    completed = pvmi.complete_series(train, pvmi.fit_sampler(train))
    data = pvmi.build_training(completed)
    return data.inputs, data.targets


def test_lasso_path_stays_short_at_a_small_penalty(pv_windows):
    # coordinate descent stops here unconverged after 10k sweeps
    x, y = pv_windows
    model = LassoRegressor.fit(x, y, lam=1e-4 * lambda_max(x, y))
    assert model.converged
    assert model.n_sweeps <= 4 * x.shape[1]
    assert model.kkt_violation(x, y) <= 1e-9


def test_lasso_path_through_drops_reaches_the_solution(pv_windows):
    # two features leave the active set on the way down to 0.1 here; one
    # that rejoined on a rounding-sized step from the side it left would
    # carry the wrong sign
    x, y = pv_windows
    assert LassoRegressor.fit(x, y, lam=0.1).kkt_violation(x, y) <= 1e-9


def test_lasso_rejects_negative_penalty(rng):
    data = make_dataset(rng, 10)
    with pytest.raises(ValueError, match="non-negative"):
        LassoRegressor.fit(data.inputs, data.targets, lam=-0.1)


def test_lasso_residual_variance_estimates_noise(rng):
    # y = x @ w + eps with sd 0.5: the mean squared training residual of a
    # lightly penalized fit recovers eps variance 0.25 (small in-sample bias)
    data = make_dataset(
        rng,
        4000,
        target_fn=lambda x: x @ np.linspace(-1, 1, 48) + 0.5 * rng.normal(size=4000),
    )
    model = fit(RegressorSpec("lasso", {"lam": 1e-4}), data)
    assert abs(residual_variance(model, data) - 0.25) < 0.03


# ------------------------------------------------------------------- mlp


def test_mlp_gradients_match_finite_differences(rng):
    params = init_params(seed=3, n_in=6, hidden=(5, 4))
    xs = rng.normal(size=(5, 6))
    y = rng.normal(size=5)
    _, grads = loss_and_grads(params, xs, y)

    h = 1e-5
    for name, g in grads.items():
        tensor = params[name]
        fd = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            tensor[idx] += h
            up, _ = loss_and_grads(params, xs, y)
            tensor[idx] -= 2 * h
            down, _ = loss_and_grads(params, xs, y)
            tensor[idx] += h
            fd[idx] = (up - down) / (2 * h)
        rel = np.abs(fd - g) / np.maximum(1.0, np.abs(fd))
        assert rel.max() <= 1e-4, f"gradient mismatch in {name}"


def test_mlp_learns_linear_map(rng):
    x = rng.normal(size=(200, 2))
    y = 2.0 * x[:, 0] - x[:, 1] + 0.5
    model = MLPRegressor.fit(
        x, y, hidden=(16, 8), learning_rate=1e-2, iterations=1500, seed=0
    )
    mse = np.mean((model.predict(x) - y) ** 2)
    assert mse < 1e-2


def test_mlp_seed_controls_initialization(rng):
    x = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    kw = dict(hidden=(8, 4), learning_rate=1e-3, iterations=50)
    a = MLPRegressor.fit(x, y, seed=5, **kw)
    b = MLPRegressor.fit(x, y, seed=5, **kw)
    c = MLPRegressor.fit(x, y, seed=6, **kw)
    probe = rng.normal(size=(10, 3))
    assert np.array_equal(a.predict(probe), b.predict(probe))
    assert not np.array_equal(a.predict(probe), c.predict(probe))


# The fit's training loop as an allocating oracle: the same folded layout
# (each bias the last row of its layer's weight block, the inputs and the
# activations with a trailing column of ones), in float32 as a fit trains,
# with every activation, gradient and Adam moment made afresh at each step,
# and the textbook outer product dout @ w3.T for the output layer's delta.
# The gradient oracle runs in the dtype of the arrays it is given.


def _fold(params, dtype):
    """The blocks [w1; b1], [w2; b2], [w3; b3] of ``params`` in ``dtype``."""
    return [np.vstack([params[f"w{i}"], params[f"b{i}"][None]]).astype(dtype)
            for i in (1, 2, 3)]


def _unfold(blocks):
    return {name: value for i, block in enumerate(blocks, 1)
            for name, value in ((f"w{i}", block[:-1]), (f"b{i}", block[-1]))}


def _grads_oracle(blocks, xs, y):
    n = xs.shape[0]
    ones = np.ones((n, 1), xs.dtype)
    x1 = np.hstack([xs, ones])
    z1 = x1 @ blocks[0]
    a1 = np.hstack([np.maximum(z1, 0.0), ones])
    z2 = a1 @ blocks[1]
    a2 = np.hstack([np.maximum(z2, 0.0), ones])
    err = (a2 @ blocks[2]).ravel() - y
    dout = (2.0 / n) * err[:, None]
    dz2 = (dout @ blocks[2][:-1].T) * (z2 > 0.0)
    dz1 = (dz2 @ blocks[1][:-1].T) * (z1 > 0.0)
    return [x1.T @ dz1, a1.T @ dz2, a2.T @ dout]


def _fit_params_oracle(inputs, targets, hidden, learning_rate, iterations, seed):
    xs = FeatureScaler.fit(inputs).transform(inputs).astype(np.float32)
    yc = (targets - targets.mean()).astype(np.float32)
    blocks = _fold(init_params(seed, xs.shape[1], hidden), np.float32)
    m = [np.zeros_like(b) for b in blocks]
    v = [np.zeros_like(b) for b in blocks]
    for step in range(1, iterations + 1):
        grads = _grads_oracle(blocks, xs, yc)
        for i, g in enumerate(grads):
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
            v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
            den = np.sqrt(v[i]) * (1.0 / math.sqrt(1.0 - 0.999 ** step)) + 1e-8
            blocks[i] = blocks[i] - (learning_rate / (1.0 - 0.9 ** step)) * m[i] / den
    return _unfold(blocks)


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def mlp_cases(draw):
    n = draw(st.integers(1, 40))
    n_in = draw(st.integers(1, 6))
    hidden = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=n_in)
    x = rng.normal(size=(n, n_in)) * scales
    if draw(st.booleans()):
        x[:, draw(st.integers(0, n_in - 1))] = draw(st.sampled_from([0.0, 0.1, -7.0]))
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return x, y, hidden, draw(st.sampled_from([1e-3, 1e-2, 0.3])), draw(st.integers(1, 30)), seed


@pytest.mark.threaded_blas
@settings(max_examples=150, deadline=None)
@given(mlp_cases())
def test_mlp_fit_equals_the_allocating_oracle_bit_for_bit(case):
    x, y, hidden, lr, iterations, seed = case
    model = MLPRegressor.fit(x, y, hidden=hidden, learning_rate=lr,
                             iterations=iterations, seed=seed)
    want = _fit_params_oracle(x, y, hidden, lr, iterations, seed)
    for name, value in want.items():
        _assert_same_bits(model.params[name], value.astype(np.float64))


@pytest.mark.threaded_blas
@pytest.mark.parametrize("n, n_in, hidden, iterations",
                         [(1, 1, (1, 1), 1), (1, 3, (4, 2), 5), (7, 1, (1, 3), 1),
                          (456, 48, (48, 24), 3)])
def test_mlp_fit_equals_the_oracle_at_the_edges(rng, n, n_in, hidden, iterations):
    x = rng.normal(size=(n, n_in))
    y = rng.normal(size=n)
    model = MLPRegressor.fit(x, y, hidden=hidden, iterations=iterations, seed=4)
    want = _fit_params_oracle(x, y, hidden, 1e-3, iterations, 4)
    for name, value in want.items():
        _assert_same_bits(model.params[name], value.astype(np.float64))


@pytest.mark.parametrize("n", [1, 3])
def test_mlp_gradients_keep_the_oracles_signed_zeros(n):
    # every unit dead and err = 0: the outer product dout * w3.T is -0.0
    # where w3 is negative (matmul gives +0.0), and so are the masked deltas
    x = np.zeros((n, 2))
    params = init_params(seed=0, n_in=2, hidden=(3, 4))
    params["w3"][0, 0] = -abs(params["w3"][0, 0])
    params["b1"][:] = -1.0
    loss, grads = loss_and_grads(params, x, np.zeros(n))
    assert loss == 0.0
    want = _unfold(_grads_oracle(_fold(params, np.float64), x, np.zeros(n)))
    for name, value in want.items():
        _assert_same_bits(grads[name], value)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
def test_mlp_rejects_a_learning_rate_that_is_not_positive_and_finite(rng, lr):
    with pytest.raises(ValueError, match="learning_rate"):
        MLPRegressor.fit(rng.normal(size=(5, 2)), rng.normal(size=5), learning_rate=lr)


# ------------------------------------------- family-independent entry points


def test_non_finite_data_is_rejected_before_any_fit(rng):
    # the dataset is checked once, where it is made; no fit scans it again
    data = make_dataset(rng, 30)
    for where, bad in [("inputs", np.nan), ("inputs", -np.inf),
                       ("targets", np.nan), ("targets", np.inf)]:
        arrays = {"inputs": data.inputs.copy(), "targets": data.targets.copy()}
        arrays[where].reshape(-1)[7] = bad
        with pytest.raises(DataError, match="^supervised data contains NaN or infinite values$"):
            SupervisedDataset(**arrays)


def test_residual_variance_zero_for_exact_interpolator(rng):
    data = make_dataset(rng, 30)
    model = fit(RegressorSpec("knn", {"k": 1}), data)
    assert residual_variance(model, data) == 0.0


def test_residual_variance_of_constant_predictor():
    # identical inputs, targets 4 and 6: k=2 predicts the mean 5 everywhere,
    # so the mean squared residual is exactly 1
    data = SupervisedDataset(
        inputs=np.zeros((2, 48)),
        targets=np.array([4.0, 6.0]),
    )
    model = fit(RegressorSpec("knn", {"k": 2}), data)
    assert residual_variance(model, data) == 1.0


# ---------------------------------------------------------------- tuning


def test_fold_bounds_for_even_split():
    assert expanding_window_folds(100, 4) == [(20, 40), (40, 60), (60, 80), (80, 100)]


def test_fold_bounds_are_contiguous_and_exhaustive(rng):
    for _ in range(50):
        n = int(rng.integers(20, 500))
        folds = int(rng.integers(1, 8))
        slices = expanding_window_folds(n, folds)
        assert len(slices) == folds
        assert slices[0][0] >= 1
        assert slices[-1][1] == n
        for (a0, a1), (b0, b1) in zip(slices, slices[1:]):
            assert a1 == b0  # next fold trains on everything seen so far
            assert a0 < a1 and b0 < b1


def test_fold_bounds_reject_bad_arguments():
    for bad in (0, 2.5, True):  # a bool or a float is rejected, not truncated
        with pytest.raises(ValueError, match="^folds must be"):
            expanding_window_folds(100, bad)
    with pytest.raises(InsufficientDataError):
        expanding_window_folds(3, 5)


def test_tune_single_candidate_short_circuits(rng):
    data = make_dataset(rng, 10)  # far too small for folds; must not matter
    spec = tune_chronological("knn", data, [{"k": 4}], folds=5, seed=9)
    assert spec == RegressorSpec("knn", {"k": 4}, seed=9)
    for bad in (0, 2.5):  # checked whatever the grid
        with pytest.raises(ValueError, match="^folds must be"):
            tune_chronological("knn", data, [{"k": 4}], folds=bad)


def test_tune_prefers_local_fit_on_noiseless_data(rng):
    # the target depends smoothly on a single feature with no noise, so the
    # one-nearest-neighbour candidate beats every wider average
    inputs = np.zeros((240, 48))
    inputs[:, 0] = rng.uniform(-3, 3, size=240)
    data = SupervisedDataset(
        inputs=inputs,
        targets=np.sin(inputs[:, 0]),
    )
    grid = [{"k": 1}, {"k": 2}, {"k": 8}, {"k": 32}]
    assert tune_chronological("knn", data, grid, folds=3).hyperparameters == {"k": 1}


def test_tune_matches_brute_force_fold_scores(rng):
    data = make_dataset(
        rng, 120, target_fn=lambda x: x[:, 0] + 0.3 * rng.normal(size=120)
    )
    grid = [{"k": 1}, {"k": 2}, {"k": 4}, {"k": 8}]

    scores = []
    for g in grid:
        fold_mse = []
        for train_end, val_end in expanding_window_folds(120, 3):
            model = KNNRegressor.fit(
                data.inputs[:train_end], data.targets[:train_end], k=g["k"]
            )
            pred = model.predict(data.inputs[train_end:val_end])
            fold_mse.append(np.mean((pred - data.targets[train_end:val_end]) ** 2))
        scores.append(np.mean(fold_mse))

    chosen = tune_chronological("knn", data, grid, folds=3)
    assert chosen.hyperparameters == grid[int(np.argmin(scores))]


def test_default_knn_grid_caps_at_training_size():
    assert default_knn_grid(10) == [{"k": 1}, {"k": 2}, {"k": 4}, {"k": 8}]
    assert default_knn_grid(1) == [{"k": 1}]
    assert default_knn_grid(0) == []


def test_default_lasso_grid_spans_four_decades(rng):
    data = make_dataset(rng, 60, target_fn=lambda x: x[:, 0])
    grid = default_lasso_grid(data)
    lams = [g["lam"] for g in grid]
    assert len(lams) == 20
    assert lams[0] == pytest.approx(lambda_max(data.inputs, data.targets))
    assert lams[-1] == pytest.approx(lams[0] * 1e-4)
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_default_lasso_grid_degenerates_without_signal(rng):
    data = make_dataset(rng, 30, target_fn=lambda x: np.full(30, 2.0))
    assert default_lasso_grid(data) == [{"lam": 0.0}]
