"""End-to-end forecast pipeline over incomplete train/test series.

Three ways of handling the missing hours are supported, ordered by how much
of the imputation uncertainty they propagate into the predictive variance:

setup 1
    deterministic (mean) imputation of both series, one model, one round;
    imputation uncertainty is ignored entirely.
setup 2
    deterministic imputation of the training series with a single shared
    model, but B independent stochastic completions of the test series; the
    spread of the B forecasts captures the uncertainty of the test inputs.
setup 3
    B independent stochastic completions of both series, each with its own
    model and residual variance; training-side and test-side uncertainty
    both reach the pooled variance.

Each round carries one scalar residual variance, shared by all of its test
hours. For kNN it is the exact leave-one-out residual variance of the
training rows (an in-sample residual would count each row as its own
neighbour and understate the predictive error); lasso and MLP use the
in-sample mean squared residual, ``models.residual_variance``.

The conditional sampler is fitted once on the observed training pairs and
reused everywhere. Round ``b`` draws from a generator seeded with
``(seed, b)``, so results are reproducible and independent of execution
order; with no missing data all rounds coincide and every setup collapses
to the complete-data pipeline.
"""

from __future__ import annotations

import numpy as np

from . import models
from .features import SupervisedDataset, build_training
from .imputation import complete_series, fit_sampler
from .pooling import PooledPrediction, RoundPrediction, rubin_pool
from .series import HourlySeries

SETUPS = (1, 2, 3)


def run_pipeline(
    train: HourlySeries,
    test: HourlySeries,
    spec: models.RegressorSpec,
    setup: int,
    n_rounds: int = 5,
    seed: int = 0,
    sampler_k: int | None = None,
) -> list[PooledPrediction]:
    """Forecast every admissible test hour and pool across rounds.

    Returns one :class:`PooledPrediction` per test hour ``t`` in
    ``[23, T'-2]`` (0-based), i.e. ``T' - 24`` entries, where entry ``i``
    predicts the test power at hour ``24 + i``.

    Parameters
    ----------
    train, test : HourlySeries
        Chronological halves of the record; both may contain missing power.
    spec : RegressorSpec
        Model family and hyperparameters used for every round.
    setup : int
        1, 2 or 3, see the module docstring. Setup 1 always runs one round.
    n_rounds : int
        Number of imputation rounds B (ignored under setup 1).
    seed : int
        Master seed; round b derives its own stream from (seed, b).
    sampler_k : int or None
        Neighbourhood size for the conditional sampler; None selects it by
        leave-one-out error on the observed training pairs.

    Raises
    ------
    InsufficientDataError
        For a kNN spec whose ``k`` is not below the number of training rows,
        which leaves no leave-one-out residual variance.
    """
    if setup not in SETUPS:
        raise ValueError(f"setup must be one of {SETUPS}, got {setup}")
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    b_total = 1 if setup == 1 else int(n_rounds)

    sampler = fit_sampler(train, k=sampler_k)

    shared_model = None
    shared_var = None
    if setup in (1, 2):
        train_full = complete_series(train, sampler, "single")
        train_ds = build_training(train_full)
        shared_model = models.fit(spec, train_ds)
        shared_var = _round_variance(shared_model, train_ds)

    round_means: list[np.ndarray] = []
    round_vars: list[float] = []
    for b in range(1, b_total + 1):
        rng = np.random.default_rng([seed, b])
        if setup == 3:
            train_b = complete_series(train, sampler, "stochastic", rng)
            train_ds = build_training(train_b)
            model_b = models.fit(spec, train_ds)
            var_b = _round_variance(model_b, train_ds)
        else:
            model_b = shared_model
            var_b = shared_var
        test_mode = "single" if setup == 1 else "stochastic"
        test_b = complete_series(test, sampler, test_mode, rng)
        test_ds = build_training(test_b)
        round_means.append(model_b.predict(test_ds.inputs))
        round_vars.append(float(var_b))

    means = np.stack(round_means)  # (B, n_hours)
    pooled = [
        rubin_pool([
            RoundPrediction(mean=float(means[b, i]), variance=round_vars[b])
            for b in range(b_total)
        ])
        for i in range(means.shape[1])
    ]
    return pooled


def _round_variance(model: models.TrainedModel, train_ds: SupervisedDataset) -> float:
    """The residual variance a round carries: leave-one-out for kNN, the
    in-sample ML estimate for the other families."""
    if isinstance(model, models.KNNRegressor):
        return model.loo_residual_variance()
    return models.residual_variance(model, train_ds)
