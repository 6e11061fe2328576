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

Only what changes from round to round is computed per round. Per run, a
:class:`Completions` holds what depends on the data and the sampler alone:
the missing hours of each series and their sampler neighbours, the
single-imputed training set, and which test windows hold a gap.
Per spec, a :class:`Pipeline` holds what the model adds: the
single-imputation model shared by setups 1 and 2, its round variance and its
forecasts of the gap-free test windows. Per round, ``Pipeline._round``
draws one completion (one ``rng.integers(0, k, size=m)`` call per series)
and predicts, in setups 1-2, only the test rows whose window holds a gap; in
setup 3 it fits the round's own model and predicts every row. A gap-free row
is predicted once, in one batch, and every round reuses that forecast, so
its rounds agree exactly: its pooled mean is that forecast and its
between-round variance is zero.

Each round is computed once per (setup, seed): a :class:`Pipeline` keeps
the finished rounds of each (setup, seed) in a list, round ``b``'s
forecasts and round variance at position ``b``. Since round ``b`` depends
only on ``(setup, seed, b)``, pooling B rounds computes only the rounds the
list does not hold yet and pools its first B with one ``rubin_pool`` call,
bit for bit what a fresh pipeline gives. A pooling that raises at round ``b``
keeps rounds ``0..b-1``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import models
from .errors import check
from .features import WINDOW_HOURS, SupervisedDataset, build_training
from .imputation import ConditionalSampler, fill_gaps, fit_sampler, gap_neighbors
from .pooling import PooledPrediction, rubin_pool
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
        Number of imputation rounds B >= 1; setup 1 runs one round whatever B.
    seed : int
        Master seed >= 0; round b derives its own stream from (seed, b).
    sampler_k : int or None
        Neighbourhood size for the conditional sampler; None selects it by
        leave-one-out error on the observed training pairs.

    Raises
    ------
    ValueError
        For a ``setup``, ``n_rounds``, ``seed`` or ``sampler_k`` out of its
        range or not an integer (a bool or a float is not one).
    InsufficientDataError
        For a kNN spec whose ``k`` is not below the number of training rows,
        which leaves no leave-one-out residual variance.
    """
    sampler = fit_sampler(train, k=sampler_k)
    return Pipeline(Completions(train, test, sampler), spec).pool(setup, n_rounds, seed).hours()


class Completions:
    """The spec-independent stages of one (train, test, sampler), each built
    on first use and kept. A stage that raises is not kept."""

    def __init__(self, train: HourlySeries, test: HourlySeries,
                 sampler: ConditionalSampler):
        self.train = train
        self.test = test
        self.sampler = sampler

    @cached_property
    def train_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        return gap_neighbors(self.train, self.sampler)

    @cached_property
    def test_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        return gap_neighbors(self.test, self.sampler)

    @cached_property
    def train_single(self) -> SupervisedDataset:
        return self._windows(self.train, self.train_gaps)

    @cached_property
    def gap_rows(self) -> np.ndarray:
        """True for each test row whose input window, hours ``[i, i+23]``,
        holds a missing hour."""
        missing_before = np.concatenate(([0], np.cumsum(self.test.mask)))
        return missing_before[WINDOW_HOURS:-1] > missing_before[: -WINDOW_HOURS - 1]

    def test_single(self) -> SupervisedDataset:
        # not kept: each spec uses it once or twice, and it is as large as a
        # round's test set
        return self._windows(self.test, self.test_gaps)

    def train_draw(self, rng: np.random.Generator) -> SupervisedDataset:
        return self._windows(self.train, self.train_gaps, rng)

    def test_draw(self, rng: np.random.Generator) -> SupervisedDataset:
        return self._windows(self.test, self.test_gaps, rng)

    def _windows(self, series, gaps, rng=None) -> SupervisedDataset:
        return build_training(fill_gaps(series, self.sampler, gaps, rng))


class Pipeline:
    """One spec's forecasts over a :class:`Completions`. The shared
    single-imputation model and its forecasts of the gap-free test rows are
    built on first use and serve every setup-1/2 pooling; so does the
    failure of a shared fit. The finished rounds of each (setup, seed) are
    kept in a list that every pooling of them reads and extends."""

    def __init__(self, completions: Completions, spec: models.RegressorSpec):
        self.completions = completions
        self.spec = spec
        self._shared_failure: Exception | None = None
        # (setup, seed) -> its finished rounds: (forecasts, round variance)
        self._rounds: dict[tuple[int, int], list[tuple[np.ndarray, float]]] = {}

    @cached_property
    def shared(self) -> tuple[models.TrainedModel, float]:
        """The model fitted on the single-imputed training set, and its
        round variance. A fit that raises is not repeated: every later use
        raises the same exception."""
        if self._shared_failure is not None:
            raise self._shared_failure
        try:
            train_ds = self.completions.train_single
            model = models.fit(self.spec, train_ds)
            return model, _round_variance(model, train_ds)
        except Exception as exc:
            self._shared_failure = exc
            raise

    @cached_property
    def gap_free_means(self) -> np.ndarray:
        """The shared model's forecasts of the test rows whose window holds
        no gap, predicted in one batch."""
        c = self.completions
        return self.shared[0].predict(c.test_single().inputs[~c.gap_rows])

    def pool(self, setup: int, n_rounds: int, seed: int) -> PooledPrediction:
        """:func:`run_pipeline`'s rounds and pooling, for this spec and the
        sampler of :attr:`completions`: one array pooling, each moment with
        one entry per test hour. Rounds of ``(setup, seed)`` that an earlier
        pooling computed are reused; a pooling that raises at round ``b``
        keeps rounds ``0..b-1``."""
        setup = check("setup", setup, int)
        if setup not in SETUPS:
            raise ValueError(f"setup must be one of {SETUPS}, got {setup}")
        n_rounds = check("n_rounds", n_rounds, int, 1)
        seed = check("seed", seed, int, 0)
        b_total = 1 if setup == 1 else n_rounds
        rounds = self._rounds.setdefault((setup, seed), [])
        for b in range(len(rounds), b_total):
            rounds.append(self._round(setup, seed, b))
        means, variances = zip(*rounds[:b_total])
        return rubin_pool(np.stack(means), np.array(variances))

    def _round(self, setup: int, seed: int, b: int) -> tuple[np.ndarray, float]:
        """Round ``b`` of ``(setup, seed)``: its forecast of every test row
        and its round variance."""
        c = self.completions
        rng = np.random.default_rng([seed, b + 1])
        if setup == 3:
            train_ds = c.train_draw(rng)  # drawn before the test series
            model = models.fit(self.spec, train_ds)
            variance = _round_variance(model, train_ds)
            return model.predict(c.test_draw(rng).inputs), variance
        model, variance = self.shared
        forecasts = np.empty(c.gap_rows.size)
        forecasts[~c.gap_rows] = self.gap_free_means
        # only the gap rows' windows outlive this line
        inputs = (c.test_single() if setup == 1 else c.test_draw(rng)).inputs[c.gap_rows]
        forecasts[c.gap_rows] = model.predict(inputs)
        return forecasts, variance


def _round_variance(model: models.TrainedModel, train_ds: SupervisedDataset) -> float:
    """The residual variance a round carries: leave-one-out for kNN, the
    in-sample ML estimate for the other families."""
    if isinstance(model, models.KNNRegressor):
        return model.loo_residual_variance()
    return models.residual_variance(model, train_ds)
