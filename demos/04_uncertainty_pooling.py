"""Propagating missing-data uncertainty into the forecast intervals.

With gaps in both halves of the record there are three escalation levels:

  setup 1  fill everything once with the deterministic sampler -> one model,
           one forecast, variance = training residual variance only
  setup 2  keep the single model, but redraw the *test* gaps B times; the
           spread of the B forecasts widens the interval
  setup 3  redraw the *training* gaps too, refitting per round, so model
           uncertainty from the gaps also enters the pool

This script runs all three on the same degraded data and shows how coverage
climbs toward the nominal level as more uncertainty is propagated.

Run:  python3 demos/04_uncertainty_pooling.py
"""

import numpy as np

from pvmi import (
    MissingSpec,
    RegressorSpec,
    SynthSpec,
    fit_sampler,
    generate,
    inject_missing,
    split_chronological,
)
from pvmi.intervals import normal_bounds
from pvmi.metrics import score, target_truths
from pvmi.pipeline import Completions, Pipeline

ALPHA = 0.05


def main():
    seed = 101
    full = generate(SynthSpec(days=70, seed=seed))
    train, test = split_chronological(full, test_len=1200)
    train, _ = inject_missing(train, MissingSpec(
        mode="target-fraction", target_fraction=0.30, block_len_hours=48,
        seed=seed + 1))
    test, _ = inject_missing(test, MissingSpec(
        mode="target-fraction", target_fraction=0.30, block_len_hours=24,
        seed=seed + 2))
    print(f"train {len(train)} h / test {len(test)} h, ~30% missing in blocks")

    spec = RegressorSpec("lasso", {"lam": 1e-4})
    print(f"model: {spec.family} {spec.hyperparameters}, "
          f"normal intervals at alpha={ALPHA}\n")

    # the sampler and the gap neighbours are built once for all setups, and
    # setups 1 and 2 share one model fitted on the single-imputed training set
    pipeline = Pipeline(Completions(train, test, fit_sampler(train)), spec)
    print(f"{'setup':22s} {'coverage':>8s} {'NRMSE':>7s} {'mean width':>11s}")
    for setup, label in [(1, "1: ignore gaps"), (2, "2: redraw test"),
                         (3, "3: redraw train+test")]:
        pooled = pipeline.pool(setup, n_rounds=5, seed=seed)
        lower, upper = normal_bounds(pooled.mean, pooled.total_var, ALPHA)
        truth = target_truths(test, pooled.mean.size)  # NaN at a missing hour
        rep = score(lower, upper, pooled.mean, truth, ALPHA)
        print(f"{label:22s} {rep.coverage:8.3f} {rep.nrmse:7.4f} {rep.mean_width:11.3f}")

    print("\nvariance split for the first daytime hours (setup 3):")
    print(f"{'hour':>5s} {'mean':>7s} {'within':>8s} {'between':>8s} {'total':>8s}")
    pooled = pipeline.pool(3, n_rounds=5, seed=seed)  # the kept rounds, not redrawn
    for i in np.flatnonzero(pooled.mean >= 0.5)[:6]:
        print(f"{24 + i:5d} {pooled.mean[i]:7.3f} {pooled.within_var[i]:8.4f} "
              f"{pooled.between_var[i]:8.4f} {pooled.total_var[i]:8.4f}")
    print("\nthe between column is the part a single-fill pipeline throws away;")
    print("point accuracy (NRMSE) stays flat because only the variance changes")


if __name__ == "__main__":
    main()
