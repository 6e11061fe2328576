"""Fit and compare the three point-forecast families on complete data.

Run:  python3 demos/03_forecasters.py
"""

from pvmi import SynthSpec, generate, split_chronological
from pvmi.features import build_training
from pvmi.metrics import score, target_truths
from pvmi.models import (
    RegressorSpec,
    default_knn_grid,
    default_lasso_grid,
    fit,
    residual_variance,
    tune_chronological,
)


def main():
    series = generate(SynthSpec(days=120, seed=5))
    train, test = split_chronological(series, test_len=24 * 21)
    train_ds = build_training(train)
    test_ds = build_training(test)
    print(f"{len(train_ds)} training windows, {len(test_ds)} test windows, "
          f"48 features each (24 h of power and irradiance lags)")

    folds = 5
    specs = {
        "knn": tune_chronological(
            "knn", train_ds, default_knn_grid(len(train_ds) // (folds + 1)),
            folds=folds),
        "lasso": tune_chronological(
            "lasso", train_ds, default_lasso_grid(train_ds), folds=folds),
        # the network is slow to cross-validate; its defaults work well here
        "mlp": RegressorSpec("mlp", {"hidden": (48, 24), "iterations": 800}, seed=1),
    }

    print(f"\n{'family':8s} {'hyperparameters':38s} {'resid var':>10s} {'NRMSE':>7s}")
    for name, spec in specs.items():
        model = fit(spec, train_ds)
        # kNN rows are their own neighbours in-sample: leave each one out
        rv = (model.loo_residual_variance() if name == "knn"
              else residual_variance(model, train_ds))
        preds = model.predict(test_ds.inputs)
        # point forecasts only: score them as zero-width intervals for the NRMSE
        err = score(preds, preds, preds, target_truths(test, preds.size), 0.05).nrmse
        hp = {k: (round(v, 5) if isinstance(v, float) else v)
              for k, v in spec.hyperparameters.items()}
        print(f"{name:8s} {str(hp):38s} {rv:10.4f} {err:7.4f}")

    print("\nthe residual variance (leave-one-out for knn) doubles as the "
          "within-round\npredictive variance when these forecasts are wrapped "
          "in intervals downstream")


if __name__ == "__main__":
    main()
