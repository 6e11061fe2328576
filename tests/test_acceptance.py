"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE n ...: PASS/FAIL`` verdict (echoed in
the terminal summary) and then asserts it, so a red criterion is visible and
honest rather than silently skipped. The criteria pool, cut and score through
the array calls that the experiment grid runs: ``Pipeline.pool``,
``normal_bounds``/``gamma_bounds`` and ``metrics.score``.
"""

import itertools
import json
import math
import time
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate, optimize

from pvmi import (
    MissingSpec,
    RegressorSpec,
    SynthSpec,
    generate,
    inject_missing,
    rubin_pool,
    split_chronological,
)
from pvmi.cli import main as cli_main
from pvmi.features import build_training
from pvmi.imputation import fit_sampler, neighbors
from pvmi.intervals import (
    _gamma_quantiles,
    _regularized_gamma_p,
    gamma_bounds,
    inverse_normal_cdf,
    normal_bounds,
)
from pvmi.metrics import score, target_truths
from pvmi.models import LassoRegressor, default_knn_grid, tune_chronological
from pvmi.models.mlp import init_params, loss_and_grads
from pvmi.pipeline import Completions, Pipeline
from pvmi.series import HourlySeries

from conftest import ACCEPTANCE_LINES

ALPHA = 0.05
MOMENTS = ("mean", "within_var", "between_var", "total_var")


def report(number: int, label: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {number} {label}: {verdict}{suffix}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def _score(pooled, bounds, test):
    """The metrics of one pooling's intervals, cut by ``bounds`` (an array
    kernel of ``pvmi.intervals``), on the observed hours of ``test``."""
    lower, upper = bounds(pooled.mean, pooled.total_var, ALPHA)
    return score(lower, upper, pooled.mean, target_truths(test, pooled.mean.size), ALPHA)


# ---------------------------------------------------------------------------
# 1. pooling identity suite


def test_criterion_1_pooling_identities():
    rng = np.random.default_rng(4242)
    t0 = time.perf_counter()
    worst_rel = 0.0
    b1_exact = True
    permutation_exact = True
    for _ in range(1000):
        b = int(rng.integers(1, 11))
        means = rng.normal(scale=4.0, size=b)
        variances = rng.uniform(0.0, 3.0, size=b)
        # one hour's B rounds, as a (B, 1) stack
        pooled = rubin_pool(means[:, None], variances)

        within = float(np.mean(variances))
        between = float(np.var(means, ddof=1)) if b > 1 else 0.0
        total = within + (1.0 + 1.0 / b) * between
        worst_rel = max(worst_rel, abs(pooled.total_var[0] - total) / abs(total))
        if b == 1 and pooled.between_var[0] != 0.0:
            b1_exact = False

        order = list(range(b))
        rng.shuffle(order)
        shuffled = rubin_pool(means[order, None], variances[order])
        if not all(np.array_equal(getattr(shuffled, m), getattr(pooled, m)) for m in MOMENTS):
            permutation_exact = False
    elapsed = time.perf_counter() - t0

    ok = worst_rel < 1e-12 and b1_exact and permutation_exact and elapsed < 1.0
    assert report(
        1,
        "pooling identity suite",
        ok,
        f"worst rel err {worst_rel:.2e}, B=1 between zero {b1_exact}, "
        f"order invariant {permutation_exact}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. calibration under the true model


def test_criterion_2_calibration_without_missingness():
    t0 = time.perf_counter()
    full = generate(SynthSpec(days=365))  # noise_scale 0.15, no gaps
    train, test = split_chronological(full, test_len=1524)

    train_ds = build_training(train)
    folds = 5
    grid = default_knn_grid(max(1, len(train_ds) // (folds + 1)))
    spec = tune_chronological("knn", train_ds, grid, folds=folds)

    completions = Completions(train, test, fit_sampler(train))
    pooled = Pipeline(completions, spec).pool(setup=1, n_rounds=1, seed=0)
    cov = _score(pooled, normal_bounds, test).coverage
    hours = pooled.mean.size
    elapsed = time.perf_counter() - t0

    ok = 0.92 <= cov <= 0.97 and hours >= 1500 and elapsed < 120.0
    assert report(
        2,
        "normal-interval calibration, complete data",
        ok,
        f"coverage {cov:.4f} over {hours} hours, tuned {spec.hyperparameters}, "
        f"target [0.92, 0.97], {elapsed:.1f}s",
    ), (
        f"coverage {cov:.4f} outside [0.92, 0.97]: the leave-one-out kNN residual "
        f"variance misjudges the predictive spread at the tuned neighbourhood size"
    )


# ---------------------------------------------------------------------------
# 3-6. directional grid: 3 families x 3 seeds x {setups, rounds, intervals}

FAMILY_SPECS = {
    "knn": RegressorSpec("knn", {"k": 4}),
    "lasso": RegressorSpec("lasso", {"lam": 1e-4}),
    "mlp": RegressorSpec("mlp", {"hidden": (48, 24), "iterations": 600}, seed=7),
}
GRID_SEEDS = (101, 202, 303)
SCENARIOS = (("s1", 1, 1), ("s2b5", 2, 5), ("s2b10", 2, 10), ("s3b5", 3, 5),
             ("s3b10", 3, 10))


@pytest.fixture(scope="module")
def directional_grid():
    """Shared runs behind criteria 3-6: ~30% block gaps on both halves."""
    t0 = time.perf_counter()
    results = {}
    for seed in GRID_SEEDS:
        full = generate(SynthSpec(days=70, seed=seed))
        train, test = split_chronological(full, test_len=1200)
        train, _ = inject_missing(
            train,
            MissingSpec(mode="target-fraction", target_fraction=0.30,
                        block_len_hours=48, seed=seed + 1),
        )
        test, _ = inject_missing(
            test,
            MissingSpec(mode="target-fraction", target_fraction=0.30,
                        block_len_hours=24, seed=seed + 2),
        )
        # one sampler and completions per seed, and one pipeline per family
        # whose B = 10 scenarios add rounds to those of its B = 5 scenarios
        completions = Completions(train, test, fit_sampler(train))
        for family, spec in FAMILY_SPECS.items():
            pipeline = Pipeline(completions, spec)
            row = {}
            for label, setup, b in SCENARIOS:
                pooled = pipeline.pool(setup, b, seed)
                normal = _score(pooled, normal_bounds, test)
                row[label] = {
                    "normal": normal.coverage,
                    "gamma": _score(pooled, gamma_bounds, test).coverage,
                    "nrmse": normal.nrmse,
                }
            results[(family, seed)] = row
    return {"results": results, "elapsed": time.perf_counter() - t0}


def test_criterion_3_setup_coverage_ordering(directional_grid):
    results = directional_grid["results"]
    elapsed = directional_grid["elapsed"]
    details = []
    ok = elapsed < 900.0
    for family in FAMILY_SPECS:
        avg = {
            label: float(np.mean([results[(family, s)][label]["normal"]
                                  for s in GRID_SEEDS]))
            for label in ("s1", "s2b5", "s3b5")
        }
        chain = (
            avg["s1"] < avg["s2b5"] <= avg["s3b5"] + 0.01
            and avg["s3b5"] - avg["s1"] >= 0.03
        )
        ok = ok and chain
        details.append(
            f"{family} {avg['s1']:.3f}<{avg['s2b5']:.3f}<={avg['s3b5']:.3f}+.01, "
            f"gap {avg['s3b5'] - avg['s1']:+.3f}"
        )
    assert report(
        3,
        "coverage grows with propagated uncertainty",
        ok,
        "; ".join(details) + f"; grid {elapsed:.0f}s",
    )


def test_criterion_4_gamma_under_covers(directional_grid):
    results = directional_grid["results"]
    hits = sum(
        1
        for family in FAMILY_SPECS
        for seed in GRID_SEEDS
        if results[(family, seed)]["s3b5"]["gamma"]
        <= results[(family, seed)]["s3b5"]["normal"]
    )
    ok = hits >= 8
    assert report(4, "gamma coverage <= normal coverage", ok, f"{hits}/9 cells")


def test_criterion_5_round_count_insensitivity(directional_grid):
    results = directional_grid["results"]
    worst = max(
        abs(row[f"{s}b5"]["normal"] - row[f"{s}b10"]["normal"])
        for row in results.values()
        for s in ("s2", "s3")
    )
    ok = worst <= 0.03
    assert report(5, "coverage stable from B=5 to B=10", ok,
                  f"worst cell delta {worst:.4f}")


def test_criterion_6_nrmse_stability(directional_grid):
    results = directional_grid["results"]
    worst = max(
        max(row[label]["nrmse"] for label in ("s1", "s2b5", "s3b5"))
        - min(row[label]["nrmse"] for label in ("s1", "s2b5", "s3b5"))
        for row in results.values()
    )
    ok = worst <= 0.02
    assert report(6, "NRMSE is setup-insensitive", ok, f"worst spread {worst:.4f}")


# ---------------------------------------------------------------------------
# 7. sampler consistency against the generator's conditional law


def test_criterion_7_sampler_ks_shrinks_with_data():
    t0 = time.perf_counter()
    spec = SynthSpec(days=365, seed=42)
    full = generate(spec)
    query = 0.3
    conditional_mean = spec.efficiency * query

    def true_cdf(x: float) -> float:
        if x < 0.0:
            return 0.0
        return NormalDist().cdf((x / conditional_mean - 1.0) / spec.noise_scale)

    stats = []
    for n in (200, 800, 3200):
        sub = HourlySeries(full.start, full.power[:n].copy(),
                           full.irradiance[:n].copy())
        sampler = fit_sampler(sub, k=math.ceil(math.sqrt(n)))
        rng = np.random.default_rng(1234 + n)
        support = sampler.power[neighbors(sampler, [query])[0]]
        draws = np.sort(support[rng.integers(0, sampler.k, size=1000)])
        stat = 0.0
        for i, x in enumerate(draws, start=1):
            f = true_cdf(float(x))
            stat = max(stat, i / draws.size - f, f - (i - 1) / draws.size)
        stats.append(stat)
    elapsed = time.perf_counter() - t0

    decreasing = stats[0] > stats[1] > stats[2]
    ok = decreasing and stats[-1] < 0.1 and elapsed < 60.0
    assert report(
        7,
        "sampler KS distance shrinks with n",
        ok,
        "KS " + " -> ".join(f"{s:.4f}" for s in stats) + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. numeric kernels


def test_criterion_8_numeric_kernels():
    # normal quantile vs a quadrature oracle
    def cdf_by_quadrature(x):
        val, _ = integrate.quad(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), -np.inf, x
        )
        return val

    quantile_err = 0.0
    for p in (1e-4, 1e-3, 0.01, 0.025, 0.31, 0.5, 0.69, 0.975, 0.99, 1 - 1e-3,
              1 - 1e-4):
        want = optimize.brentq(lambda x: cdf_by_quadrature(x) - p, -10, 10, xtol=1e-12)
        quantile_err = max(quantile_err, abs(inverse_normal_cdf(p) - want))

    # the 75 (shape, scale, p) triples through the kernels that gamma_bounds runs
    shape, scale, p = map(np.array, zip(*itertools.product(
        (0.5, 1.0, 3.7, 57.0, 400.0), (0.2, 1.0, 11.0), (1e-4, 0.025, 0.5, 0.975, 1 - 1e-4))))
    x = _gamma_quantiles(p, shape, scale)
    lgamma = np.array([math.lgamma(a) for a in shape.tolist()])
    round_trip_err = float(np.max(np.abs(_regularized_gamma_p(shape, x / scale, lgamma) - p)))

    rng = np.random.default_rng(77)
    params = init_params(seed=3, n_in=6, hidden=(5, 4))
    xs = rng.normal(size=(5, 6))
    y = rng.normal(size=5)
    _, grads = loss_and_grads(params, xs, y)
    h = 1e-5
    grad_err = 0.0
    for name, g in grads.items():
        tensor = params[name]
        for idx in np.ndindex(tensor.shape):
            tensor[idx] += h
            up, _ = loss_and_grads(params, xs, y)
            tensor[idx] -= 2 * h
            down, _ = loss_and_grads(params, xs, y)
            tensor[idx] += h
            fd = (up - down) / (2 * h)
            grad_err = max(grad_err, abs(fd - g[idx]) / max(1.0, abs(fd)))

    x = rng.normal(size=(200, 8))
    targets = x @ rng.normal(size=8) + 0.5 * rng.normal(size=200)
    kkt = LassoRegressor.fit(x, targets, lam=0.1).kkt_violation(x, targets)

    ok = (quantile_err <= 1e-6 and round_trip_err <= 1e-7 and grad_err <= 1e-4
          and kkt <= 1e-6)
    assert report(
        8,
        "numeric kernels",
        ok,
        f"normal quantile {quantile_err:.1e}, gamma round-trip {round_trip_err:.1e}, "
        f"mlp gradient {grad_err:.1e}, lasso KKT {kkt:.1e}",
    )


# ---------------------------------------------------------------------------
# 9. CLI determinism


def test_criterion_9_cli_runs_are_byte_identical(tmp_path):
    config = {
        "schema_version": 1,
        "data": {"synth": {"days": 10, "seed": 6}},
        "test_len": 96,
        "models": [
            {"family": "knn", "hyperparameters": {"k": 3}},
            {"family": "lasso", "hyperparameters": {"lam": 0.01}},
        ],
        "setups": [1, 2, 3],
        "n_rounds": [2, 3],
        "train_missing": {"mode": "target-fraction", "target_fraction": 0.2,
                          "block_len_hours": 12, "seed": 1},
        "test_missing": {"mode": "target-fraction", "target_fraction": 0.2,
                         "block_len_hours": 6, "seed": 2},
        "alpha": 0.05,
        "sampler_k": 3,
        "master_seed": 99,
    }
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps(config))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["run", "--config", str(cfg), "--out", str(out_a)])
    code_b = cli_main(["run", "--config", str(cfg), "--out", str(out_b)])

    summary_a = (out_a / "summary.json").read_bytes()
    summary_b = (out_b / "summary.json").read_bytes()
    manifests_equal = (
        (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()
    )
    ok = code_a == code_b == 0 and summary_a == summary_b and manifests_equal
    assert report(
        9,
        "repeated CLI runs are byte-identical",
        ok,
        f"{len(json.loads(summary_a)['cells'])} cells, summary and manifest equal",
    )
