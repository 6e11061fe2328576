"""The benchmark's workloads: inputs made from a seed, and the timed job.

Each workload has two halves. ``setup`` turns the workload seed and the
job's index in the run into the inputs the program sees (a synthetic record
and gap specs, written as an experiment config for the CLI workloads) and
computes, independently of the job, what the gate needs to know about them
(how many target hours are observed). ``job`` is the timed part: it calls the program exactly as a user
would and returns an :class:`Outcome` that the gate inspects afterwards.

Why these three workloads (they stress different layers; see README.md):

``demo-grid``
    fit-heavy: ``pvmi run`` + ``pvmi report`` on demo 05's 40-day grid with
    kNN, a tuned lasso and an MLP, setups 1-3. Lasso tuning and refits
    dominate; the per-hour layers are small.
``long-horizon``
    per-hour-heavy: ``pvmi run`` + ``pvmi report`` on a half-year test
    horizon behind a 60-day training record, kNN only. Pooling, gamma
    quantiles, kNN predict and the cell CSVs dominate; nothing is tuned.
``long-record``
    read-heavy: the README library path (``run_pipeline``, intervals,
    metrics) on a one-year record. kNN predict and the residual variance
    against a large training set dominate, then the sampler's LOO
    k-selection; the most memory of the three; no artifacts are written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Program functions are called through their modules, never bound here, so
# that the traced run's wrappers (spans.py) see the benchmark's own calls.
import pvmi
from pvmi import MissingSpec, RegressorSpec, SynthSpec, cli
from pvmi.errors import ExperimentError
from pvmi.features import WINDOW_HOURS

ALPHA = 0.05
TRAIN_GAPS = {"mode": "target-fraction", "target_fraction": 0.3, "block_len_hours": 48}
TEST_GAPS = {"mode": "target-fraction", "target_fraction": 0.3, "block_len_hours": 24}


@dataclass
class CellResult:
    """One scored cell: what the program reported plus what the gate checks."""

    cell_id: str
    interval_family: str
    n_rounds: int  # B actually pooled (1 for setup 1)
    status: str
    coverage: float = float("nan")
    nrmse: float = float("nan")
    n_evaluated: int = 0
    # per target hour, in pipeline order
    within_var: np.ndarray | None = None
    between_var: np.ndarray | None = None
    total_var: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    # the same cell as re-derived by an independent path (``pvmi report`` for
    # the CLI workloads, a numpy recomputation for the library workload)
    check_coverage: float = float("nan")
    check_nrmse: float = float("nan")


@dataclass
class Outcome:
    cells: list[CellResult]
    digest: str
    bytes_written: int = 0


@dataclass
class Inputs:
    seeds: dict
    observed_targets: int  # test target hours with a known truth
    config_path: Path | None = None
    train: object = None
    test: object = None
    truth: np.ndarray | None = None  # restored test power, library workload


def derive_seeds(seed: int, workload: str, rep: int) -> dict:
    """Synth, gap and master seeds for one job of a workload, all from the
    workload seed and the job's index in the run."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    state = np.random.SeedSequence([seed, tag, rep]).generate_state(4)
    names = ("synth", "train_gaps", "test_gaps", "master")
    return {n: int(s) % 2**31 for n, s in zip(names, state)}


def _degraded_split(days: int, test_len: int, seeds: dict):
    full = pvmi.generate(SynthSpec(days=days, seed=seeds["synth"]))
    train, test = pvmi.split_chronological(full, test_len)
    train, _ = pvmi.inject_missing(train, MissingSpec(**TRAIN_GAPS, seed=seeds["train_gaps"]))
    test, test_truth = pvmi.inject_missing(test, MissingSpec(**TEST_GAPS, seed=seeds["test_gaps"]))
    return train, test, test_truth


@dataclass(frozen=True)
class GridWorkload:
    """``pvmi run`` then ``pvmi report`` on one experiment config."""

    name: str
    days: int
    test_len: int
    models: tuple
    setups: tuple
    n_rounds: tuple
    # The calibration and accuracy metrics average over the cells of this
    # many jobs, so they are a fixed function of the seed. It is sized so
    # that these jobs take 30-35 s.
    quality_jobs: int

    def config(self, seeds: dict) -> dict:
        return {
            "schema_version": 1,
            "data": {"synth": {"days": self.days, "seed": seeds["synth"]}},
            "test_len": self.test_len,
            "models": [dict(m) for m in self.models],
            "setups": list(self.setups),
            "n_rounds": list(self.n_rounds),
            "interval_families": ["normal", "gamma"],
            "train_missing": {**TRAIN_GAPS, "seed": seeds["train_gaps"]},
            "test_missing": {**TEST_GAPS, "seed": seeds["test_gaps"]},
            "alpha": ALPHA,
            "master_seed": seeds["master"],
        }

    def setup(self, seed: int, rep: int, workdir: Path) -> Inputs:
        seeds = derive_seeds(seed, self.name, rep)
        _, test, _ = _degraded_split(self.days, self.test_len, seeds)
        workdir.mkdir(parents=True, exist_ok=True)
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(self.config(seeds), indent=2))
        return Inputs(seeds, int(np.sum(~test.mask[WINDOW_HOURS:])), config_path)

    def job(self, inputs: Inputs, workdir: Path) -> None:
        out = workdir / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(["run", "--config", str(inputs.config_path), "--out", str(out)])
            except ExperimentError:
                pass  # failed cells leave markers in summary.json; the gate counts them
            cli.main(["report", str(out), "--out", str(out / "report.json")])

    def collect(self, inputs: Inputs, workdir: Path, result: None) -> Outcome:
        out = workdir / "out"
        summary_bytes = (out / "summary.json").read_bytes()
        summary = json.loads(summary_bytes)
        manifest = json.loads((out / "manifest.json").read_text())
        report = {_cell_key(c): c for c in json.loads((out / "report.json").read_text())["cells"]}
        files = {_cell_key(c): c["file"] for c in manifest["cells"]}
        cells = []
        for rec in summary["cells"]:
            key = _cell_key(rec)
            cell = CellResult(
                cell_id="/".join(str(k) for k in key),
                interval_family=rec["interval_family"],
                n_rounds=rec["n_rounds"] or 1,
                status=rec["status"],
            )
            if rec["status"] == "ok":
                cell.coverage, cell.nrmse = rec["coverage"], rec["nrmse"]
                cell.n_evaluated = rec["n_evaluated"]
                cols = _read_cell_csv(out / files[key])
                (cell.within_var, cell.between_var, cell.total_var,
                 cell.lower, cell.upper) = cols
                if key in report:
                    cell.check_coverage = report[key]["coverage"]
                    cell.check_nrmse = report[key]["nrmse"]
            cells.append(cell)
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return Outcome(cells, hashlib.sha256(summary_bytes).hexdigest(), written)

    def clean(self, workdir: Path) -> None:
        shutil.rmtree(workdir / "out", ignore_errors=True)


def _cell_key(rec: dict) -> tuple:
    return (rec["model"], rec["setup"], rec["n_rounds"], rec["interval_family"])


def _read_cell_csv(path: Path) -> tuple:
    """within, between, total, lower, upper columns of one cell CSV."""
    rows = path.read_text().splitlines()[1:]
    table = np.array([r.split(",")[4:9] for r in rows], dtype=float)
    return tuple(np.ascontiguousarray(table[:, j]) for j in range(5))


@dataclass(frozen=True)
class LibraryWorkload:
    """The README quick-start path: split, gaps, ``run_pipeline`` (kNN,
    setup 2, sampler k by LOO), intervals, metrics. Nothing is written."""

    name: str
    days: int
    test_len: int
    k: int
    n_rounds: int
    # see GridWorkload
    quality_jobs: int

    def setup(self, seed: int, rep: int, workdir: Path) -> Inputs:
        seeds = derive_seeds(seed, self.name, rep)
        train, test, test_truth = _degraded_split(self.days, self.test_len, seeds)
        truth = test_truth.restore(test).power
        return Inputs(seeds, int(np.sum(~test.mask[WINDOW_HOURS:])), None, train, test, truth)

    def job(self, inputs: Inputs, workdir: Path) -> tuple:
        pooled = pvmi.run_pipeline(
            inputs.train, inputs.test, RegressorSpec("knn", {"k": self.k}),
            setup=2, n_rounds=self.n_rounds, seed=inputs.seeds["master"], sampler_k=None,
        )
        means = [p.mean for p in pooled]
        bands = {
            "normal": [pvmi.normal_interval(p.mean, p.total_var, ALPHA) for p in pooled],
            "gamma": [pvmi.gamma_interval(p.mean, max(p.total_var, 0.0), ALPHA) for p in pooled],
        }
        scored = {family: (b, pvmi.evaluate(b, means, inputs.test, ALPHA))
                  for family, b in bands.items()}
        return pooled, scored

    def collect(self, inputs: Inputs, workdir: Path, result: tuple) -> Outcome:
        pooled, scored = result
        cols = {
            name: np.array([getattr(p, name) for p in pooled])
            for name in ("mean", "within_var", "between_var", "total_var")
        }
        rounds = {p.n_rounds for p in pooled}
        target = np.arange(WINDOW_HOURS, len(inputs.test))
        known = ~inputs.test.mask[target]
        truth = inputs.truth[target][known]
        pred = cols["mean"][known]
        digest = hashlib.sha256()
        for arr in cols.values():
            digest.update(arr.tobytes())
        cells = []
        for family, (bands, rep) in scored.items():
            lower = np.array([iv.lower for iv in bands])
            upper = np.array([iv.upper for iv in bands])
            digest.update(lower.tobytes() + upper.tobytes())
            hit = (lower[known] <= truth) & (truth <= upper[known])
            cells.append(CellResult(
                cell_id=f"{self.name}/{family}",
                interval_family=family,
                n_rounds=min(rounds) if len(rounds) == 1 else -1,
                status="ok",
                coverage=rep.coverage,
                nrmse=rep.nrmse,
                n_evaluated=rep.n_evaluated,
                within_var=cols["within_var"],
                between_var=cols["between_var"],
                total_var=cols["total_var"],
                lower=lower,
                upper=upper,
                check_coverage=float(hit.mean()),
                check_nrmse=float(np.sqrt(np.mean((pred - truth) ** 2)) / truth.max()),
            ))
        return Outcome(cells, digest.hexdigest(), 0)

    def clean(self, workdir: Path) -> None:
        pass


def _knn(k: int) -> dict:
    return {"family": "knn", "hyperparameters": {"k": k}}


# demo-grid tunes the lasso over explicit penalties. Absolute values work
# because every synthetic record has the same scale (lambda_max is about
# 1.3). The default 20-value grid reaches 1e-4 * lambda_max, where each fit
# runs the solver's full 10k sweeps, and would make one job take a minute.
# Below 0.01 the solver's sweeps to convergence become heavy-tailed across
# inputs (1.4k-8.8k per fit at 0.003, against at most 1.8k at 0.01), and one
# job's cost then depends more on its input than on the program.
LASSO = {"family": "lasso", "tune": True, "folds": 3,
         "grid": [{"lam": lam} for lam in (0.1, 0.03, 0.01)]}
MLP = {"family": "mlp", "hyperparameters": {"hidden": [48, 24], "iterations": 200}, "seed": 7}

# Each job is kept to a few seconds, so that a run holds many jobs on
# different inputs: run_s then averages over the data-dependent cost of the
# lasso and over the host's second-scale swings in speed.
WORKLOADS = {
    "demo-grid": GridWorkload(
        name="demo-grid", days=40, test_len=24 * 20,
        models=(_knn(4), LASSO, MLP),
        setups=(1, 2, 3), n_rounds=(2,), quality_jobs=8,
    ),
    "long-horizon": GridWorkload(
        name="long-horizon", days=60 + 180, test_len=24 * 180,
        models=(_knn(4),), setups=(1, 2), n_rounds=(3, 5), quality_jobs=8,
    ),
    "long-record": LibraryWorkload(
        name="long-record", days=365, test_len=24 * 90, k=8, n_rounds=5, quality_jobs=12,
    ),
}

# The same workloads shrunk so one job takes well under a second; used by the
# harness smoke test.
SMOKE = {
    "demo-grid": GridWorkload(
        name="demo-grid", days=8, test_len=24 * 3,
        models=(_knn(2), {"family": "lasso", "tune": True, "folds": 2,
                          "grid": [{"lam": 0.3}, {"lam": 0.1}]},
                {"family": "mlp", "hyperparameters": {"hidden": [4, 3], "iterations": 5}}),
        setups=(1, 2, 3), n_rounds=(2,), quality_jobs=3,
    ),
    "long-horizon": GridWorkload(
        name="long-horizon", days=10, test_len=24 * 5,
        models=(_knn(2),), setups=(1, 2), n_rounds=(2, 3), quality_jobs=3,
    ),
    "long-record": LibraryWorkload(
        name="long-record", days=12, test_len=24 * 4, k=3, n_rounds=2, quality_jobs=3,
    ),
}
