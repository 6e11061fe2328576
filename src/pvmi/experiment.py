"""Config-driven experiment grid over setups, models, rounds and intervals.

A JSON config describes one dataset (a CSV path or a synthetic-data spec),
how to split and degrade it, which model families to run, and which
interval families to score. The experiment enumerates every non-redundant
cell of

    setup x model x n_rounds x interval_family

(setup 1 ignores the number of rounds, so its cells collapse along that
axis), pools each cell's rounds with the one :class:`~pvmi.pipeline.Pipeline`
of its model (so setup 1 and every setup-2 cell of a model share one fitted
model), and writes three artifacts into the output directory. There is one
seed per (model, setup), and a B-round cell pools the first B rounds of
that setup: the cells of a setup share their rounds, so each round is drawn,
fitted and predicted once, for the largest B.

``summary.json``
    one record per cell with coverage, NRMSE, evaluated-hour count and mean
    interval width; byte-identical across reruns of the same config.
``manifest.json``
    resolved hyperparameters, sampler size, each cell's seed (derived per
    model and setup, so every B of a setup carries the same seed) and the
    echoed config, for provenance.
``cells/*.csv``
    per-hour detail (truth, mask, pooled moments, interval bounds, covered
    flag) for each cell, sufficient to re-aggregate the summary.

:func:`run` works in three passes over arrays. It pools each pipeline once.
It cuts each interval family once: one kernel call on the distinct
(mean, total variance) pairs among the hours of every pipeline that pooled,
each pair cut once, gathered back to every hour that holds it and split
back by pipeline (the kernels are elementwise, so every bound has the bits
of a call on its pipeline's hours alone). Then it scores and writes each
cell. The CSVs hold ``repr`` of every float, so they round-trip exactly;
their columns are formatted once where they are shared: hour, truth and
mask once per run, a pipeline's four pooled moments at its first cell
(dropped after its last), and only the bounds and covered flag per cell;
within a column, each distinct float is formatted once. Pairs and floats
are told apart by their bits, never by float equality, so ``0.0`` and
``-0.0`` keep their own bounds and text. :func:`reaggregate` reads each CSV
back into column arrays and scores them with the same
:func:`~pvmi.metrics.score` that :func:`run` uses.

Cell failures are recorded as failure markers instead of aborting the grid;
after all cells ran, an :class:`ExperimentError` reports them. A pipeline
that raises is pooled once, and all its cells get the same marker. If a
family's batched cut raises, the family is cut again per pipeline, so that
only the cells whose hours raise fail, with the error of a cut on their
hours.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, models
from .errors import ExperimentError, check_fields, check_list
from .features import WINDOW_HOURS
from .imputation import fit_sampler
from .intervals import INTERVAL_FAMILIES
from .metrics import EvalReport, score, target_truths
from .missingness import MissingSpec, inject_missing, missing_fraction
from .pipeline import SETUPS, Completions, Pipeline
from .series import HourlySeries, parse_csv, split_chronological
from .synth import SynthSpec, generate

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """One model family in the grid, either with explicit hyperparameters or
    tuned on the training data before any cell runs. ``tune`` follows from
    ``hyperparameters``; given, it must agree. The hyperparameters and each
    ``grid`` entry are stored as :class:`~pvmi.models.RegressorSpec` stores
    them, numpy scalars as Python numbers."""

    family: str
    hyperparameters: dict | None = None
    tune: bool | None = None
    grid: tuple | None = None
    folds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, folds=1, seed=0)
        if self.family not in models.FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        tuned = self.hyperparameters is None
        if self.tune is not None and self.tune is not tuned:
            raise ValueError(f"tune must be {str(tuned).lower()} when hyperparameters "
                             f"are {'absent' if tuned else 'given'}, got {self.tune!r}")
        if not tuned and self.grid is not None:
            raise ValueError("grid: a model with hyperparameters is not tuned")
        object.__setattr__(self, "tune", tuned)
        if tuned and self.grid is None and self.family == "mlp":
            raise ValueError("the mlp has no default grid: give it hyperparameters "
                             "or a grid to tune over")
        if self.grid is not None:
            if not (isinstance(self.grid, (list, tuple))
                    and all(isinstance(hp, Mapping) for hp in self.grid)):
                raise ValueError(
                    f"grid must be a list of hyperparameter mappings, got {self.grid!r}")
            if not self.grid:
                raise ValueError("grid must contain at least one candidate")

        def checked(hp: dict) -> dict:  # rejects unknown keys and mistyped values
            return models.RegressorSpec(self.family, hp).hyperparameters

        if not tuned:
            object.__setattr__(self, "hyperparameters", checked(self.hyperparameters))
        if self.grid is not None:
            object.__setattr__(self, "grid", tuple(map(checked, self.grid)))


@dataclass(frozen=True)
class ExperimentConfig:
    data_csv: str | None
    data_synth: SynthSpec | None
    test_len: int
    model_configs: tuple[ModelConfig, ...]
    setups: tuple[int, ...] = SETUPS
    n_rounds: tuple[int, ...] = (5, 10)
    interval_families: tuple[str, ...] = tuple(INTERVAL_FAMILIES)
    train_missing: MissingSpec | None = None
    test_missing: MissingSpec | None = None
    alpha: float = 0.05
    sampler_k: int | None = None
    master_seed: int = 0
    output_dir: str = "experiment-out"

    def __post_init__(self) -> None:
        check_fields(self, setups=1, n_rounds=1, sampler_k=1, master_seed=0)
        if (self.data_csv is None) == (self.data_synth is None):
            raise ValueError("config must name exactly one data source (csv or synth)")
        if not self.model_configs:
            raise ValueError("config must list at least one model")
        if not all(isinstance(m, ModelConfig) for m in self.model_configs):
            raise ValueError("model_configs must be a list of ModelConfig, "
                             f"got {self.model_configs!r}")
        for name in ("setups", "n_rounds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if any(s not in SETUPS for s in self.setups):
            raise ValueError(f"setups must be a subset of {SETUPS}, got {self.setups}")
        if not self.interval_families or any(
            f not in INTERVAL_FAMILIES for f in self.interval_families
        ):
            raise ValueError(f"interval_families must be drawn from {tuple(INTERVAL_FAMILIES)}")
        if len(set(self.interval_families)) < len(self.interval_families):
            raise ValueError("interval_families must not repeat a family, "
                             f"got {list(self.interval_families)}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


# JSON keys that differ from the ExperimentConfig fields they fill
_JSON_KEYS = {"data_csv": "data", "data_synth": "data", "model_configs": "models"}


def config_from_json(doc: dict) -> ExperimentConfig:
    """Validate and convert a parsed JSON document into a config."""
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {doc.get('schema_version')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    doc = {k: v for k, v in doc.items() if k != "schema_version"}
    defaults = {_JSON_KEYS.get(f.name, f.name): f.default for f in fields(ExperimentConfig)}
    _check_keys("config", doc, known=set(defaults),
                required={k for k, v in defaults.items() if v is MISSING})
    data = doc.pop("data")
    _check_keys("data", data, known={"csv", "synth"})
    for part in ("train_missing", "test_missing"):
        if doc.get(part) is not None:
            doc[part] = from_json(MissingSpec, part, doc[part])
    return ExperimentConfig(
        data_csv=data.get("csv"),
        data_synth=from_json(SynthSpec, "data.synth", data["synth"]) if "synth" in data else None,
        model_configs=tuple(from_json(ModelConfig, f"models[{i}]", m)
                            for i, m in enumerate(check_list("models", doc.pop("models")))),
        **doc,
    )


def from_json(cls, where: str, doc: dict):
    """``cls(**doc)`` for a dataclass ``cls``, after checking ``doc``'s keys
    against its fields; ``where`` names the object in the error."""
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    _check_keys(where, doc, known={f.name for f in fields(cls)}, required=required)
    return cls(**doc)


def _check_keys(where: str, doc: dict, known: set, required: set = frozenset()) -> None:
    if not isinstance(doc, Mapping):
        raise ValueError(f"{where} must be a mapping, got {doc!r}")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}")
    missing = sorted(required - set(doc))
    if missing:
        raise ValueError(f"missing {where} key(s) {missing}")


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_json(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# cell enumeration

@dataclass(frozen=True)
class Cell:
    """One scored configuration; ``n_rounds`` is None for setup-1 cells."""

    setup: int
    model_index: int
    model_label: str
    n_rounds: int | None
    interval_family: str

    @property
    def pipeline_id(self) -> str:
        b = f"_b{self.n_rounds}" if self.n_rounds is not None else ""
        return f"s{self.setup}{b}_{self.model_label}"

    @property
    def cell_id(self) -> str:
        return f"{self.pipeline_id}_{self.interval_family}"


def model_labels(config: ExperimentConfig) -> list[str]:
    """Stable display labels; family name, disambiguated when repeated."""
    families = [m.family for m in config.model_configs]
    labels = []
    for i, fam in enumerate(families):
        if families.count(fam) == 1:
            labels.append(fam)
        else:
            labels.append(f"{fam}{families[:i].count(fam) + 1}")
    return labels


def enumerate_cells(config: ExperimentConfig) -> list[Cell]:
    """Every non-redundant cell, in deterministic execution order."""
    labels = model_labels(config)
    cells = []
    for i, label in enumerate(labels):
        for setup in sorted(set(config.setups)):
            b_axis = [None] if setup == 1 else sorted(set(config.n_rounds))
            for b in b_axis:
                for fam in config.interval_families:
                    cells.append(Cell(setup, i, label, b, fam))
    return cells


def _pipeline_seed(master_seed: int, model_index: int, setup: int) -> int:
    seq = np.random.SeedSequence([master_seed, model_index, setup])
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# running

def run(config: ExperimentConfig, output_dir: str | Path | None = None) -> dict:
    """Run every cell and write summary, manifest and per-cell CSVs.

    Returns the summary document. Raises :class:`ExperimentError` after the
    grid finishes if any cell failed (its marker is in the summary).
    """
    out = Path(output_dir) if output_dir is not None else Path(config.output_dir)
    full = _load_data(config)
    train, test = split_chronological(full, config.test_len)
    truth_restored = test  # the test series before any injected gap
    if config.train_missing is not None:
        train, _ = inject_missing(train, config.train_missing)
    if config.test_missing is not None:
        test, _ = inject_missing(test, config.test_missing)

    sampler = fit_sampler(train, k=config.sampler_k)
    completions = Completions(train, test, sampler)
    resolved_specs = _resolve_models(config, completions)
    pipelines = [Pipeline(completions, spec) for spec in resolved_specs]
    # only now: a run that fails to inject, fit the sampler or tune writes nothing
    (out / "cells").mkdir(parents=True, exist_ok=True)

    hour_fields = _hour_fields(test, truth_restored)

    labels = model_labels(config)
    cells = enumerate_cells(config)
    pooled = _pool_pipelines(config, cells, pipelines)
    bounds = _cut(config, pooled)
    fields_for, moment_fields = None, None
    summary_cells: list[dict] = []
    manifest_cells: list[dict] = []
    failures: list[str] = []

    for cell in cells:
        seed, pooling = pooled[cell.pipeline_id]
        record = {
            "setup": cell.setup,
            "model": cell.model_label,
            "n_rounds": cell.n_rounds,
            "interval_family": cell.interval_family,
        }
        try:
            cut = bounds[cell.pipeline_id, cell.interval_family]
            if isinstance(cut, Exception):
                raise cut
            lower, upper = cut
            scores = score(lower, upper, pooling.mean,
                           target_truths(test, pooling.mean.size), config.alpha)
            if fields_for != cell.pipeline_id:  # a pipeline's cells are adjacent
                moment_fields = None  # drop the last pipeline's rows first
                moment_fields = _moment_fields(hour_fields, pooling)
                fields_for = cell.pipeline_id
            csv_name = f"cells/cell_{cell.cell_id}.csv"
            _write_cell_csv(out / csv_name, moment_fields, lower, upper, truth_restored)
            record.update(status="ok", **_score_fields(scores))
            manifest_cells.append(
                {"id": cell.cell_id, "file": csv_name, "seed": seed, **{
                    k: record[k] for k in ("setup", "model", "n_rounds", "interval_family")
                }}
            )
        except Exception as exc:  # cell isolation: record and continue
            record.update(status="failed", error=f"{type(exc).__name__}: {exc}")
            failures.append(cell.cell_id)
        summary_cells.append(record)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "alpha": config.alpha,
        "cells": summary_cells,
    }
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "master_seed": config.master_seed,
        "sampler_k": sampler.k,
        "test_len": config.test_len,
        "train_missing_fraction": _round(missing_fraction(train)),
        "test_missing_fraction": _round(missing_fraction(test)),
        "models": [
            {
                "label": label,
                "family": spec.family,
                "hyperparameters": spec.hyperparameters,
                "seed": spec.seed,
                "tuned": mc.tune,
            }
            for label, mc, spec in zip(labels, config.model_configs, resolved_specs)
        ],
        "cells": manifest_cells,
        "config": _config_echo(config),
    }
    texts = {name: json.dumps(doc, indent=2, sort_keys=True) + "\n"
             for name, doc in (("summary.json", summary), ("manifest.json", manifest))}
    for name, text in texts.items():  # both serialised before either is written
        _write_text_atomic(out / name, text)
    if failures:
        raise ExperimentError(
            f"{len(failures)} cell(s) failed: {', '.join(failures)}; "
            f"markers written to {out / 'summary.json'}"
        )
    return summary


def _pool_pipelines(config: ExperimentConfig, cells: list[Cell],
                    pipelines: list[Pipeline]) -> dict[str, tuple]:
    """Each pipeline's seed and its pooling, or the exception its pooling
    raised, by pipeline id; each pipeline is pooled once. A setup's B-round
    pipelines share its model's rounds, each drawn once, in any order."""
    pooled: dict[str, tuple] = {}
    for cell in cells:
        if cell.pipeline_id in pooled:
            continue
        b_run = 1 if cell.n_rounds is None else cell.n_rounds
        seed = _pipeline_seed(config.master_seed, cell.model_index, cell.setup)
        try:
            result = pipelines[cell.model_index].pool(cell.setup, b_run, seed)
        except Exception as exc:  # its cells get the marker
            result = exc
        pooled[cell.pipeline_id] = (seed, result)
    return pooled


def _cut(config: ExperimentConfig, pooled: dict[str, tuple]) -> dict[tuple, object]:
    """The bounds of every (pipeline id, interval family), or the exception
    that its pooling or its cut raised. Each family cuts, in one kernel
    call, the distinct (mean, total_var) pairs among the hours of every
    pipeline that pooled, keyed by their bits; each hour then takes the
    bounds of its pair. The kernels are elementwise, so a pipeline's bounds
    are those of a call on its hours alone. If the call raises, each
    pipeline is cut on its own hours, so that only the pipelines whose
    hours raise fail, with the error a call on their hours gives."""
    bounds: dict[tuple, object] = {}
    ok = {}
    for pid, (_, pooling) in pooled.items():
        if isinstance(pooling, Exception):
            bounds.update({(pid, family): pooling for family in config.interval_families})
        else:
            ok[pid] = pooling
    if not ok:
        return bounds
    ends = np.cumsum([p.mean.size for p in ok.values()])[:-1]
    hours = np.stack([np.concatenate([p.mean for p in ok.values()]),
                      np.concatenate([p.total_var for p in ok.values()])], axis=1)
    # the distinct (mean, total_var) pairs, keyed by their 16 bytes
    _, first, inverse = np.unique(hours.view(np.dtype((np.void, 16))).ravel(),
                                  return_index=True, return_inverse=True)
    mean, total_var = hours[first].T.copy()
    for family in config.interval_families:
        kernel = INTERVAL_FAMILIES[family]
        try:
            lower, upper = kernel(mean, total_var, config.alpha)
        except Exception:
            for pid, p in ok.items():
                try:
                    bounds[pid, family] = kernel(p.mean, p.total_var, config.alpha)
                except Exception as exc:
                    bounds[pid, family] = exc
            continue
        lower, upper = lower[inverse], upper[inverse]
        for pid, lo, up in zip(ok, np.split(lower, ends), np.split(upper, ends)):
            bounds[pid, family] = (lo, up)
    return bounds


def reaggregate(output_dir: str | Path) -> dict:
    """Rebuild the summary from the per-cell CSVs (cross-check path)."""
    out = Path(output_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    original = json.loads((out / "summary.json").read_text())
    cells = []
    for entry in manifest["cells"]:
        cols = _read_cell_csv(out / entry["file"])
        truth = np.where(cols["mask"] == 0, cols["truth"], np.nan)  # scored hours only
        scores = score(cols["lower"], cols["upper"], cols["pooled_mean"], truth,
                       original["alpha"])
        cells.append({
            **{k: entry[k] for k in ("setup", "model", "n_rounds", "interval_family")},
            "status": "ok",
            **_score_fields(scores),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "alpha": original["alpha"],
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# helpers

def _load_data(config: ExperimentConfig) -> HourlySeries:
    if config.data_csv is not None:
        return parse_csv(Path(config.data_csv))
    return generate(config.data_synth)


def _resolve_models(config: ExperimentConfig,
                    completions: Completions) -> list[models.RegressorSpec]:
    """Turn every ModelConfig into a concrete RegressorSpec, tuning on the
    single-imputed training set where requested."""
    specs: list[models.RegressorSpec] = []
    for mc in config.model_configs:
        if not mc.tune:
            specs.append(models.RegressorSpec(mc.family, mc.hyperparameters, mc.seed))
            continue
        train_ds = completions.train_single
        if mc.grid is not None:
            grid = list(mc.grid)
        elif mc.family == "knn":
            max_k = len(train_ds) // (mc.folds + 1)
            grid = models.default_knn_grid(max(1, max_k))
        else:  # lasso; ModelConfig requires a grid to tune the MLP
            grid = models.default_lasso_grid(train_ds)
        spec = models.tune_chronological(mc.family, train_ds, grid, folds=mc.folds,
                                         seed=mc.seed)
        specs.append(spec)
    return specs


def _score_fields(scores: EvalReport) -> dict:
    """A cell's metrics as ``summary.json`` records them."""
    return {
        "coverage": _round(scores.coverage),
        "nrmse": _round(scores.nrmse),
        "n_evaluated": scores.n_evaluated,
        "mean_width": _round(scores.mean_width),
    }


_CSV_HEADER = ("t,truth,mask,pooled_mean,within_var,between_var,total_var,"
               "lower,upper,covered")


def _hour_fields(test: HourlySeries, truth_restored: HourlySeries) -> list[str]:
    """The ``t,truth,mask`` fields of each cell CSV row; ``t`` is the target
    hour, a 0-based index into the test series."""
    hours = range(WINDOW_HOURS, len(test))
    truth = truth_restored.power[WINDOW_HOURS:].tolist()
    known = (~truth_restored.mask[WINDOW_HOURS:]).tolist()
    mask = test.mask[WINDOW_HOURS:].astype(int).tolist()
    return [f"{t},{y!r},{m}" if k else f"{t},,{m}"
            for t, y, k, m in zip(hours, truth, known, mask)]


def _moment_fields(hour_fields: list[str], pooled) -> list[str]:
    """Each row's fields up to ``total_var``: the hour fields and the
    pooled moments."""
    return [f"{h},{m},{w},{b},{t}" for h, m, w, b, t in zip(
        hour_fields, _reprs(pooled.mean), _reprs(pooled.within_var),
        _reprs(pooled.between_var), _reprs(pooled.total_var))]


def _write_cell_csv(path: Path, moment_fields: list[str], lower: np.ndarray,
                    upper: np.ndarray, truth_restored: HourlySeries) -> None:
    truth = truth_restored.power[WINDOW_HOURS:]
    covered = np.where(truth_restored.mask[WINDOW_HOURS:], "",
                       np.where((lower <= truth) & (truth <= upper), "1", "0"))
    rows = [f"{f},{lo},{up},{c}" for f, lo, up, c in zip(
        moment_fields, _reprs(lower), _reprs(upper), covered.tolist())]
    _write_text_atomic(path, "\n".join([_CSV_HEADER, *rows]) + "\n")


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of every element of a float array, each distinct bit pattern
    formatted once. Keyed by bits, not by value, so ``0.0`` and ``-0.0``
    keep their own text."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.uint64),
                              return_inverse=True)
    return np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[inverse].tolist()


_CSV_COLUMNS = _CSV_HEADER.split(",")
_SCORED_COLUMNS = ("truth", "mask", "pooled_mean", "lower", "upper")


def _read_cell_csv(path: Path) -> dict[str, np.ndarray]:
    """The columns of a cell CSV that :func:`reaggregate` scores, one float
    array each; an unknown truth reads as NaN. ``float`` parses each
    ``repr`` back to the same double."""
    header, _, body = path.read_text().partition("\n")
    if header != _CSV_HEADER:
        raise ValueError(f"{path}: unexpected cell CSV header")
    fields = body.replace("\n", ",").split(",")[:-1]  # the text ends in a newline
    width = len(_CSV_COLUMNS)
    if len(fields) % width:
        raise ValueError(f"{path}: a row does not have {width} fields")
    return {
        name: np.array([float(v or "nan") for v in fields[_CSV_COLUMNS.index(name)::width]])
        for name in _SCORED_COLUMNS
    }


def _config_echo(config: ExperimentConfig) -> dict:
    """The config in its JSON layout, without ``schema_version`` and
    ``output_dir``."""
    doc = asdict(config)
    csv, synth = doc.pop("data_csv"), doc.pop("data_synth")
    doc["data"] = {"csv": csv} if csv is not None else {"synth": synth}
    doc["models"] = doc.pop("model_configs")
    del doc["output_dir"]
    return doc


def _round(x: float) -> float:
    """Stabilize reported metrics against sub-ulp platform jitter."""
    return float(f"{x:.12g}")


def _write_text_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
