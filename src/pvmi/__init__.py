"""Short-term PV power forecasting with missing-data uncertainty.

PV telemetry loses power readings in contiguous blocks while irradiance
stays observed. Filling those gaps with a single "best guess" and training
as if nothing happened produces prediction intervals that are too narrow.
This package instead estimates the conditional distribution of power given
irradiance with a nearest-neighbour sampler, draws several completed
datasets from it, runs the forecast pipeline once per draw, and pools the
per-draw forecasts so that the pooled predictive variance carries the
imputation uncertainty. Intervals are then cut from a normal or a
moment-matched gamma distribution, and scored by empirical coverage and
normalized RMSE on the observed test hours.
"""

from .errors import (
    CollinearDesignError,
    DataError,
    DegenerateNormalizationError,
    DomainError,
    EmptyEvaluationError,
    ExperimentError,
    GapError,
    IncompleteDataError,
    InsufficientDataError,
)
from .features import WINDOW_HOURS, SupervisedDataset, build_training
from .imputation import ConditionalSampler, complete_series, fit_sampler
from .intervals import PredictionInterval, gamma_interval, normal_cdf, normal_interval
from .metrics import EvalReport, coverage, evaluate, nrmse
from .missingness import GroundTruth, MissingSpec, inject_missing, missing_fraction
from .models import RegressorSpec, fit, residual_variance, tune_chronological
from .pipeline import run_pipeline
from .pooling import PooledPrediction, rubin_pool
from .series import HourlySeries, parse_csv, split_chronological, write_csv
from .synth import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "CollinearDesignError",
    "ConditionalSampler",
    "DataError",
    "DegenerateNormalizationError",
    "DomainError",
    "EmptyEvaluationError",
    "EvalReport",
    "ExperimentError",
    "GapError",
    "GroundTruth",
    "HourlySeries",
    "IncompleteDataError",
    "InsufficientDataError",
    "MissingSpec",
    "PooledPrediction",
    "PredictionInterval",
    "RegressorSpec",
    "SupervisedDataset",
    "SynthSpec",
    "WINDOW_HOURS",
    "build_training",
    "complete_series",
    "coverage",
    "evaluate",
    "fit",
    "fit_sampler",
    "gamma_interval",
    "generate",
    "inject_missing",
    "missing_fraction",
    "normal_cdf",
    "normal_interval",
    "nrmse",
    "parse_csv",
    "residual_variance",
    "rubin_pool",
    "run_pipeline",
    "split_chronological",
    "tune_chronological",
    "write_csv",
]
