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
    DataError,
    DegenerateNormalizationError,
    DomainError,
    EmptyEvaluationError,
    ExperimentError,
    GapError,
    IncompleteDataError,
    InsufficientDataError,
)
from .features import (
    N_FEATURES,
    WINDOW_HOURS,
    SupervisedDataset,
    build_training,
)
from .imputation import (
    DEFAULT_K_GRID,
    ConditionalSampler,
    complete_series,
    fit_sampler,
    neighbors,
    sample_power,
    select_k,
)
from .intervals import (
    PredictionInterval,
    gamma_interval,
    gamma_quantile,
    gamma_shape_scale,
    inverse_normal_cdf,
    normal_cdf,
    normal_interval,
    regularized_gamma_p,
)
from .metrics import EvalReport, coverage, evaluate, nrmse
from .missingness import (
    MODE_EXPLICIT,
    MODE_FRACTION,
    GroundTruth,
    MissingSpec,
    inject_missing,
    missing_fraction,
)
from .models import (
    RegressorSpec,
    fit,
    load_model,
    residual_variance,
    save_model,
    tune_chronological,
)
from .pipeline import run_pipeline
from .pooling import PooledPrediction, RoundPrediction, rubin_pool
from .series import HourlySeries, parse_csv, serialize_csv, split_chronological, write_csv
from .synth import SynthSpec, generate, true_conditional_cdf

__version__ = "0.1.0"

__all__ = [
    "ConditionalSampler",
    "DEFAULT_K_GRID",
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
    "MODE_EXPLICIT",
    "MODE_FRACTION",
    "MissingSpec",
    "N_FEATURES",
    "PooledPrediction",
    "PredictionInterval",
    "RegressorSpec",
    "RoundPrediction",
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
    "gamma_quantile",
    "gamma_shape_scale",
    "generate",
    "inject_missing",
    "inverse_normal_cdf",
    "load_model",
    "missing_fraction",
    "neighbors",
    "normal_cdf",
    "normal_interval",
    "nrmse",
    "parse_csv",
    "regularized_gamma_p",
    "residual_variance",
    "rubin_pool",
    "run_pipeline",
    "sample_power",
    "save_model",
    "select_k",
    "serialize_csv",
    "split_chronological",
    "true_conditional_cdf",
    "tune_chronological",
    "write_csv",
]
