"""Exception types, and the integer check of config fields, shared across
the package.

Everything derives from :class:`ValueError` so that callers who do not care
about the fine-grained category can catch one base class.
"""


class GapError(ValueError):
    """Timestamps are not consecutive hourly steps."""


class DomainError(ValueError):
    """A value lies outside its physical domain (negative power/irradiance,
    or an absent irradiance reading)."""


class DataError(ValueError):
    """Supervised data contains NaN or non-finite entries."""


class InsufficientDataError(ValueError):
    """Too few observations to carry out the requested operation."""


class IncompleteDataError(ValueError):
    """An operation that requires a fully observed series received one
    with missing values."""


class EmptyEvaluationError(ValueError):
    """No observed points are available to evaluate a metric on."""


class DegenerateNormalizationError(ValueError):
    """A normalising constant is zero, so the metric is undefined."""


class CollinearDesignError(ValueError):
    """The lasso cannot be solved: its standardized features are linearly
    dependent where the solution needs them independent, or its path does
    not reach the penalty within the step cap."""


class ExperimentError(RuntimeError):
    """One or more experiment cells failed; partial results were written."""


def check_int(name: str, value, low: int | None = None) -> None:
    """Reject a ``value`` of field ``name`` that is not an integer, or is
    below ``low`` when one is given; as in JSON, neither a bool nor a float
    is an integer."""
    if isinstance(value, bool) or not isinstance(value, int) or (
            low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
