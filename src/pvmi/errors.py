"""Exception types, and the type check of config fields, shared across the
package.

Everything derives from :class:`ValueError` so that callers who do not care
about the fine-grained category can catch one base class.

One rule types every config value (:func:`check`, driven by the declared
annotations in :func:`check_fields`): an ``int`` field takes an integer, a
``float`` field any finite number, a ``str`` field a string; as in JSON, a bool
is never a number and a float never an integer. A numpy scalar is stored as
the Python number it holds, and a Python ``int`` stays an ``int``, so every
config echoes to the same JSON.
"""

import functools
import numbers
import sys
import typing
from dataclasses import fields

import numpy as np


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


_KINDS = {int: "an integer", float: "a number", str: "a string"}
_type_hints = functools.cache(typing.get_type_hints)


def check(name: str, value, kind, low=None):
    """``value`` of field ``name`` as the plain Python value of ``kind``:
    ``int``, ``float`` or ``str``, or a tuple of kinds for a list of that many
    integers. Raises ``ValueError`` naming the field if it is not one, if a
    number is NaN or beyond the range of a double, or if it is below ``low``
    when one is given."""
    if isinstance(kind, tuple):
        plain = ([_plain(v, k) for v, k in zip(value, kind)]
                 if isinstance(value, (list, tuple)) and len(value) == len(kind) else [None])
        if None in plain:
            raise ValueError(f"{name} must be a list of {len(kind)} integers, got {value!r}")
        return type(value)(plain)
    plain = _plain(value, kind)
    if kind is float and plain is not None and not abs(plain) <= sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if plain is None or (low is not None and plain < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be {_KINDS[kind]}{bound}, got {value!r}")
    return plain


def check_list(name: str, value) -> tuple:
    """``value`` of list field ``name`` as a tuple. Raises ``ValueError``
    naming the field if it is not a list; a string is not one."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def check_fields(obj, **lows) -> None:
    """:func:`check` every ``int``, ``float`` and ``str`` field of the frozen
    dataclass ``obj`` against its declared annotation; a ``tuple[X, ...]``
    field must be a list (:func:`check_list`), stored as a tuple, and each
    element of kind ``X`` is checked too. An ``X | None`` field also takes
    None, and other fields are left alone. ``lows`` gives fields their lower
    bounds. Each field is stored as the value :func:`check` returns."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        args = typing.get_args(hint)
        if type(None) in args:
            if value is None:
                continue
            (hint,) = (a for a in args if a is not type(None))
            args = typing.get_args(hint)
        low = lows.get(f.name)
        if typing.get_origin(hint) is tuple and args[1:] == (...,):
            value = check_list(f.name, value)
            if args[0] in _KINDS:
                value = tuple(check(f.name, v, args[0], low) for v in value)
        elif hint in _KINDS:
            value = check(f.name, value, hint, low)
        else:
            continue
        object.__setattr__(obj, f.name, value)


def _plain(value, kind):
    """``value`` as a Python value of ``kind``, or None if it is not one."""
    if kind is str:
        return value if isinstance(value, str) else None
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        return None
    return value.item() if isinstance(value, np.generic) else value
