"""The one type rule of config fields, :func:`pvmi.errors.check`."""

import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pvmi.errors import check

NUMPY_SCALARS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                 np.uint64, np.float32, np.float64, np.bool_)

values = st.one_of(
    st.integers(), st.floats(), st.booleans(),
    *(hnp.from_dtype(np.dtype(t)).map(t) for t in NUMPY_SCALARS),
)


def hyperparameter_check_accepts(value, kind) -> bool:
    """The acceptance set of the per-hyperparameter check that ``check``
    replaced: an integer default took any ``numbers.Integral``, a float
    default any ``numbers.Real``, and neither took a bool."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return integral if kind is int else (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


@given(values, st.sampled_from([int, float]))
def test_check_accepts_the_non_bool_numbers_of_a_kind_as_python_numbers(value, kind):
    try:
        plain = check("x", value, kind)
    except ValueError as exc:
        assert str(exc).startswith("x must be an integer" if kind is int else "x must be a number")
        assert not hyperparameter_check_accepts(value, kind)
        return
    assert hyperparameter_check_accepts(value, kind)
    assert type(plain) is (int if isinstance(value, numbers.Integral) else float)
    assert plain == value or (math.isnan(plain) and math.isnan(value))
    json.dumps(plain)


@pytest.mark.parametrize("value, kind, low", [
    (0, int, 1), (-1.5, float, 0), (np.int64(-1), int, 0), (["4", 3], (int, int), None),
    ([4], (int, int), None), (4, (int, int), None), (4, str, None), (b"a", str, None),
])
def test_check_rejects_a_value_outside_its_kind_or_bound(value, kind, low):
    with pytest.raises(ValueError, match="^x must be "):
        check("x", value, kind, low)
