import numpy as np
import pytest

from pvmi import (
    WINDOW_HOURS,
    IncompleteDataError,
    InsufficientDataError,
    SupervisedDataset,
    build_training,
)
from pvmi.features import N_FEATURES
from tests.conftest import make_series


def test_window_constants():
    assert WINDOW_HOURS == 24
    assert N_FEATURES == 48


def test_minimal_series_yields_one_row():
    power = np.arange(25, dtype=float)
    irr = np.arange(25, dtype=float) / 100
    data = build_training(make_series(power, irr))
    assert data.inputs.shape == (1, 48)
    assert data.targets.shape == (1,)
    # row 0 belongs to hour 23: interleaved (power, irradiance) pairs, most
    # recent hour first
    assert data.inputs[0, 0] == 23.0 and data.inputs[0, 1] == 0.23
    assert data.inputs[0, 2] == 22.0 and data.inputs[0, 3] == 0.22
    assert data.inputs[0, 46] == 0.0 and data.inputs[0, 47] == 0.0
    assert data.targets[0] == 24.0


def test_row_count_and_time_index():
    T = 100
    data = build_training(make_series(np.arange(T, dtype=float)))
    assert len(data) == T - 24
    # row i belongs to hour 23 + i and predicts hour 24 + i
    assert data.inputs[:, 0].tolist() == list(range(23, T - 1))
    assert data.targets.tolist() == list(range(24, T))


def test_lag_layout_on_random_data(rng):
    power = rng.uniform(0, 5, 60)
    irr = rng.uniform(0, 1, 60)
    data = build_training(make_series(power, irr))
    for row in range(len(data)):
        t = 23 + row  # the hour the row belongs to
        for lag in range(24):
            assert data.inputs[row, 2 * lag] == power[t - lag]
            assert data.inputs[row, 2 * lag + 1] == irr[t - lag]
        assert data.targets[row] == power[t + 1]


def test_requires_complete_series():
    p = np.arange(40, dtype=float)
    p[7] = np.nan
    with pytest.raises(IncompleteDataError):
        build_training(make_series(p))


def test_too_short_series():
    with pytest.raises(InsufficientDataError):
        build_training(make_series(np.arange(24, dtype=float)))


def test_dataset_arrays_read_only():
    data = build_training(make_series(np.arange(30, dtype=float)))
    with pytest.raises(ValueError):
        data.inputs[0, 0] = 1.0
    with pytest.raises(ValueError):
        data.targets[0] = 1.0


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        SupervisedDataset(np.zeros((3, 47)), np.zeros(3))
    with pytest.raises(ValueError):
        SupervisedDataset(np.zeros((3, 48)), np.zeros(4))
