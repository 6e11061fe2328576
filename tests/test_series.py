from datetime import datetime, timedelta

import numpy as np
import pytest

from pvmi import (
    DomainError,
    GapError,
    HourlySeries,
    parse_csv,
    split_chronological,
    write_csv,
)
from pvmi.series import serialize_csv
from tests.conftest import make_series

CSV = """timestamp,power,irradiance
2022-03-01T00:00:00,0.0,0.0
2022-03-01T01:00:00,,0.1
2022-03-01T02:00:00,2.5,0.55
2022-03-01T03:00:00,nan,0.2
"""


def test_parse_basic():
    s = parse_csv(CSV)
    assert len(s) == 4
    assert s.start == datetime(2022, 3, 1)
    assert s.mask.tolist() == [False, True, False, True]
    assert s.power[2] == 2.5
    assert np.isnan(s.power[1]) and np.isnan(s.power[3])
    assert s.irradiance.tolist() == [0.0, 0.1, 0.55, 0.2]


def test_round_trip_preserves_everything():
    s = parse_csv(CSV)
    again = parse_csv(serialize_csv(s))
    assert again.start == s.start
    assert np.array_equal(again.mask, s.mask)
    assert np.array_equal(again.power[~s.mask], s.power[~s.mask])
    assert np.array_equal(again.irradiance, s.irradiance)


def test_round_trip_nine_significant_digits(rng):
    power = rng.uniform(0, 5, 48)
    irr = rng.uniform(0, 1, 48)
    s = make_series(power, irr)
    again = parse_csv(serialize_csv(s))
    np.testing.assert_allclose(again.power, power, rtol=1e-8)
    np.testing.assert_allclose(again.irradiance, irr, rtol=1e-8)


def test_write_and_read_path(tmp_path):
    s = parse_csv(CSV)
    p = tmp_path / "series.csv"
    write_csv(s, p)
    assert np.array_equal(parse_csv(p).mask, s.mask)
    # string path whose name ends in .csv is treated as a path too
    assert len(parse_csv(str(p))) == 4


def test_missing_power_spellings():
    base = "timestamp,power,irradiance\n2022-01-01T00:00:00,{},0.5\n"
    for cell in ("", "nan", "NaN", " NAN "):
        s = parse_csv(base.format(cell))
        assert s.mask[0]


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        parse_csv("time,power,ghi\n2022-01-01T00:00:00,1,1\n")


def test_parse_rejects_empty_and_headerless():
    with pytest.raises(ValueError):
        parse_csv("")
    with pytest.raises(ValueError, match="no data rows"):
        parse_csv("timestamp,power,irradiance\n")


def test_parse_rejects_gap():
    text = (
        "timestamp,power,irradiance\n"
        "2022-01-01T00:00:00,1,1\n"
        "2022-01-01T02:00:00,1,1\n"
    )
    with pytest.raises(GapError):
        parse_csv(text)


def test_parse_rejects_duplicate_hour():
    text = (
        "timestamp,power,irradiance\n"
        "2022-01-01T00:00:00,1,1\n"
        "2022-01-01T00:00:00,1,1\n"
    )
    with pytest.raises(GapError):
        parse_csv(text)


def test_parse_rejects_bad_timestamp():
    with pytest.raises(ValueError, match="timestamp"):
        parse_csv("timestamp,power,irradiance\n01/02/2022,1,1\n")


def test_parse_rejects_negative_power():
    with pytest.raises(DomainError):
        parse_csv("timestamp,power,irradiance\n2022-01-01T00:00:00,-0.1,1\n")


def test_parse_rejects_missing_or_negative_irradiance():
    with pytest.raises(DomainError, match="irradiance"):
        parse_csv("timestamp,power,irradiance\n2022-01-01T00:00:00,1,\n")
    with pytest.raises(DomainError):
        parse_csv("timestamp,power,irradiance\n2022-01-01T00:00:00,1,-2\n")


@pytest.mark.parametrize("row, column", [("x,1", "power"), ("1,x", "irradiance")])
def test_parse_rejects_a_non_numeric_cell_naming_its_column(row, column):
    with pytest.raises(ValueError, match=f"line 2: bad {column} cell 'x'"):
        parse_csv(f"timestamp,power,irradiance\n2022-01-01T00:00:00,{row}\n")


def test_parse_rejects_wrong_cell_count():
    with pytest.raises(ValueError, match="3 cells"):
        parse_csv("timestamp,power,irradiance\n2022-01-01T00:00:00,1\n")


def test_series_mask_derived_from_nan():
    s = HourlySeries(START := datetime(2022, 1, 1), np.array([1.0, np.nan]),
                     np.array([0.5, 0.5]))
    assert s.mask.tolist() == [False, True]
    assert s.n_missing() == 1
    with pytest.raises(TypeError):  # the mask is derived, never passed
        HourlySeries(START, np.array([1.0]), np.array([0.5]), np.array([False]))


def test_series_rejects_length_mismatch_and_empty():
    with pytest.raises(ValueError):
        HourlySeries(datetime(2022, 1, 1), np.array([1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        HourlySeries(datetime(2022, 1, 1), np.array([]), np.array([]))
    # a string start used to fail only later, in a split or a write
    with pytest.raises(ValueError, match="^start must be a datetime"):
        HourlySeries("2022-01-01", np.array([1.0]), np.array([0.5]))


def test_series_rejects_negative_observed_power():
    with pytest.raises(DomainError):
        make_series([1.0, -0.5])


def test_series_arrays_read_only():
    s = make_series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.power[0] = 9.0
    with pytest.raises(ValueError):
        s.mask[0] = True


def test_split_chronological():
    s = make_series(np.arange(100, dtype=float))
    train, test = split_chronological(s, test_len=30)
    assert len(train) == 70 and len(test) == 30
    assert test.start == s.start + timedelta(hours=70)
    assert np.array_equal(train.power, s.power[:70])
    assert np.array_equal(test.irradiance, s.irradiance[70:])


def test_split_bounds():
    s = make_series(np.arange(60, dtype=float))
    with pytest.raises(ValueError):
        split_chronological(s, 24)  # too short for one forecast window
    with pytest.raises(ValueError):
        split_chronological(s, 60)
    with pytest.raises(ValueError):
        split_chronological(s, 25.0)
    train, test = split_chronological(s, 25)
    assert len(test) == 25 and len(train) == 35


def test_split_preserves_mask():
    p = np.arange(100, dtype=float)
    p[10] = np.nan
    p[90] = np.nan
    s = make_series(p)
    train, test = split_chronological(s, 30)
    assert train.n_missing() == 1 and test.n_missing() == 1
    assert test.mask[20]  # hour 90 lands at offset 20 of the tail
