"""Hourly PV series container and CSV round-tripping.

A series couples two aligned columns sampled on a contiguous hourly grid:
AC power, NaN where the reading is missing, and plane-of-array irradiance,
always observed. NaN power is the one record of a missing hour; the series
derives its missing-power mask from it, so a series is built from
``(start, power, irradiance)`` alone.

The on-disk format is a three-column CSV with header
``timestamp,power,irradiance``. Missing power is written as an empty cell and
accepted on input as either an empty cell or a (case-insensitive) ``NaN``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import DomainError, GapError, check

_HEADER = ("timestamp", "power", "irradiance")
_HOUR = timedelta(hours=1)


@dataclass(frozen=True, eq=False)
class HourlySeries:
    """Immutable, contiguous hourly record of power and irradiance.

    Parameters
    ----------
    start : datetime
        Calendar stamp of the first hour. Hour ``t`` is ``start + t hours``.
    power : ndarray of float64
        AC power per hour; NaN where the reading is missing.
    irradiance : ndarray of float64
        Irradiance per hour; always finite and non-negative.

    ``mask`` is derived, not passed: True exactly where ``power`` is NaN.
    """

    start: datetime
    power: np.ndarray
    irradiance: np.ndarray
    mask: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.start, datetime):
            raise ValueError(f"start must be a datetime, got {self.start!r}")
        power = np.asarray(self.power, dtype=np.float64).copy()
        irr = np.asarray(self.irradiance, dtype=np.float64).copy()
        if power.ndim != 1 or irr.ndim != 1:
            raise ValueError("power and irradiance must be 1-D")
        if len(power) != len(irr):
            raise ValueError(
                f"column lengths differ: power={len(power)} irradiance={len(irr)}"
            )
        if len(power) == 0:
            raise ValueError("series must contain at least one hour")
        mask = np.isnan(power)
        observed = power[~mask]
        if observed.size and (not np.all(np.isfinite(observed)) or np.any(observed < 0)):
            raise DomainError("observed power must be finite and >= 0")
        if not np.all(np.isfinite(irr)) or np.any(irr < 0):
            raise DomainError("irradiance must be finite and >= 0")
        for name, arr in (("power", power), ("irradiance", irr), ("mask", mask)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.power)

    def n_missing(self) -> int:
        return int(self.mask.sum())


def parse_csv(text_or_path: str | Path) -> HourlySeries:
    """Read an ``timestamp,power,irradiance`` CSV into an :class:`HourlySeries`.

    Accepts either the CSV content itself or a path to a file. Timestamps
    must be ISO-8601 and advance by exactly one hour per row.

    Raises
    ------
    GapError
        If consecutive timestamps are not exactly one hour apart.
    DomainError
        If an irradiance cell is missing, or any value is negative.
    ValueError
        On a malformed header, row, timestamp, or an empty table.
    """
    text = _as_text(text_or_path)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV: expected a header row") from None
    if tuple(h.strip() for h in header) != _HEADER:
        raise ValueError(
            f"bad header {header!r}: expected {','.join(_HEADER)}"
        )

    stamps: list[datetime] = []
    power: list[float] = []
    irr: list[float] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"line {lineno}: expected 3 cells, got {len(row)}")
        try:
            stamp = datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise ValueError(f"line {lineno}: bad timestamp {row[0]!r}") from None
        stamps.append(stamp)
        power.append(_parse_cell(row[1], lineno, "power"))
        irr.append(_parse_cell(row[2], lineno, "irradiance"))

    if not stamps:
        raise ValueError("CSV contains a header but no data rows")
    for i in range(1, len(stamps)):
        if stamps[i] - stamps[i - 1] != _HOUR:
            raise GapError(
                f"line {i + 2}: timestamp {stamps[i].isoformat()} does not "
                f"follow {stamps[i - 1].isoformat()} by one hour"
            )
    return HourlySeries(start=stamps[0], power=np.array(power), irradiance=np.array(irr))


def serialize_csv(series: HourlySeries) -> str:
    """Render a series in the standard CSV format.

    Missing power is written as an empty cell; numbers use 9 significant
    digits, which is the precision contract of the format.
    """
    lines = [",".join(_HEADER)]
    stamp = series.start
    for t in range(len(series)):
        p = "" if series.mask[t] else _fmt(series.power[t])
        lines.append(f"{stamp.isoformat()},{p},{_fmt(series.irradiance[t])}")
        stamp = stamp + _HOUR
    return "\n".join(lines) + "\n"


def write_csv(series: HourlySeries, path: str | Path) -> None:
    Path(path).write_text(serialize_csv(series))


def split_chronological(series: HourlySeries, test_len: int) -> tuple[HourlySeries, HourlySeries]:
    """Split into (train, test) keeping time order; the last ``test_len``
    hours become the test part.

    ``test_len`` must leave a non-empty training head and must exceed 24,
    otherwise the test part cannot support a single one-hour-ahead input
    window.
    """
    t = len(series)
    test_len = check("test_len", test_len, int)
    if not 24 < test_len < t:
        raise ValueError(f"test_len must satisfy 24 < test_len < {t}, got {test_len}")
    cut = t - test_len
    head = HourlySeries(
        start=series.start,
        power=series.power[:cut],
        irradiance=series.irradiance[:cut],
    )
    tail = HourlySeries(
        start=series.start + cut * _HOUR,
        power=series.power[cut:],
        irradiance=series.irradiance[cut:],
    )
    return head, tail


# ---------------------------------------------------------------------------
# helpers

def _as_text(text_or_path: str | Path) -> str:
    if isinstance(text_or_path, Path):
        return text_or_path.read_text()
    if "\n" not in text_or_path and text_or_path.strip().endswith(".csv"):
        return Path(text_or_path).read_text()
    return text_or_path


def _parse_cell(cell: str, lineno: int, column: str) -> float:
    """One ``power`` or ``irradiance`` cell; an empty or NaN cell is a
    missing reading, which only the power column may have."""
    cell = cell.strip()
    if cell == "" or cell.lower() == "nan":
        if column == "irradiance":
            raise DomainError(f"line {lineno}: irradiance must always be observed")
        return float("nan")
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {column} cell {cell!r}") from None
    if value < 0:
        raise DomainError(f"line {lineno}: negative {column} {value}")
    return value


def _fmt(x: float) -> str:
    return format(float(x), ".9g")
