"""Reproducible injection of block-shaped gaps into the power column.

Sensor and logger outages in PV telemetry knock out contiguous stretches of
hours, so gaps are injected as blocks rather than independent hours. Two
modes are supported: an explicit list of ``(start, length)`` blocks, and a
target missing fraction that is met by placing fixed-length blocks at
uniformly random admissible positions (the final block is trimmed so the
fraction is hit as closely as the grid allows).

Injection always returns the removed hours and their values as two arrays,
so a simulation can later be scored against the exact ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check, check_fields
from .series import HourlySeries

MODE_EXPLICIT = "explicit-blocks"
MODE_FRACTION = "target-fraction"


@dataclass(frozen=True)
class MissingSpec:
    """Configuration for gap injection.

    mode
        ``"explicit-blocks"`` uses ``blocks``; ``"target-fraction"`` places
        random blocks of ``block_len_hours`` until ``target_fraction`` of all
        hours is missing.
    blocks
        List of ``(start_index, length)`` integer pairs, explicit mode only;
        :func:`inject_missing` checks their bounds.
    target_fraction
        Desired missing fraction in ``[0, 1)``.
    block_len_hours
        Block length for target-fraction mode; defaults to one week.
    seed
        Seed for the block-placement RNG (target-fraction mode).
    """

    mode: str
    blocks: tuple[tuple[int, int], ...] = ()
    target_fraction: float = 0.0
    block_len_hours: int = 168
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, block_len_hours=1, seed=0)
        if self.mode not in (MODE_EXPLICIT, MODE_FRACTION):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "blocks", tuple(
            _block(f"blocks[{i}]", b) for i, b in enumerate(self.blocks)))
        if self.mode == MODE_FRACTION and not 0.0 <= self.target_fraction < 1.0:
            raise ValueError("target_fraction must lie in [0, 1)")


def _block(name: str, block) -> tuple[int, int]:
    """``block`` as a ``(start, length)`` pair of Python integers."""
    if not isinstance(block, (list, tuple)) or len(block) != 2:
        raise ValueError(f"{name} must be a list of 2 integers, got {block!r}")
    start, length = block
    return check(f"{name} start", start, int), check(f"{name} length", length, int)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """The values removed by an injection: ``values[i]`` is the power that
    hour ``index[i]`` held, in ascending order of hour."""

    index: np.ndarray
    values: np.ndarray

    def restore(self, series: HourlySeries) -> HourlySeries:
        """Undo the injection: put every stored value back."""
        observed = self.index[~series.mask[self.index]]
        if observed.size:
            raise ValueError(f"hour {observed[0]} is not missing in the given series")
        power = series.power.copy()
        power[self.index] = self.values
        return HourlySeries(series.start, power, series.irradiance)


def inject_missing(series: HourlySeries, spec: MissingSpec) -> tuple[HourlySeries, GroundTruth]:
    """Remove power values per ``spec`` and return (masked series, removed values).

    Explicit blocks must lie in bounds, not overlap each other, and cover
    only currently observed hours. In target-fraction mode the requested
    fraction must be reachable with non-overlapping blocks of the configured
    length placed on the observed hours, otherwise ValueError is raised.
    """
    t = len(series)
    if spec.mode == MODE_EXPLICIT:
        taken = series.mask.copy()
        for start, length in spec.blocks:
            if length <= 0:
                raise ValueError(f"block length must be positive, got {length}")
            if start < 0 or start + length > t:
                raise ValueError(f"block ({start}, {length}) exceeds series bounds [0, {t})")
            if taken[start : start + length].any():
                raise ValueError(
                    f"block ({start}, {length}) overlaps another block or an "
                    "already-missing hour"
                )
            taken[start : start + length] = True
        index = np.flatnonzero(taken & ~series.mask)
    else:
        index = np.sort(np.array(_place_random_blocks(series.mask, spec), dtype=np.intp))
    power = series.power.copy()
    truth = GroundTruth(index, power[index])
    power[index] = np.nan
    return HourlySeries(series.start, power, series.irradiance), truth


def missing_fraction(series: HourlySeries) -> float:
    """Share of hours whose power is missing."""
    return float(series.mask.mean())


def _place_random_blocks(mask: np.ndarray, spec: MissingSpec) -> list[int]:
    t = len(mask)
    needed = int(round(spec.target_fraction * t)) - int(mask.sum())
    if needed <= 0:
        return []
    rng = np.random.default_rng(spec.seed)
    taken = mask.copy()
    chosen: list[int] = []
    while needed > 0:
        length = min(spec.block_len_hours, needed)
        # admissible starts: the whole block fits and covers observed hours
        # only; a window's count of free hours is a difference of running sums
        free_before = np.concatenate(([0], np.cumsum(~taken)))
        starts = np.flatnonzero(free_before[length:] - free_before[:-length] == length)
        if starts.size == 0:
            raise ValueError(
                "cannot reach the target fraction: no room left for a block "
                f"of {length} observed hours"
            )
        start = int(starts[rng.integers(starts.size)])
        taken[start : start + length] = True
        chosen.extend(range(start, start + length))
        needed -= length
    return chosen
