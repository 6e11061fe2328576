"""Synthetic PV benchmark data with a known conditional distribution.

Each day carries a half-sine clear-sky irradiance profile (zero at night,
peak at solar noon) scaled by a per-day cloudiness factor drawn uniformly
from [0.3, 1]. Power is irradiance times a plant efficiency, perturbed by
multiplicative Gaussian noise and clipped at zero:

    power = max(0, efficiency * irradiance * (1 + eps)),   eps ~ N(0, noise^2)

Because the noise is multiplicative, the conditional law of power given
irradiance is a zero-clipped normal whose CDF is available in closed form;
that makes the generator usable as a ground-truth oracle when checking any
estimator of the conditional distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import check_fields
from .series import HourlySeries

DAWN_HOUR = 6
DUSK_HOUR = 18
_DAY_START = datetime(2021, 1, 1, 0, 0)


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings.

    days
        Number of simulated days (24 hours each); at least 3.
    peak_irradiance
        Clear-sky irradiance at solar noon, kW/m^2.
    efficiency
        Plant output per unit irradiance, kWh per kW/m^2.
    noise_scale
        Relative standard deviation of the multiplicative power noise.
    seed
        RNG seed, a non-negative integer; the same spec always generates the
        same series.
    """

    days: int = 365
    peak_irradiance: float = 1.0
    efficiency: float = 5.0
    noise_scale: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, days=3, noise_scale=0, seed=0)
        if self.peak_irradiance <= 0 or self.efficiency <= 0:
            raise ValueError("peak_irradiance and efficiency must be positive")


def clear_sky_profile(spec: SynthSpec) -> np.ndarray:
    """Cloud-free irradiance for one day, indexed by hour of day (len 24)."""
    hours = np.arange(24, dtype=float)
    # strict bounds: sin(pi) is not exactly zero in floating point, and the
    # night contract (irradiance == 0.0) must hold bitwise at dawn and dusk
    up = (hours > DAWN_HOUR) & (hours < DUSK_HOUR)
    profile = np.zeros(24)
    profile[up] = spec.peak_irradiance * np.sin(
        math.pi * (hours[up] - DAWN_HOUR) / (DUSK_HOUR - DAWN_HOUR)
    )
    return profile


def generate(spec: SynthSpec) -> HourlySeries:
    """Simulate ``spec.days`` days of hourly (power, irradiance) data.

    The returned series has no missing values; nighttime hours have both
    irradiance and power exactly zero.
    """
    rng = np.random.default_rng(spec.seed)
    cloud = rng.uniform(0.3, 1.0, size=spec.days)
    irr = (clear_sky_profile(spec)[None, :] * cloud[:, None]).ravel()
    eps = rng.normal(0.0, spec.noise_scale, size=irr.size)
    power = np.maximum(0.0, spec.efficiency * irr * (1.0 + eps))
    return HourlySeries(start=_DAY_START, power=power, irradiance=irr)
