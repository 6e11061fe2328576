"""Per-feature standardization learned on training inputs.

Every model family standardizes its inputs with the training mean and
standard deviation; features with zero variance get a unit divisor so they
pass through as constant zeros instead of dividing by zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeatureScaler:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, inputs: np.ndarray) -> "FeatureScaler":
        mean = inputs.mean(axis=0)
        std = inputs.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, inputs: np.ndarray) -> np.ndarray:
        return (np.asarray(inputs, dtype=float) - self.mean) / self.std
