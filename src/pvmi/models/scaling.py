"""Per-feature standardization learned on training inputs.

Every model family standardizes its inputs with the training mean and
standard deviation. A constant feature (``np.ptp == 0``) is centred on its
value and gets a unit divisor, so it passes through as exact zeros; its
float mean and std would not do that, since the mean of n copies of 0.1 is
not 0.1 and leaves a std of about 1e-17.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class FeatureScaler:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, inputs: np.ndarray) -> "FeatureScaler":
        constant = np.ptp(inputs, axis=0) == 0
        mean = np.where(constant, inputs[0], inputs.mean(axis=0))
        std = np.where(constant, 1.0, _column_std(inputs))
        return cls(mean=mean, std=std)

    def transform(self, inputs: np.ndarray) -> np.ndarray:
        out = np.subtract(inputs, self.mean, dtype=float)
        out /= self.std  # in place: one array of the inputs' size
        return out

    def transform_queries(self, x: np.ndarray) -> np.ndarray:
        """:meth:`transform` of query rows, as a 2-D array.

        Raises
        ------
        DataError
            If a query row holds a NaN or infinite entry, which no model
            can forecast from.
        """
        x = np.atleast_2d(x)
        if not np.isfinite(x).all():
            raise DataError("query rows contain NaN or infinite values")
        return self.transform(x)


def _column_std(inputs: np.ndarray) -> np.ndarray:
    """``inputs.std(axis=0)``, bit for bit, computed 8 columns at a time, so
    that its temporary holds one block, not the whole inputs. A block of two
    or more columns keeps numpy's row-by-row sums down each column, but a
    single strided column would be summed pairwise: a last block of one
    column joins the block before it."""
    n = inputs.shape[1]
    starts = [s for s in range(0, n, 8) if s == 0 or s < n - 1]
    return np.concatenate([inputs[:, s:e].std(axis=0) for s, e in zip(starts, starts[1:] + [n])])
