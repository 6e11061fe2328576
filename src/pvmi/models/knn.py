"""k-nearest-neighbour regression on standardized inputs.

Prediction is the mean target of the k training rows closest in Euclidean
distance. Distances are computed in the standardized feature space so that
no single channel dominates.

In-sample residuals understate a kNN forecaster's error: each training row
is its own nearest neighbour at distance zero, so its residual shrinks to
``(k-1)/k`` of the one an unseen input would get. ``loo_residual_variance``
gives the honest figure by leaving each training row out of its own
neighbourhood.

Both searches compare a chunk of query rows with every training row at once.
A chunk holds as many rows as fit ``_CHUNK_BYTES`` of squared distances, at
least one, so memory stays flat however long the training record is; the
distances are built in one buffer, which ``argpartition`` then reads.

The bits of a matrix product depend on its shape: numpy multiplies a single
row by gemv, and OpenBLAS picks a different gemm kernel for a product with
few rows (on AVX-512 builds, a "small matrix" kernel), each rounding
differently. So a short last chunk is padded with zero rows to the full
chunk's row count, every product of one model has the same shape, and a
query's distances, hence its neighbours at a near tie, do not depend on how
many queries its batch holds: ``predict(x[i:i+1])`` equals
``predict(x)[i]``. One exception remains: the distances to the last few
training rows (the kernel's remainder block; 4 of 2700 on one AVX-512
build) can round differently by the query's position in its chunk.
"""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientDataError
from .scaling import FeatureScaler

_CHUNK_BYTES = 1 << 20


class KNNRegressor:
    family = "knn"

    def __init__(self, scaler: FeatureScaler, inputs_scaled: np.ndarray,
                 targets: np.ndarray, k: int):
        if not 1 <= k <= inputs_scaled.shape[0]:
            raise ValueError(
                f"k must lie in [1, {inputs_scaled.shape[0]}], got {k}"
            )
        self.scaler = scaler
        self._x = inputs_scaled
        self._x_sq = (inputs_scaled ** 2).sum(axis=1)
        self._y = targets
        self.k = int(k)

    @classmethod
    def fit(cls, inputs: np.ndarray, targets: np.ndarray, k: int = 8) -> "KNNRegressor":
        scaler = FeatureScaler.fit(inputs)
        return cls(scaler, scaler.transform(inputs), targets.copy(), k)

    def predict(self, x: np.ndarray) -> np.ndarray:
        q = self.scaler.transform(np.atleast_2d(x))
        out = np.empty(q.shape[0])
        for lo, hi, d2 in self._distance_chunks(q):
            idx = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
            out[lo:hi] = self._y[idx].mean(axis=1)
        return out

    def loo_residual_variance(self) -> float:
        """Mean squared leave-one-out residual over the training rows.

        Row ``i`` is forecast from the k nearest of the *other* training
        rows: it is excluded by its index, so the result is exact even when
        several rows share the same input.

        Raises
        ------
        InsufficientDataError
            If ``k`` is not below the number of training rows, which leaves
            no leave-one-out neighbourhood of size k.
        """
        n = self._x.shape[0]
        if self.k >= n:
            raise InsufficientDataError(
                f"leave-one-out needs k < {n} training rows, got k={self.k}"
            )
        resid = np.empty(n)
        for lo, hi, d2 in self._distance_chunks(self._x):
            d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            idx = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
            resid[lo:hi] = self._y[idx].mean(axis=1) - self._y[lo:hi]
        return float(np.mean(resid ** 2))

    def _distance_chunks(self, q: np.ndarray):
        """Yield ``(lo, hi, d2)``: squared distances from standardized query
        rows ``lo:hi`` to every training row."""
        m, d = q.shape
        rows = max(1, _CHUNK_BYTES // (8 * self._x.shape[0]))
        for lo in range(0, m, rows):
            hi = min(m, lo + rows)
            chunk = q[lo:hi]
            if hi - lo < rows:  # one product shape for every chunk
                chunk = np.concatenate([chunk, np.zeros((rows - (hi - lo), d))])
            d2 = ((2.0 * chunk) @ self._x.T)[: hi - lo]
            np.subtract((q[lo:hi] ** 2).sum(axis=1)[:, None], d2, out=d2)
            d2 += self._x_sq
            yield lo, hi, d2
