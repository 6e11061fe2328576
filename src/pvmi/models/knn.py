"""k-nearest-neighbour regression on standardized inputs.

Prediction is the mean target of the k training rows closest in Euclidean
distance. Distances are computed in the standardized feature space so that
no single channel dominates. The distance from query ``q`` to training row
``x_j`` is the float64 value ``((q - x_j) ** 2).sum()``; the neighbours are
the k rows with the smallest, and at equal distance the smaller index wins.
A row's k targets are summed in ascending index order.

In-sample residuals understate a kNN forecaster's error: each training row
is its own nearest neighbour at distance zero, so its residual shrinks to
``(k-1)/k`` of the one an unseen input would get. ``loo_residual_variance``
gives the honest figure by leaving each training row out of its own
neighbourhood.

Predict, leave-one-out and kNN tuning share one search in two stages.

1. A float32 filter. For a chunk of query rows, one float32 product gives
   ``f = |q|² - 2 q·x + |x|²`` against every training row at once: the
   query rows ``[-2q, |q|², 1]`` times a copy of the training rows
   transposed and extended by the rows ``1`` and ``|x|²``. A row's
   threshold ``tau`` is the k-th smallest of its minima over the
   ``c = min(n, max(128, 4k))`` residue classes of the columns modulo c;
   those minima sit at distinct columns, so k of the row's values are at
   most ``tau``. The filter keeps every column whose ``f`` is not above
   ``tau + 2E``, rounded up to float32, where ``E`` bounds the error of
   ``f``. A leave-one-out row's own column is set to +inf first, so it is
   neither among the k nor kept against a finite threshold.
2. A float64 refine. For the kept columns only, the exact float64 distance
   is computed, the row's own index is dropped again in leave-one-out (a
   threshold that is +inf or NaN keeps it), and the k smallest by
   (distance, index) are the neighbours.

The filter loses no neighbour. Let ``d`` be the exact real distance, ``g``
the float64 one and ``e`` a bound on ``|f - g|``. The k columns behind
``tau`` have ``g <= tau + e``, so the k-th smallest ``g`` is at most
``tau + e``, and every neighbour has ``f <= g + e <= tau + 2e``. For the
bound, write ``S = |q|² + max_j |x_j|²``, ``u = 2**-24`` and ``p`` for the
number of features. ``f`` is a float32 dot product of ``p + 2`` terms whose
magnitudes sum to at most ``2 (1 + u)² S``, since ``2 |q·x| <= |q|² +
|x|²``; summed in any order, with or without fused multiply-adds, it errs
by at most ``gamma_{p+2} = (p + 2) u / (1 - (p + 2) u)`` times that sum
(Higham 2002, *Accuracy and Stability of Numerical Algorithms*, §3.1), so
by about ``2 (p + 2) u S``. Rounding ``q``, ``x`` and the two float64 norms
to float32 adds at most ``3 u S`` to first order, and the float64 ``g``
differs from ``d`` by about ``2 (p + 3) 2**-53 S``. So ``|f - g|`` is
``(2p + 7) u S`` plus higher-order terms, and ``E = (2p + 10) (u S +
2**-126)`` covers it; the absolute term covers float32 underflow, at most
one smallest normal per product, sum and conversion, even where the BLAS
flushes subnormals to zero. When ``tau + 2E`` exceeds the float32 range, or ``f`` overflows, the
threshold is +inf or NaN; values are compared as ``not (f > threshold)``,
so such a row keeps every column and the refine alone decides.

A query's neighbours therefore depend only on its own row and the training
rows: not on its batch, the chunk size, the BLAS kernel or its thread
count. The model keeps the standardized training rows twice: row-major in
float64 for the refine, and transposed and extended in float32 for the
filter. A chunk holds as many query rows as fit ``_CHUNK_BYTES`` of float32
distances, at least one, and the refine gathers its kept rows in pieces of
a quarter of that budget, so memory stays flat however long the training
record is.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, InsufficientDataError
from .scaling import FeatureScaler

_CHUNK_BYTES = 1 << 20
_F32_MAX = float(np.finfo(np.float32).max)


class KNNRegressor:
    family = "knn"

    def __init__(self, scaler: FeatureScaler, inputs_scaled: np.ndarray,
                 targets: np.ndarray, k: int):
        n, p = inputs_scaled.shape
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        self.scaler = scaler
        self._x = np.ascontiguousarray(inputs_scaled, dtype=float)
        x_sq = (self._x ** 2).sum(axis=1)
        self._x_sq_max = float(x_sq.max())
        self._xa = np.empty((p + 2, n), dtype=np.float32)
        with np.errstate(over="ignore"):  # a row past float32 range is inf
            self._xa[:p] = self._x.T
            self._xa[p + 1] = x_sq
        self._xa[p] = 1.0
        self._y = targets
        self.k = int(k)

    @classmethod
    def fit(cls, inputs: np.ndarray, targets: np.ndarray, k: int = 8) -> "KNNRegressor":
        scaler = FeatureScaler.fit(inputs)
        return cls(scaler, scaler.transform(inputs), targets.copy(), k)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The mean target of each query row's k nearest training rows.

        Raises
        ------
        DataError
            If a query row holds a NaN or infinite entry, which has no
            nearest neighbours.
        """
        x = np.atleast_2d(x)
        if not np.isfinite(x).all():
            raise DataError("query rows contain NaN or infinite values")
        q = self.scaler.transform(x)
        out = np.empty(q.shape[0])
        for lo, hi, idx in self._nearest(q, loo=False):
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
        for lo, hi, idx in self._nearest(self._x, loo=True):
            resid[lo:hi] = self._y[idx].mean(axis=1) - self._y[lo:hi]
        return float(np.mean(resid ** 2))

    def _nearest(self, q: np.ndarray, loo: bool):
        """Yield ``(lo, hi, idx)``: the k nearest training rows of standardized
        query rows ``lo:hi``, each row of ``idx`` in ascending index order.
        Under ``loo`` the queries are the training rows, each without its
        own."""
        m, p = q.shape
        n, k = self._x.shape[0], self.k
        c = min(n, max(128, 4 * k))
        full = n - n % c
        rows = max(1, min(m, _CHUNK_BYTES // (4 * n)))
        qa = np.empty((rows, p + 2), dtype=np.float32)
        qa[:, p + 1] = 1.0
        f = np.empty((rows, n), dtype=np.float32)
        keep = np.empty((rows, n), dtype=bool)
        for lo in range(0, m, rows):
            hi = min(m, lo + rows)
            b = hi - lo
            chunk = q[lo:hi]
            q_sq = (chunk ** 2).sum(axis=1)
            # a query past float32 range overflows to +inf or NaN: kept
            with np.errstate(over="ignore", invalid="ignore"):
                qa[:b, :p] = chunk
                qa[:b, :p] *= -2.0
                qa[:b, p] = q_sq
                np.matmul(qa[:b], self._xa, out=f[:b])
                if loo:
                    f[np.arange(b), np.arange(lo, hi)] = np.inf
                mins = f[:b, :full].reshape(b, -1, c).min(axis=1)
                np.minimum(mins[:, : n - full], f[:b, full:], out=mins[:, : n - full])
                tau = np.partition(mins, k - 1, axis=1)[:, k - 1]
                err = (2 * p + 10) * (2.0 ** -24 * (q_sq + self._x_sq_max) + 2.0 ** -126)
                thr = np.minimum(tau + 2.0 * err, _F32_MAX).astype(np.float32)
                thr = np.nextafter(thr, np.float32(np.inf))
            np.greater(f[:b], thr[:, None], out=keep[:b])
            np.logical_not(keep[:b], out=keep[:b])
            row, col = np.divmod(np.flatnonzero(keep[:b]), n)
            if loo:
                other = col != row + lo
                row, col = row[other], col[other]
            yield lo, hi, self._refine(chunk, row, col)

    def _refine(self, chunk: np.ndarray, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """The k nearest of each query row's kept columns by (float64
        distance, index); ``row`` is sorted and ``col`` ascends within a
        row."""
        d2 = np.empty(row.size)
        # a quarter of the budget: the filter's buffers are still held
        step = max(1, _CHUNK_BYTES // (32 * chunk.shape[1]))
        for s in range(0, row.size, step):
            diff = self._x[col[s:s + step]] - chunk[row[s:s + step]]
            d2[s:s + step] = np.square(diff, out=diff).sum(axis=1)
        # stable: equal distances keep their ascending column order
        order = np.lexsort((d2, row))
        counts = np.bincount(row, minlength=chunk.shape[0])
        start = np.cumsum(counts) - counts
        return np.sort(col[order[start[:, None] + np.arange(self.k)]], axis=1)
