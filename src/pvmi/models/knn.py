"""k-nearest-neighbour regression on standardized inputs.

Prediction is the mean target of the k training rows closest in Euclidean
distance. Distances are computed in the standardized feature space so that
no single channel dominates. The neighbours are the k nearest rows; at equal
distance, the smaller index wins. A row's k targets are summed in ascending
index order.

In-sample residuals understate a kNN forecaster's error: each training row
is its own nearest neighbour at distance zero, so its residual shrinks to
``(k-1)/k`` of the one an unseen input would get. ``loo_residual_variance``
gives the honest figure by leaving each training row out of its own
neighbourhood.

Both searches compare a chunk of query rows with every training row at once.
A chunk holds as many rows as fit ``_CHUNK_BYTES`` of squared distances, at
least one, so memory stays flat however long the training record is; the
distances are built in one buffer, which ``_k_nearest`` then reads. The
model keeps one copy of the standardized training rows, transposed to
``(features, rows)`` and C-contiguous, so the product reads it in order.
Leave-one-out queries are copied out of it row-major, chunk by chunk: a row
sum over a column-major slice would round differently.

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
# every _STRIDE-th distance of a row gives a bound on its k-th smallest
_STRIDE = 5


def _k_nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of ``d2``, ties
    to the smaller index, each row in ascending index order.

    The k-th smallest of a strided subsample bounds the row's k-th smallest
    from above, so the entries at or below it hold the answer; only those
    few candidates are sorted.
    """
    m, n = d2.shape
    step = max(1, min(_STRIDE, n // k))  # the subsample keeps >= k columns
    tau = np.partition(d2[:, ::step], k - 1, axis=1)[:, k - 1]
    flat = np.flatnonzero(d2 <= tau[:, None])
    row, col = np.divmod(flat, n)
    counts = np.bincount(row, minlength=m)
    start = np.cumsum(counts) - counts
    pos = np.arange(flat.size) - np.repeat(start, counts)
    cand = np.full((m, counts.max()), np.inf)
    cand[row, pos] = d2[row, col]
    # a row's candidates lie in index order, so a stable sort breaks ties
    # by index; a padded row's k-th distance is finite, so its padding is
    # never among its first k
    first = np.sort(np.argsort(cand, axis=1, kind="stable")[:, :k], axis=1)
    return col[start[:, None] + first]


class KNNRegressor:
    family = "knn"

    def __init__(self, scaler: FeatureScaler, inputs_scaled: np.ndarray,
                 targets: np.ndarray, k: int):
        if not 1 <= k <= inputs_scaled.shape[0]:
            raise ValueError(
                f"k must lie in [1, {inputs_scaled.shape[0]}], got {k}"
            )
        self.scaler = scaler
        # squared first: its temporary and the transposed copy never coexist
        self._x_sq = (inputs_scaled ** 2).sum(axis=1)
        self._xt = np.ascontiguousarray(inputs_scaled.T)
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
            out[lo:hi] = self._y[_k_nearest(d2, self.k)].mean(axis=1)
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
        n = self._xt.shape[1]
        if self.k >= n:
            raise InsufficientDataError(
                f"leave-one-out needs k < {n} training rows, got k={self.k}"
            )
        resid = np.empty(n)
        for lo, hi, d2 in self._distance_chunks(self._xt.T):
            d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            idx = _k_nearest(d2, self.k)
            resid[lo:hi] = self._y[idx].mean(axis=1) - self._y[lo:hi]
        return float(np.mean(resid ** 2))

    def _distance_chunks(self, q: np.ndarray):
        """Yield ``(lo, hi, d2)``: squared distances from standardized query
        rows ``lo:hi`` to every training row."""
        m, d = q.shape
        rows = max(1, _CHUNK_BYTES // (8 * self._xt.shape[1]))
        for lo in range(0, m, rows):
            hi = min(m, lo + rows)
            chunk = np.ascontiguousarray(q[lo:hi])
            padded = chunk
            if hi - lo < rows:  # one product shape for every chunk
                padded = np.concatenate([chunk, np.zeros((rows - (hi - lo), d))])
            d2 = ((2.0 * padded) @ self._xt)[: hi - lo]
            np.subtract((chunk ** 2).sum(axis=1)[:, None], d2, out=d2)
            d2 += self._x_sq
            yield lo, hi, d2
