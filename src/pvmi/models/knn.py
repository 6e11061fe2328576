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
neighbourhood: row i's k nearest other rows, by (distance, index), are its
k + 1 nearest without i. Its float64 distance to itself is exactly zero, so
i is among them unless k + 1 rows of smaller index precede it, each at
distance zero; then the first k of those are its k nearest others, and the
last one is dropped instead.

Predict, leave-one-out and kNN tuning share one search. At fit, the model
takes the top two eigenvectors of the centred Gram matrix of its rows as
the rows of a (2, p) matrix ``P`` and sorts its training columns by the
angle ``theta`` of ``z = P (x - mu)``, ``mu`` the column mean. Hourly PV
windows lie near a ring in that plane, the hour of day. A query row then
goes through four steps.

1. A threshold. One float32 product gives ``f = |q|² - 2 q·x + |x|²``
   against a range of training columns: the query row ``[-2q, |q|², 1]``
   times the training rows transposed and extended by the rows ``1`` and
   ``|x|²``. Over a range of columns that holds the ``w = max(8k, n //
   24)`` nearest the query in angle (about one hour of day of an hourly
   record), ``tau`` is the k-th smallest of the row's minima over the ``c
   = max(128, 4k)`` residue classes of the range (every column if there
   are fewer); those minima sit at distinct columns, so k of the row's
   values are at most ``tau``.
2. An angular window. Every neighbour lies within squared distance ``U =
   tau + E`` of the query (``E`` below). For ``P`` with orthonormal rows,
   ``|q - x| >= |z_q - z_x|``, and the distance from ``z_q``, at radius
   ``rho``, to any point of the ray at angle ``theta_x`` is at least ``rho
   |sin(theta_q - theta_x)|`` when the angles are less than pi/2 apart and
   ``rho`` otherwise. So a neighbour has ``|theta_q - theta_x| <=
   arcsin(sqrt(U) / rho)``, a contiguous circular range of the sorted
   columns; where ``sqrt(U) >= rho`` or a value is not finite, the range is
   every column, the full scan. This is the projection bound of Friedman,
   Baskett & Shustek (1975, *IEEE Trans. Computers* C-24:1000).
3. A float32 filter. In the window it keeps every column whose ``f`` is not
   above ``tau + 2E``, rounded up to float32.
4. A float64 refine. A row with exactly k kept columns has them as its
   neighbours; for the others the exact float64 distance is computed for
   the kept columns only, and the k smallest by (distance, index) are the
   neighbours.

The filter loses no neighbour. Let ``d`` be the exact real distance, ``g``
the float64 one and ``e`` a bound on ``|f - g|``. The k columns behind
``tau`` have ``g <= tau + e``, so the k-th smallest ``g`` is at most
``tau + e``, every neighbour has ``f <= g + e <= tau + 2e``, and its ``d``
is at most ``tau + e + |g - d| <= U``. For the bound, write ``S = |q|² +
max_j |x_j|²``, ``u = 2**-24`` and ``p`` for the number of features. ``f``
is a float32 dot product of ``p + 2`` terms whose magnitudes sum to at most
``2 (1 + u)² S``, since ``2 |q·x| <= |q|² + |x|²``; summed in any order,
with or without fused multiply-adds, it errs by at most ``gamma_{p+2} = (p
+ 2) u / (1 - (p + 2) u)`` times that sum (Higham 2002, *Accuracy and
Stability of Numerical Algorithms*, §3.1), so by about ``2 (p + 2) u S``.
Rounding ``q``, ``x`` and the two float64 norms to float32 adds at most ``3
u S`` to first order, and the float64 ``g`` differs from ``d`` by about ``2
(p + 3) 2**-53 S``. So ``|f - g|`` is ``(2p + 7) u S`` plus higher-order
terms, and ``E = (2p + 10) (u S + 2**-126)`` covers it and ``|g - d|``; the
absolute term covers float32 underflow, at most one smallest normal per
product, sum and conversion, even where the BLAS flushes subnormals to
zero. When ``tau + 2E`` exceeds the float32 range, or ``f`` overflows, the
threshold is +inf or NaN; values are compared as ``not (f > threshold)``,
so such a row keeps every column and the refine alone decides.

The window loses no neighbour either: it is widened for its own rounding.
The computed ``P`` need not be orthonormal; ``sigma``, the square root of
the largest eigenvalue of ``P Pᵀ``, bounds its norm and multiplies
``sqrt(U)``. ``z`` is computed as ``v Pᵀ - P mu``; summed in any order,
each of its two entries errs by at most ``gamma_{p+1} sigma (|v| +
|mu|)``, so the vector by at most ``eps_v = (p + 2) 2**-52 sigma (|v| +
|mu|)``. A neighbour then has ``|z_q - z_x| <= sigma sqrt(U) + eps_q +
eps_x``, and ``s``, that sum with the largest training ``eps_x`` over
``rho``, bounds the sine. The range taken is ``arcsin(s (1 + 2**-40)) +
2**-40``: the relative error of ``s``, within a few times ``p 2**-53`` with
the dot products behind ``sigma``, and the absolute errors of ``arctan2``,
``arcsin`` and the shifts by 2 pi, a few ulps of pi each, are below a
thousandth of these margins. A training row at
the origin is at distance ``rho`` from ``z_q`` whatever its angle.

A query's neighbours therefore depend only on its own row and the training
rows: not on its batch, the chunk size, the BLAS kernel or its thread
count. Queries are taken in angle order, in chunks of consecutive rows
that read the hull of their ranges. A chunk has the least cost per row,
``_CHUNK_COST`` for the chunk plus its width, among those of at most
``_CHUNK_ROWS`` rows that fit ``_CHUNK_BYTES`` of float32 values (or one
row); on a short record, one chunk reading every column is the cheapest.
The results go back to query order. The model keeps the standardized training
rows once in float64, in their order, for the refine, and once in float32,
transposed, extended and in angle order, for the filter, with the map back
to row indices. The refine gathers its kept rows in pieces of an eighth of
the budget, so memory stays flat however long the training record is.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InsufficientDataError, check
from .scaling import FeatureScaler

_CHUNK_BYTES = 1 << 20
_CHUNK_ROWS = 512
_CHUNK_COST = 1 << 16  # the fixed cost of a chunk, in float32 values of f
_F32_MAX = float(np.finfo(np.float32).max)
_MARGIN = 2.0 ** -40


class KNNRegressor:
    family = "knn"

    def __init__(self, scaler: FeatureScaler, inputs_scaled: np.ndarray,
                 targets: np.ndarray, k: int):
        n, p = inputs_scaled.shape
        k = check("k", k, int)
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        self.scaler = scaler
        self._x = np.ascontiguousarray(inputs_scaled, dtype=float)
        x_sq = _squared_norms(self._x)
        self._x_sq_max = float(x_sq.max())
        self._xa = np.empty((p + 2, n), dtype=np.float32)
        with np.errstate(over="ignore"):  # a row past float32 range is inf
            self._xa[:p] = self._x.T
            self._xa[p + 1] = x_sq
        self._xa[p] = 1.0
        self._plane, self._mean, self._gain = _principal_plane(self._x, self._xa[:p])
        theta, _, radius = self._project(self._x, x_sq)
        self._order = np.argsort(theta, kind="stable")
        self._theta = theta[self._order]
        self._radius_max = float(radius.max())
        for r in self._xa:  # into angle order a row at a time: no second copy
            r[:] = r[self._order]
        self._y = targets
        self.k = k

    @classmethod
    def fit(cls, inputs: np.ndarray, targets: np.ndarray, k: int = 8) -> "KNNRegressor":
        scaler = FeatureScaler.fit(inputs)
        return cls(scaler, scaler.transform(inputs), targets.copy(), k)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The mean target of each query row's k nearest training rows; a
        NaN or infinite entry raises ``DataError``."""
        q = self.scaler.transform_queries(x)
        out = np.empty(q.shape[0])
        for rows, idx in self._nearest(q, self.k):
            out[rows] = self._y[idx].mean(axis=1)
        return out

    def loo_residual_variance(self) -> float:
        """Mean squared leave-one-out residual over the training rows.

        Row ``i`` is forecast from the k nearest of the *other* training
        rows, its k + 1 nearest less itself (see the module docstring), so
        the result is exact even when several rows share the same input.

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
        for rows, idx in self._nearest(self._x, self.k + 1):
            own = idx == rows[:, None]
            own[~own.any(axis=1), -1] = True  # k + 1 duplicates precede the row
            others = idx[~own].reshape(-1, self.k)
            resid[rows] = self._y[others].mean(axis=1) - self._y[rows]
        return float(np.mean(resid ** 2))

    def _project(self, v: np.ndarray, v_sq: np.ndarray):
        """Angle and radius of ``z = P (v - mu)`` for standardized rows ``v``
        of squared norms ``v_sq``, and ``|v| + |mu|``, which bounds the
        rounding error of ``z``."""
        with np.errstate(over="ignore", invalid="ignore"):
            z0, z1 = (v @ r - (r * self._mean).sum() for r in self._plane)
            return (np.arctan2(z1, z0), np.hypot(z0, z1),
                    np.sqrt(v_sq) + math.sqrt((self._mean ** 2).sum()))

    def _nearest(self, q: np.ndarray, k: int):
        """Yield ``(rows, idx)``: the k nearest training rows of standardized
        query rows ``q[rows]``, as ascending row indices."""
        m, n = q.shape[0], self._x.shape[0]
        theta, rho, radius = self._project(q, _squared_norms(q))
        perm = np.argsort(theta, kind="stable")
        theta, rho, radius = theta[perm], rho[perm], radius[perm]
        buf = np.empty(max(_CHUNK_BYTES // 4, n), dtype=np.float32)
        thr, lo, hi = self._thresholds(q, k, perm, theta, rho, radius, buf)
        keep = np.empty(buf.size, dtype=bool)
        i = 0
        while i < m:
            j = _chunk_end(lo, hi, i, n)
            chunk = q[perm[i:j]]
            f, a = self._products(_augmented(chunk)[0], int(lo[i:j].min()), int(hi[i:j].max()), buf)
            kept = keep[:f.size].reshape(f.shape)
            np.greater(f, thr[i:j, None], out=kept)
            np.logical_not(kept, out=kept)
            row, col = np.divmod(np.flatnonzero(kept), f.shape[1])
            col += a
            col[col >= n] -= n
            yield perm[i:j], self._refine(chunk, k, row, col)
            i = j

    def _thresholds(self, q, k, perm, theta, rho, radius, buf):
        """Steps 1 and 2 for the query rows ``q[perm]``, of angles ``theta``,
        and k neighbours: the filter threshold ``tau + 2E``, rounded up to
        float32, and the window ``lo:hi``."""
        m, p = q.shape
        n = self._x.shape[0]
        w = min(n, max(8 * k, n // 24))
        start = np.searchsorted(self._theta, theta) - w // 2
        stop = start + w
        thr = np.empty(m, dtype=np.float32)
        lo, hi = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp)
        i = 0
        while i < m:
            j = _chunk_end(start, stop, i, n)
            qa, q_sq = _augmented(q[perm[i:j]])
            f = self._products(qa, int(start[i]), int(stop[j - 1]), buf)[0]
            tau = _kth_bound(f, k)
            with np.errstate(over="ignore", invalid="ignore"):
                err = (2 * p + 10) * (2.0 ** -24 * (q_sq + self._x_sq_max) + 2.0 ** -126)
                t32 = np.minimum(tau + 2.0 * err, _F32_MAX).astype(np.float32)
                thr[i:j] = np.nextafter(t32, np.float32(np.inf))
            lo[i:j], hi[i:j] = self._window(theta[i:j], rho[i:j], radius[i:j], tau + err)
            i = j
        return thr, lo, hi

    def _window(self, theta, rho, radius, bound):
        """Step 2 for queries of angles ``theta``, radii ``rho``, norm bounds
        ``radius`` and distance bounds ``U``: their columns ``lo:hi`` in
        unrolled angle order, ``0:n`` where the window is every column."""
        p, n = self._xa.shape[0] - 2, self._xa.shape[1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            eps = (p + 2) * 2.0 ** -52 * self._gain * (radius + self._radius_max)
            s = (self._gain * np.sqrt(bound) + eps) / rho * (1.0 + _MARGIN)
            narrow = (s < 1.0) & np.isfinite(theta)
            h = np.arcsin(np.where(narrow, s, 0.0)) + _MARGIN
        left, right = theta - h, theta + h
        below, above = left < -math.pi, right > math.pi
        lo = (np.searchsorted(self._theta, np.where(below, left + 2 * math.pi, left))
              - n * below)
        hi = (np.searchsorted(self._theta, np.where(above, right - 2 * math.pi, right), "right")
              + n * above)
        lo[~narrow], hi[~narrow] = 0, n
        return lo, hi

    def _products(self, qa: np.ndarray, a: int, e: int, buf: np.ndarray):
        """Float32 ``f`` of the rows ``qa`` against the columns at unrolled
        angle positions ``a:e`` (every column if that is n or more), in
        ``buf``, and the position of its first column."""
        n = self._x.shape[0]
        if e - a >= n:
            a, e = 0, n
        width = e - a
        a %= n
        f = buf[:qa.shape[0] * width].reshape(qa.shape[0], width)
        first = min(width, n - a)
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(qa, self._xa[:, a:a + first], out=f[:, :first])
            if first < width:
                np.matmul(qa, self._xa[:, :width - first], out=f[:, first:])
        return f, a

    def _refine(self, chunk: np.ndarray, k: int, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """The k nearest of each query row's kept columns, at angle positions
        ``col``, by (float64 distance, row index), as ascending row indices;
        ``row`` is sorted."""
        b = chunk.shape[0]
        counts = np.bincount(row, minlength=b)
        if counts.min() < k:
            raise AssertionError("the filter kept fewer than k columns of a query row")
        index = self._order[col]
        idx = np.empty((b, k), dtype=np.intp)
        exact = counts == k  # the kept columns are the neighbours
        sel = exact[row]
        idx[exact] = index[sel].reshape(-1, k)
        if not exact.all():
            row, index = row[~sel], index[~sel]
            d2 = np.empty(row.size)
            # two gathers of an eighth of the budget: the filter's buffers
            # are still held
            step = max(1, _CHUNK_BYTES // (64 * chunk.shape[1]))
            for s in range(0, row.size, step):
                diff = self._x[index[s:s + step]] - chunk[row[s:s + step]]
                d2[s:s + step] = np.square(diff, out=diff).sum(axis=1)
            order = np.lexsort((index, d2, row))
            counts = counts[~exact]
            start = np.cumsum(counts) - counts
            idx[~exact] = index[order[start[:, None] + np.arange(k)]]
        return np.sort(idx, axis=1)


def _chunk_end(lo: np.ndarray, hi: np.ndarray, i: int, n: int) -> int:
    """The end of the chunk of query rows that starts at row ``i``, whose
    columns are the hull of the rows' ranges ``lo:hi``: the one of at most
    ``_CHUNK_ROWS`` rows, and ``_CHUNK_BYTES`` of float32 values unless it
    is one row, with the least cost per row, ``_CHUNK_COST / rows + width``."""
    width = np.minimum(np.maximum.accumulate(hi[i:i + _CHUNK_ROWS])
                       - np.minimum.accumulate(lo[i:i + _CHUNK_ROWS]), n)
    rows = np.arange(1, width.size + 1)
    cost = _CHUNK_COST / rows + width
    cost[1:][rows[1:] * width[1:] * 4 > _CHUNK_BYTES] = np.inf
    return i + 1 + int(np.argmin(cost))


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """``(v ** 2).sum(axis=1)``, in pieces of rows."""
    out = np.empty(v.shape[0])
    step = max(1, _CHUNK_BYTES // (8 * max(1, v.shape[1])))
    for s in range(0, v.shape[0], step):
        out[s:s + step] = (v[s:s + step] ** 2).sum(axis=1)
    return out


def _augmented(chunk: np.ndarray):
    """Float32 query rows ``[-2q, |q|², 1]`` and the float64 ``|q|²``."""
    b, p = chunk.shape
    q_sq = (chunk ** 2).sum(axis=1)
    qa = np.empty((b, p + 2), dtype=np.float32)
    # a query past float32 range overflows to +inf or NaN: kept
    with np.errstate(over="ignore", invalid="ignore"):
        qa[:, :p] = chunk
        qa[:, :p] *= -2.0
        qa[:, p] = q_sq
    qa[:, p + 1] = 1.0
    return qa, q_sq


def _kth_bound(f: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``tau``: the k-th smallest of its minima over the residue
    classes of its columns modulo ``c = max(128, 4k)``."""
    b, width = f.shape
    c = min(width, max(128, 4 * k))
    full = width - width % c
    mins = f[:, :full].reshape(b, -1, c).min(axis=1)
    np.minimum(mins[:, : width - full], f[:, full:], out=mins[:, : width - full])
    return np.partition(mins, k - 1, axis=1)[:, k - 1]


def _principal_plane(x: np.ndarray, xt: np.ndarray):
    """``P``: the top two eigenvectors of the centred Gram matrix of the
    rows ``x`` as rows, from its float32 transpose ``xt`` by orthogonal
    iteration (zero where that fails); the column mean ``mu``; and ``sigma``,
    the square root of the largest eigenvalue of ``P Pᵀ``."""
    n, p = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
    plane = np.zeros((2, p))
    if p < 2:
        plane[0, :p] = 1.0
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            gram = xt @ xt.T - (n * np.outer(mean, mean)).astype(np.float32)
            v = gram[:, np.argsort(-(gram ** 2).sum(axis=0), kind="stable")[:2]]
            for _ in range(3):  # gram**8, scaled
                gram = gram @ gram
                gram /= np.abs(gram).max()
            for _ in range(4):
                v = gram @ v
                v[:, 0] /= np.sqrt((v[:, 0] ** 2).sum())
                v[:, 1] -= (v[:, 0] * v[:, 1]).sum() * v[:, 0]
                v[:, 1] /= np.sqrt((v[:, 1] ** 2).sum())
        if np.isfinite(v).all():
            plane[:] = v.T
    a, b, c = (plane[0] ** 2).sum(), (plane[0] * plane[1]).sum(), (plane[1] ** 2).sum()
    return plane, mean, math.sqrt((a + c) / 2 + math.hypot((a - c) / 2, b))
