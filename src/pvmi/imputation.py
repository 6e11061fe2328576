"""Nearest-neighbour estimate of the power distribution given irradiance.

Missing power values are reconstructed from the irradiance channel, which is
always observed. Around a query irradiance the k observed pairs with the
closest irradiance are collected; the empirical distribution that puts mass
1/k on each neighbour's power is the estimate of the conditional law of
power given irradiance. Drawing from it gives a stochastic imputation,
averaging it gives the usual single (point) imputation.

A completion takes two steps: :func:`gap_neighbors` finds the k neighbours
of every missing hour, and :func:`fill_gaps` writes their mean or one draw
among them. Repeated completions of one series reuse the first step;
:func:`complete_series` does both.

The neighbourhood size k can be fixed or chosen automatically by
leave-one-out mean squared error of the neighbourhood mean over a small
geometric grid; :func:`select_k` stably sorts its pairs by irradiance first.

The pairs are sorted by irradiance, so the k nearest pairs of a query are
found without sorting all n of them: a binary search places the query, the
k-th smallest distance ``dk`` comes from the 2k pairs around that place, and
two more bisections bound the pairs at distance ``dk`` on the query's left.
That is O(log n + k log k) per query in O(k) memory. Distance ties go to the
smaller index, as a stable sort of all distances would put them. So every
pair closer than ``dk`` is taken, and the rest are filled first from the
pairs at distance exactly ``dk`` on the left, starting from the run's left
end, then from those on the right. The k nearest pairs are therefore not
always one contiguous window: when the cut-off falls inside a run of equal
irradiances on the query's left, the run's leftmost members are taken, not
the ones next to the query. Irradiances must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError
from .series import HourlySeries

DEFAULT_K_GRID = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
_CHUNK = 256


@dataclass(frozen=True)
class ConditionalSampler:
    """Observed (irradiance, power) pairs sorted by irradiance, plus k.

    ``irradiance`` and ``power`` are aligned arrays in ascending irradiance
    order, the irradiance finite; neighbour indices returned by :func:`neighbors` refer to positions
    in these arrays.
    """

    irradiance: np.ndarray
    power: np.ndarray
    k: int

    def __post_init__(self) -> None:
        irr = np.asarray(self.irradiance, dtype=np.float64).copy()
        pw = np.asarray(self.power, dtype=np.float64).copy()
        if irr.shape != pw.shape or irr.ndim != 1:
            raise ValueError("irradiance and power must be aligned 1-D arrays")
        _require_finite(irr, "pair irradiance")
        if np.any(np.diff(irr) < 0):
            raise ValueError("pairs must be sorted by irradiance")
        if not 1 <= self.k <= irr.size:
            raise ValueError(f"k must lie in [1, {irr.size}], got {self.k}")
        irr.setflags(write=False)
        pw.setflags(write=False)
        object.__setattr__(self, "irradiance", irr)
        object.__setattr__(self, "power", pw)

    @property
    def n_pairs(self) -> int:
        return int(self.irradiance.size)


def fit_sampler(train: HourlySeries, k: int | None = None) -> ConditionalSampler:
    """Build a sampler from the observed hours of ``train``.

    Parameters
    ----------
    train : HourlySeries
        Series whose mask==0 hours supply the (irradiance, power) pairs.
    k : int or None
        Neighbourhood size. None selects k by leave-one-out MSE over
        ``DEFAULT_K_GRID`` (restricted to valid sizes); an explicit k larger
        than the number n of pairs is clamped to n.
    """
    obs = ~train.mask
    irr = train.irradiance[obs]
    pw = train.power[obs]
    n = irr.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 observed pairs, got {n}")
    order = np.argsort(irr, kind="stable")
    irr, pw = irr[order], pw[order]
    if k is None:
        if n < 3:
            k = 1
        else:
            grid = [g for g in DEFAULT_K_GRID if g <= n - 1]
            k = select_k(irr, pw, grid)
    else:
        k = int(min(k, n))
        if k < 1:
            raise ValueError("k must be a positive count")
    return ConditionalSampler(irr, pw, k)


def neighbors(sampler: ConditionalSampler, queries) -> np.ndarray:
    """(m, k) indices of the k pairs nearest to each of m irradiance queries.

    Row ``j`` holds the k pairs with smallest ``|irradiance_i - queries[j]|``,
    distance ties broken in favour of the smaller index, in ascending index
    order.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 1:
        raise ValueError("queries must be a 1-D array of irradiances")
    _require_finite(queries, "query irradiance")
    out = np.empty((queries.size, sampler.k), dtype=np.int64)
    for lo, hi, order in _nearest_pairs(sampler.irradiance, queries, sampler.k):
        out[lo:hi] = np.sort(order, axis=1)
    return out


def sample_power(sampler: ConditionalSampler, irradiance: float, rng: np.random.Generator) -> float:
    """One draw from the estimated conditional distribution: each of the k
    neighbours' powers has probability 1/k."""
    return float(sampler.power[neighbors(sampler, [irradiance])[0, rng.integers(0, sampler.k)]])


def select_k(irradiance: np.ndarray, power: np.ndarray, grid) -> int:
    """Pick k from ``grid`` by leave-one-out MSE of the neighbourhood mean.

    Each pair is predicted by the mean power of its k nearest irradiance
    neighbours among the remaining pairs; the grid value with the smallest
    mean squared error wins, earlier grid entries winning ties. The pairs
    are stably sorted by irradiance first, so distance ties between
    neighbours go to the pair earlier in irradiance order (caller order for
    sorted pairs).
    """
    irr = np.asarray(irradiance, dtype=float)
    pw = np.asarray(power, dtype=float)
    _require_finite(irr, "pair irradiance")
    order = np.argsort(irr, kind="stable")
    irr, pw = irr[order], pw[order]
    n = irr.size
    grid = [int(g) for g in grid]
    if n < 3:
        raise ValueError("need at least 3 pairs for leave-one-out selection")
    if not grid:
        raise ValueError("candidate grid must not be empty")
    if any(g < 1 or g > n - 1 for g in grid):
        raise ValueError(f"grid values must lie in [1, {n - 1}]")

    sse = {g: 0.0 for g in grid}
    for lo, hi, order in _nearest_pairs(irr, irr, max(grid), hold_out=True):
        csum = np.cumsum(pw[order], axis=1)
        for g in grid:
            pred = csum[:, g - 1] / g
            sse[g] += float(np.sum((pred - pw[lo:hi]) ** 2))

    best = grid[0]
    for g in grid[1:]:
        if sse[g] < sse[best]:
            best = g
    return best


def gap_neighbors(series: HourlySeries, sampler: ConditionalSampler):
    """``(missing, nbrs)``: the indices of the missing hours of ``series`` and
    the ``(m, k)`` :func:`neighbors` of their irradiances, everything a
    completion of ``series`` needs from the sampler's index."""
    missing = np.flatnonzero(series.mask)
    return missing, neighbors(sampler, series.irradiance[missing])


def fill_gaps(
    series: HourlySeries,
    sampler: ConditionalSampler,
    gaps,
    mode: str,
    rng: np.random.Generator | None = None,
) -> HourlySeries:
    """Fill the missing hours of ``series`` from their neighbours ``gaps``, the
    pair :func:`gap_neighbors` returns.

    ``mode="single"`` writes the neighbourhood mean, ``mode="stochastic"``
    writes an independent draw per missing hour (``rng`` required), one
    ``rng.integers(0, k, size=m)`` call for the m missing hours. The result
    has no missing values; observed hours are untouched.
    """
    if mode not in ("single", "stochastic"):
        raise ValueError(f"mode must be 'single' or 'stochastic', got {mode!r}")
    missing, nbrs = gaps
    power = series.power.copy()
    if missing.size:
        if mode == "single":
            power[missing] = sampler.power[nbrs].mean(axis=1)
        else:
            if rng is None:
                raise ValueError("stochastic completion requires an rng")
            cols = rng.integers(0, sampler.k, size=missing.size)
            power[missing] = sampler.power[nbrs[np.arange(missing.size), cols]]
    return HourlySeries(
        start=series.start,
        power=power,
        irradiance=series.irradiance,
        mask=np.zeros(len(series), dtype=bool),
    )


def complete_series(
    series: HourlySeries,
    sampler: ConditionalSampler,
    mode: str,
    rng: np.random.Generator | None = None,
) -> HourlySeries:
    """Fill every missing hour of ``series`` using the sampler: the
    :func:`fill_gaps` of its :func:`gap_neighbors`."""
    return fill_gaps(series, sampler, gap_neighbors(series, sampler), mode, rng)


def _require_finite(irradiance: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(irradiance)):
        raise DomainError(f"{what} must be finite")


def _nearest_pairs(irradiance: np.ndarray, queries: np.ndarray, kmax: int,
                   hold_out: bool = False):
    """Yield ``(lo, hi, order)`` per chunk of queries: ``order[j]`` lists the
    ``kmax`` pairs nearest to ``queries[lo + j]``, nearest first, distance
    ties to the smaller index. ``irradiance`` must be sorted. ``hold_out``
    excludes pair ``lo + j`` from query ``lo + j``'s neighbours (queries are
    the pairs): its ``kmax + 1`` nearest are found and the query's own index
    is dropped, or the last of them when the own index is not among them."""
    n = irradiance.size
    take = kmax + int(hold_out)
    width = min(n, 2 * take)
    for lo in range(0, queries.size, _CHUNK):
        hi = min(lo + _CHUNK, queries.size)
        q = queries[lo:hi]
        # the 2*take pairs around the query hold its take nearest
        start = np.minimum(np.maximum(np.searchsorted(irradiance, q) - take, 0), n - width)
        dist = np.abs(irradiance[start[:, None] + np.arange(width)] - q[:, None])
        near = np.argsort(dist, axis=1, kind="stable")
        dk = dist[np.arange(hi - lo), near[:, take - 1]]
        n_strict = np.sum(dist < dk[:, None], axis=1)
        # pairs at distance exactly dk: [left, inner) left of the query,
        # then from inner + n_strict on its right
        left = _first_within(irradiance, q, dk)
        inner = _first_within(irradiance, q, np.nextafter(dk, -np.inf))
        t = np.arange(take) - n_strict[:, None]
        n_left = (inner - left)[:, None]
        order = np.where(
            t < 0,
            start[:, None] + near[:, :take],
            np.where(t < n_left, left[:, None] + t, (inner + n_strict)[:, None] + t - n_left),
        )
        if hold_out:
            keep = order != np.arange(lo, hi)[:, None]
            keep[keep.all(axis=1), -1] = False
            order = order[keep].reshape(hi - lo, kmax)
        yield lo, hi, order


def _first_within(irradiance: np.ndarray, q: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per query, the first index i with ``q - irradiance[i] <= bound`` in
    floating point. The difference falls as i grows. Every pair below the
    float under ``q - nextafter(bound)`` fails the test and every pair from
    the float over ``q - bound`` on passes it, so a bisection is left only
    for the few pairs in between."""
    lo = np.searchsorted(irradiance, np.nextafter(q - np.nextafter(bound, np.inf), -np.inf), "right")
    hi = np.searchsorted(irradiance, np.nextafter(q - bound, np.inf), "left")
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        ok = (q - irradiance[np.minimum(mid, irradiance.size - 1)] <= bound) | (lo == hi)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    return lo
