"""Nearest-neighbour estimate of the power distribution given irradiance.

Missing power values are reconstructed from the irradiance channel, which is
always observed. Around a query irradiance the k observed pairs with the
closest irradiance are collected; the empirical distribution that puts mass
1/k on each neighbour's power is the estimate of the conditional law of
power given irradiance. Drawing from it gives a stochastic imputation,
averaging it gives the usual single (point) imputation.

A completion takes two steps: :func:`gap_neighbors` finds the k neighbours
of every missing hour, and :func:`fill_gaps` writes their mean, or one draw
among them when given a generator. Repeated completions of one series reuse
the first step; :func:`complete_series` does both. :func:`fill_gaps` is the
one draw from the estimate: m draws at one irradiance are the m values
``power[nbrs[rng.integers(0, k, size=m)]]`` of its neighbour row ``nbrs``.

The neighbourhood size k can be fixed or chosen automatically by
leave-one-out mean squared error of the neighbourhood mean over a small
geometric grid, see :func:`select_k`.

The pairs are sorted by irradiance, and the k nearest pairs of a query are
always a run of k consecutive pairs next to the query's insertion point p
(the first pair whose irradiance is not below the query). The method does not
say which of several equally distant pairs takes the last slot; the rule here
ranks pairs by distance to the query, then pairs left of p before pairs right
of p, then pairs nearer p first. The first k pairs in that order form one run,
and a bisection over its k + 1 possible starts finds it: the run moves right
while the pair after it is strictly closer than its first pair. That is
O(log n + log k) per query, plus the k indices it returns. Irradiances and
pair powers must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, check
from .series import HourlySeries

DEFAULT_K_GRID = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)


@dataclass(frozen=True, eq=False)
class ConditionalSampler:
    """Observed (irradiance, power) pairs sorted by irradiance, plus k.

    ``irradiance`` and ``power`` are aligned arrays in ascending irradiance
    order, both finite; neighbour indices returned by :func:`neighbors` refer
    to positions in these arrays.
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
        _require_finite(pw, "pair power")
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

    The pairs are stably sorted by irradiance, so pairs of equal irradiance
    keep their time order, and a query's k nearest pairs are one run of that
    order (see the module docstring). A pair outside its own (k + 1)-run
    follows k + 1 pairs of equal irradiance, and its k-run is their first k.

    Parameters
    ----------
    train : HourlySeries
        Series whose mask==0 hours supply the (irradiance, power) pairs.
    k : int or None
        Neighbourhood size. None selects k by leave-one-out MSE over
        ``DEFAULT_K_GRID`` (restricted to valid sizes); an explicit k must
        be an integer >= 1 (a bool or a float is rejected, not truncated),
        and one larger than the number n of pairs is clamped to n.
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
        k = select_k(irr, pw, [g for g in DEFAULT_K_GRID if g <= n - 1])
    else:
        k = min(check("k", k, int, 1), n)
    return ConditionalSampler(irr, pw, k)


def neighbors(sampler: ConditionalSampler, queries) -> np.ndarray:
    """(m, k) indices of the k pairs nearest to each of m irradiance queries.

    Row ``j`` is the run of k consecutive pairs nearest to ``queries[j]``,
    distance ties broken by the module's run rule, in ascending index order.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 1:
        raise ValueError("queries must be a 1-D array of irradiances")
    _require_finite(queries, "query irradiance")
    return _run_starts(sampler.irradiance, queries, sampler.k)[:, None] + np.arange(sampler.k)


def select_k(irradiance: np.ndarray, power: np.ndarray, grid) -> int:
    """Pick k from ``grid`` by leave-one-out MSE of the neighbourhood mean.

    Each pair is predicted by the mean power of its k nearest irradiance
    neighbours among the remaining pairs; the grid value with the smallest
    mean squared error wins, earlier grid entries winning ties; each grid
    value must be an integer in [1, n - 1], n the number of pairs. The pairs
    are stably sorted by irradiance first. The k nearest other pairs of pair
    i are its (k + 1)-run without i when i lies in that run, and otherwise
    that run's first k, since k + 1 pairs of i's irradiance and lower
    position fill it. One run search per k and one cumulative sum of the
    sorted powers give every run's sum.
    """
    irr = np.asarray(irradiance, dtype=float)
    pw = np.asarray(power, dtype=float)
    if irr.shape != pw.shape or irr.ndim != 1:
        raise ValueError("irradiance and power must be aligned 1-D arrays")
    _require_finite(irr, "pair irradiance")
    _require_finite(pw, "pair power")
    order = np.argsort(irr, kind="stable")
    irr, pw = irr[order], pw[order]
    n = irr.size
    grid = [check("grid value", g, int) for g in grid]
    if n < 2:
        raise ValueError("need at least 2 pairs for leave-one-out selection")
    if not grid:
        raise ValueError("candidate grid must not be empty")
    if any(g < 1 or g > n - 1 for g in grid):
        raise ValueError(f"grid values must lie in [1, {n - 1}]")

    csum = np.concatenate(([0.0], np.cumsum(pw)))
    own = np.arange(n)
    sse = {}
    for g in grid:
        wide = _run_starts(irr, irr, g + 1)
        total = np.where((wide <= own) & (own <= wide + g),
                         csum[wide + g + 1] - csum[wide] - pw,
                         csum[wide + g] - csum[wide])
        sse[g] = float(np.sum((total / g - pw) ** 2))

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
    rng: np.random.Generator | None = None,
) -> HourlySeries:
    """Fill the missing hours of ``series`` from their neighbours ``gaps``, the
    pair :func:`gap_neighbors` returns.

    With no ``rng`` each missing hour gets its neighbourhood mean; with one
    it gets an independent draw among its neighbours, one
    ``rng.integers(0, k, size=m)`` call for the m missing hours. The result
    has no missing values; observed hours are untouched.
    """
    missing, nbrs = gaps
    power = series.power.copy()
    if missing.size:
        if rng is None:
            power[missing] = sampler.power[nbrs].mean(axis=1)
        else:
            cols = rng.integers(0, sampler.k, size=missing.size)
            power[missing] = sampler.power[nbrs[np.arange(missing.size), cols]]
    return HourlySeries(
        start=series.start,
        power=power,
        irradiance=series.irradiance,
    )


def complete_series(
    series: HourlySeries,
    sampler: ConditionalSampler,
    rng: np.random.Generator | None = None,
) -> HourlySeries:
    """Fill every missing hour of ``series`` using the sampler: the
    :func:`fill_gaps` of its :func:`gap_neighbors`."""
    return fill_gaps(series, sampler, gap_neighbors(series, sampler), rng)


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} must be finite")


def _run_starts(irradiance: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """The first index of each query's run of k nearest pairs in the sorted
    ``irradiance``.

    The run starts in ``[p - k, p]`` (clipped at 0) for insertion point p.
    Pair s is left of p and pair s + k right of it at every start that can
    still move, so the run moves right exactly while pair s + k is strictly
    closer; past the last pair that distance is +inf. The predicate is true
    then false over the k + 1 candidates, and a bisection of uniform width
    finds where it turns.
    """
    after = np.append(irradiance[k:], np.inf)  # after[s] is pair s + k
    start = np.maximum(np.searchsorted(irradiance, queries) - k, 0)
    width = k + 1
    while width > 1:
        half = width // 2
        s = start + (half - 1)
        start += (after.take(s, mode="clip") - queries < queries - irradiance[s]) * half
        width -= half
    return start
