"""Citation-reshuffling null model.

All publications are pooled, randomly redistributed among the units while
keeping each unit's publication count fixed, and every unit's group
h-index is recomputed.  Repeating this yields the distribution of
h-indices a unit would get on size alone, which is what real rankings are
benchmarked against.

null_marginals gives that distribution exactly, through null_h_tails, from
the pool's K_k (Dataset.cited_at_least): its tails are exact to about 1e-12
absolute, and every cell outside its window is exactly 0.0 or 1.0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import Dataset, unit_h_tally

_MAX_SEED = 2**64 - 1
_DEFAULT_WORKER_CAP = 8
_WINDOW_POINTS_PER_PASS = 32768  # null_h_tails' cap: small temporaries reuse memory, not fault in new pages


@dataclass(frozen=True)
class ReshuffleResult:
    """Per-unit h-index samples across replicates of the null model.

    `h_samples` has shape (replicates, units); row r holds the h-indices
    of one complete redistribution of the conserved pool.
    """

    unit_ids: tuple[str, ...]
    h_samples: np.ndarray
    real_h: np.ndarray
    productivities: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.unit_ids)
        if self.h_samples.ndim != 2 or self.h_samples.shape[1] != m:
            raise ValueError("h_samples must be a (replicates, units) matrix")
        if self.real_h.shape != (m,) or self.productivities.shape != (m,):
            raise ValueError("per-unit vectors must match unit_ids")
        for arr in (self.h_samples, self.real_h, self.productivities):
            arr.setflags(write=False)

    @property
    def replicates(self) -> int:
        return int(self.h_samples.shape[0])

    @cached_property
    def _spearman_coefficients(self) -> np.ndarray | None:
        """Spearman's rho of each replicate row against the real h vector, the
        Pearson correlation of average ranks, once per result; None where one
        is undefined: a constant real vector (as under 2 units) or row.
        Centred ranks are half-integers, so np.sum adds their products exactly,
        where BLAS would make the sums depend on its thread count."""
        real, samples = self.real_h, self.h_samples
        if np.all(real == real[:1]) or np.any(np.all(samples == samples[:, :1], axis=1)):
            return None
        middle = (real.size + 1) / 2.0
        ranks = _row_average_ranks(np.vstack([real, samples])) - middle
        rx, ry = ranks[0], ranks[1:]
        rho = np.clip(np.sum(ry * rx, axis=1) / np.sqrt(np.sum(rx * rx) * np.sum(ry * ry, axis=1)), -1.0, 1.0)
        rho.setflags(write=False)
        return rho

    @property
    def mean_spearman_vs_real(self) -> float | None:
        """Mean over replicates of Spearman's rho against the real h vector;
        None where a coefficient is undefined."""
        rho = self._spearman_coefficients
        return None if rho is None else float(np.mean(rho))

    @property
    def mean_spearman_se(self) -> float | None:
        """The Monte Carlo standard error of that mean, the coefficients' standard
        deviation (ddof 1) over sqrt(R); None for R = 1 too."""
        rho = self._spearman_coefficients
        return None if rho is None or rho.size < 2 else float(rho.std(ddof=1) / np.sqrt(rho.size))


def replicate_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent RNG stream for one replicate.

    Counter-keyed on (master_seed, index), so any number of workers in any
    scheduling order reproduce the exact same streams.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def reshuffled_dataset(dataset: Dataset, rng: np.random.Generator) -> Dataset:
    """One draw of the null model: the pooled citations permuted, each unit
    keeping its size, so unit i's block of the result is its reshuffled
    output (cut them with np.split at np.cumsum(sizes)[:-1])."""
    return replace(dataset, citations=rng.permutation(dataset.citations))


def resolve_workers(workers: int | None) -> int:
    """`workers` itself, or by default the CPUs this process may run on, capped."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        return max(1, min(_DEFAULT_WORKER_CAP, cpus))
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def run_null_model(dataset: Dataset, seed: int, replicates: int, workers: int | None = None) -> ReshuffleResult:
    """Run the full reshuffling experiment: `replicates` redistributions,
    drawn from the master `seed`, an unsigned 64-bit integer.

    A replicate places the cited papers at distinct pool positions drawn
    uniformly, in random order, exactly where a uniform permutation of the
    pool sends them, and reads every unit's h from model.unit_h_tally (one
    tally per worker).  Replicate r uses the RNG stream keyed by (seed, r)
    and writes exactly one row of the sample matrix, so the result is
    identical for any worker count or scheduling order.
    """
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError("seed must fit in 64 unsigned bits")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    workers = resolve_workers(workers)
    cited, h_at = unit_h_tally(dataset)
    real_h = h_at(cited)
    samples = np.empty((replicates, dataset.sizes.size), dtype=np.int64)

    def one(replicate: int) -> None:
        rng = replicate_stream(seed, replicate)
        samples[replicate, :] = h_at(rng.choice(dataset.pool_size, cited.size, replace=False))

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        list(ex.map(one, range(replicates)))

    return ReshuffleResult(
        unit_ids=dataset.unit_ids,
        h_samples=samples,
        real_h=real_h,
        productivities=dataset.sizes,
    )


def null_h_tails(marked: np.ndarray, pool_size: int, sizes: Sequence[int]) -> np.ndarray:
    """Exact tails of the null h: tails[j, k - 1] = P(h >= k | N = sizes[j])
    for k = 1..H in a (len(sizes), H) float matrix, from the pool's K_k
    (`marked`, k = 1..H, as model.cited_at_least gives them, so H is the
    pool's h-index) and its size M.  A size outside 0..M raises ValueError.

    N of the M pooled papers have h >= k exactly when k of them are cited
    k times or more, so P(h >= k) = P(X >= k) with X ~ Hypergeom(M, K_k, N).
    Each pmf is built from log pmf ratios over mean +- (12 sd + 12), clipped
    to the support, and normalised by its own sum, so the tails are exact
    to about 1e-12 absolute.  Only the cells inside their window
    (lo < k <= hi) need one: the others are certain, exactly 1.0, or
    impossible, exactly 0.0, as is every k > N.  The cells are grouped by
    window width rounded up to a power of two, one cumsum per group, so a
    cell's value depends on its own window alone, not on the other sizes;
    a group's cells are taken _WINDOW_POINTS_PER_PASS window points at a time.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    bad = (sizes < 0) | (sizes > pool_size)
    if bad.any():
        raise ValueError(f"block size {sizes[bad][0]} is outside 0..{pool_size}, the pool size")
    marked, total = np.asarray(marked, dtype=float), float(pool_size)
    n, k = sizes[:, None].astype(float), np.arange(1, marked.size + 1)
    mean = n * marked / total
    sd = np.sqrt(mean * (1.0 - marked / total) * (total - n) / max(total - 1.0, 1.0))
    lo = np.maximum(np.maximum(0.0, n + marked - total), np.floor(mean - 12.0 * sd - 12.0))
    hi = np.minimum(np.minimum(n, marked), np.ceil(mean + 12.0 * sd + 12.0))
    tails = (lo >= k).astype(float)
    rows, cols = np.nonzero((lo < k) & (k <= hi))
    group = np.frexp(hi[rows, cols] - lo[rows, cols])[1]  # 2**group >= the window's hi - lo + 1 points
    for g in np.flatnonzero(np.bincount(group)):  # not np.unique, which imports numpy.ma
        cells, per_pass = np.flatnonzero(group == g), max(1, _WINDOW_POINTS_PER_PASS >> g)
        for part in range(0, cells.size, per_pass):
            r, c = rows[cells[part : part + per_pass]], cols[cells[part : part + per_pass]]
            n_g, K, top = n[r], marked[c, None], hi[r, c, None]
            x = lo[r, c, None] + np.arange(2**g)
            step = x < top
            ratio = np.log(np.where(step, (K - x) * (n_g - x), 1.0)) - np.log(  # log pmf(x + 1) - log pmf(x)
                np.where(step, (x + 1.0) * (total - K - n_g + x + 1.0), 1.0)
            )
            log_pmf = np.cumsum(ratio, axis=1) - ratio  # log pmf(x) - log pmf(lo)
            weight = np.where(x <= top, np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True)), 0.0)
            tails[r, c] = np.where(x >= k[c, None], weight, 0.0).sum(axis=1) / weight.sum(axis=1)
    return tails


@dataclass(frozen=True)
class NullMarginals:
    """The exact null distribution of every unit's h, one row per distinct
    size: tails[j, k - 1] = P(h >= k | N = sizes[j]), k = 1..H (see
    null_h_tails); units[j] units have size sizes[j], and unit i has size
    sizes[inverse[i]].  Its statistics are per unit, in unit order."""

    sizes: np.ndarray
    tails: np.ndarray
    inverse: np.ndarray
    units: np.ndarray

    @property
    def mean_h(self) -> np.ndarray:
        """E[h] = sum_k P(h >= k)."""
        return self.tails.sum(axis=1)[self.inverse]

    @property
    def sd_h(self) -> np.ndarray:
        """The standard deviation of h, from E[h^2] = sum_k (2k - 1) P(h >= k)."""
        k = np.arange(1, self.tails.shape[1] + 1)
        mean, second = self.tails.sum(axis=1), np.sum((2 * k - 1) * self.tails, axis=1)
        return np.sqrt(np.maximum(second - mean**2, 0.0))[self.inverse]

    def quantile_h(self, q: float) -> np.ndarray:
        """The smallest k with P(h <= k) >= q, 0 < q < 1: the count of the
        k >= 1 with P(h >= k) > 1 - q."""
        return (self.tails > 1.0 - q).sum(axis=1)[self.inverse]


def null_marginals(dataset: Dataset) -> NullMarginals:
    """The exact null distribution of every unit's h; h = 0 for certain
    where no paper is cited."""
    sizes, inverse, units = np.unique(dataset.sizes, return_inverse=True, return_counts=True)
    return NullMarginals(sizes, null_h_tails(dataset.cited_at_least, dataset.pool_size, sizes), inverse, units)


def _row_average_ranks(a: np.ndarray) -> np.ndarray:
    """Average ranks within each row of a nonempty integer matrix: 1 for
    the smallest value, and tied values share the mean of their ranks.

    Offsetting row r by r times the value range makes the rows disjoint
    and in row order, so one sort ranks them all: a tie group ending at
    sorted position c (1-based) with n members has average rank
    c - (n - 1) / 2, less the r * width positions of the rows before it.
    Every rank is a half-integer below 2**53, hence exact in float64.
    """
    rows, width = a.shape
    low = a.min()
    keys = (a - low) + np.arange(rows)[:, None] * (a.max() - low + 1)
    _, inverse, counts = np.unique(keys.ravel(), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse].reshape(rows, width)
    return ranks - (np.arange(rows) * width)[:, None]

