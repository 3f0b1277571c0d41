"""Citation-reshuffling null model.

All publications are pooled, randomly redistributed among the units while
keeping each unit's publication count fixed, and every unit's group
h-index is recomputed.  Repeating this yields the distribution of
h-indices a unit would get on size alone, which is what real rankings are
benchmarked against.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Dataset, Unit, _tally_keys, h_from_tally, h_index

_MAX_SEED = 2**64 - 1
_DEFAULT_WORKER_CAP = 8


@dataclass(frozen=True)
class ReshuffleConfig:
    """Replicate count and master seed for one null-model run."""

    master_seed: int
    replicates: int = 200

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _MAX_SEED:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


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

    @property
    def null_mean_h(self) -> np.ndarray:
        """Each unit's mean h over the replicates."""
        return self.h_samples.mean(axis=0)

    @property
    def null_sd_h(self) -> np.ndarray:
        """Each unit's sample standard deviation of h (ddof 1); 0 for one replicate."""
        if self.replicates < 2:
            return np.zeros(len(self.unit_ids))
        return self.h_samples.std(axis=0, ddof=1)


def replicate_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent RNG stream for one replicate.

    Counter-keyed on (master_seed, index), so any number of workers in any
    scheduling order reproduce the exact same streams.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def pool(dataset: Dataset) -> np.ndarray:
    """All citation counts of the dataset in one array, duplicates kept."""
    return np.concatenate([u.citations for u in dataset.units])


def reshuffle_blocks(
    pool_counts: np.ndarray, productivities: Sequence[int] | np.ndarray, rng: np.random.Generator
) -> list[np.ndarray]:
    """One redistribution: permute the pool, cut it into per-unit blocks.

    The blocks partition a full permutation of the pool, so the multiset
    union of the returned blocks always equals the input pool.
    """
    prods = np.asarray(productivities, dtype=np.int64)
    if prods.size and prods.min() < 0:
        raise ValueError("productivities must be nonnegative")
    if int(prods.sum()) != int(pool_counts.size):
        raise ValueError(
            f"productivities sum to {int(prods.sum())} but the pool holds {pool_counts.size} publications"
        )
    permuted = rng.permutation(pool_counts)
    return np.split(permuted, np.cumsum(prods)[:-1])


def reshuffled_dataset(dataset: Dataset, rng: np.random.Generator) -> Dataset:
    """A concrete dataset drawn from the null model (one redistribution)."""
    prods = np.array([u.productivity for u in dataset.units], dtype=np.int64)
    blocks = reshuffle_blocks(pool(dataset), prods, rng)
    units = tuple(Unit(id=u.id, name=u.name, citations=block) for u, block in zip(dataset.units, blocks))
    return Dataset(name=f"{dataset.name}-reshuffled", units=units)


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


def run_null_model(
    dataset: Dataset, config: ReshuffleConfig, workers: int | None = None
) -> ReshuffleResult:
    """Run the full reshuffling experiment.

    No block's h can exceed the pool's h, H, so counts are capped at H and
    tallied per unit and level in a (units, H + 1) matrix that gives every
    unit's h at once; each worker holds one (4000 x 132 is about 4 MB).
    An uncited paper raises no h, so a replicate places only the cited
    papers: it draws distinct positions for them in block order, uniformly
    and in random order, which is exactly where a uniform permutation of
    the pool sends them.  The uncited papers fill the other positions and
    are never tallied (no h reads the level-0 column), so a replicate costs
    the number of cited papers, not the pool size.
    Replicate r uses the RNG stream keyed by (master_seed, r) and writes
    exactly one row of the sample matrix, so the result is identical for
    any worker count or scheduling order.
    """
    workers = resolve_workers(workers)
    prods, cap, slots, levels = _tally_keys(dataset)
    units = prods.size
    cited = np.flatnonzero(levels)
    cited_levels = levels[cited]

    def h_of(keys: np.ndarray) -> np.ndarray:  # keys: a fresh array of the cited papers' slots
        keys += cited_levels
        return h_from_tally(np.bincount(keys, minlength=units * (cap + 1)).reshape(units, cap + 1))

    real_h = h_of(slots[cited])
    samples = np.empty((config.replicates, units), dtype=np.int64)

    def one(replicate: int) -> None:
        rng = replicate_stream(config.master_seed, replicate)
        samples[replicate, :] = h_of(slots[rng.choice(levels.size, cited.size, replace=False)])

    with ThreadPoolExecutor(max_workers=workers) as ex:
        list(ex.map(one, range(config.replicates)))

    return ReshuffleResult(
        unit_ids=tuple(u.id for u in dataset.units),
        h_samples=samples,
        real_h=real_h,
        productivities=prods,
    )


def null_h_tails(pool_counts: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """Exact P(h >= k), k = 1..min(N, H), for each block size N in `sizes`;
    H is the pool's h-index.

    N of the M pooled papers have h >= k exactly when k of them are cited
    k times or more, so P(h >= k) = P(X >= k) with X ~ Hypergeom(M, K_k, N),
    K_k counting the pooled papers cited k times or more.  Each pmf is built
    from log pmf ratios over mean +- (12 sd + 12), clipped to the support,
    and normalised by its own sum, so a certain event gets exactly 1.0.
    """
    cap = h_index(pool_counts)
    tally = np.bincount(np.minimum(pool_counts, cap).astype(np.int64), minlength=cap + 1)
    marked = np.cumsum(tally[::-1])[::-1][1:].astype(float)  # K_k, k = 1..H
    total = float(pool_counts.size)
    tails = []
    for size in sizes:
        n = float(size)
        k = np.arange(1, min(int(size), cap) + 1)
        K = marked[: k.size, None]
        mean = n * K / total
        sd = np.sqrt(mean * (1.0 - K / total) * (total - n) / max(total - 1.0, 1.0))
        lo = np.maximum(np.maximum(0.0, n + K - total), np.floor(mean - 12.0 * sd - 12.0))
        hi = np.minimum(np.minimum(n, K), np.ceil(mean + 12.0 * sd + 12.0))
        x = lo + np.arange(int((hi - lo).max(initial=0)) + 1)
        step = x < hi
        ratio = np.log(np.where(step, (K - x) * (n - x), 1.0)) - np.log(  # log pmf(x + 1) - log pmf(x)
            np.where(step, (x + 1.0) * (total - K - n + x + 1.0), 1.0)
        )
        log_pmf = np.cumsum(ratio, axis=1) - ratio  # log pmf(x) - log pmf(lo)
        weight = np.where(x <= hi, np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True)), 0.0)
        tails.append(np.where(x >= k[:, None], weight, 0.0).sum(axis=1) / weight.sum(axis=1))
    return tails


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


def mean_spearman_vs_real(result: ReshuffleResult) -> float:
    """Mean over replicates of the rank correlation with the real h vector.

    Each coefficient is Spearman's rho: the Pearson correlation of average
    ranks.  Raises ValueError where any coefficient is undefined: fewer
    than 2 units, or a constant real vector or replicate row.
    """
    real, samples = result.real_h, result.h_samples
    if real.size < 2:
        raise ValueError("need at least 2 units")
    if np.all(real == real[0]) or np.any(np.all(samples == samples[:, :1], axis=1)):
        raise ValueError("rank correlation is undefined for a constant input")
    middle = (real.size + 1) / 2.0
    ranks = _row_average_ranks(np.vstack([real, samples])) - middle
    rx, ry = ranks[0], ranks[1:]
    rho = (ry @ rx) / np.sqrt(np.dot(rx, rx) * np.sum(ry * ry, axis=1))
    return float(np.mean(np.clip(rho, -1.0, 1.0)))
