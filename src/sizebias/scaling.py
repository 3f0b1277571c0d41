"""Scaling-law fits and size-normalized scoring.

Group h-indices grow with unit size roughly as a power law, so rankings
built on raw h mostly reward size.  This module fits that law on log-log
axes, builds a size-dependent benchmark curve from the null model (exactly,
or from Monte Carlo replicates), and scores every unit against the
benchmark instead of against other units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .model import Dataset
from .nullmodel import ReshuffleResult, null_h_tails, pool

# scipy.special is imported inside _line_fit, the one function that
# uses it, so that commands which never fit do not pay for loading it.


class FitError(ValueError):
    """Raised when a power-law fit is impossible on the given points."""


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line through (log10 N, log10 h)."""

    beta: float
    log10_prefactor: float
    beta_stderr: float
    p_value: float
    r_squared: float
    n_points: int

    def predict_h(self, n: float | np.ndarray) -> float | np.ndarray:
        """Fitted curve evaluated at size n."""
        return 10.0**self.log10_prefactor * np.asarray(n, dtype=float) ** self.beta


@dataclass(frozen=True)
class Benchmark:
    """Null-model expectation of h per unit plus the pooled fitted curve."""

    unit_ids: tuple[str, ...]
    productivities: np.ndarray
    null_mean_h: np.ndarray
    null_sd_h: np.ndarray
    fit: PowerLawFit
    n_excluded_zero_h: int


def fit_power_law(sizes: ArrayLike, h: ArrayLike) -> PowerLawFit:
    """Ordinary least squares of log10 h on log10 N over the points
    (sizes[i], h[i]).

    Points must have N >= 1 and h > 0; zero-h points are the caller's job
    to exclude (and count).  Needs at least 3 points and 2 distinct sizes.
    """
    n_arr = np.asarray(sizes, dtype=float)
    h_arr = np.asarray(h, dtype=float)
    if n_arr.ndim != 1 or n_arr.shape != h_arr.shape:
        raise FitError(f"sizes and h must be 1-D of equal length, got shapes {n_arr.shape} and {h_arr.shape}")
    n_pts = n_arr.size
    if n_pts < 3:
        raise FitError(f"need at least 3 points, got {n_pts}")
    bad = ~((n_arr >= 1) & (h_arr > 0))
    if bad.any():
        first = n_arr[np.argmax(bad)]
        if not first >= 1:
            raise FitError(f"sizes must be >= 1, got {float(first)}")
        raise FitError("h = 0 points cannot be fitted on a log axis; exclude them upstream")
    x = np.log10(n_arr)
    y = np.log10(h_arr)
    if np.all(x == x[0]):
        raise FitError("all sizes are equal; the slope is undetermined")

    return _line_fit(x, y, np.ones_like(x), n_pts - 2)


def _line_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray, dof: int | None) -> PowerLawFit:
    """Weighted least squares of y = log10 h on x = log10 N; one size only
    gives the best constant.  `dof` None marks an exact distribution, whose
    slope has no sampling error.  np.sum of products adds in a fixed order,
    where np.dot's BLAS sums change in the last bits with its thread count."""
    x_mean = np.sum(w * x) / np.sum(w)
    y_mean = np.sum(w * y) / np.sum(w)
    dx, dy = x - x_mean, y - y_mean
    sxx = float(np.sum(w * dx * dx))
    sxy = float(np.sum(w * dx * dy))
    syy = float(np.sum(w * dy * dy))
    slope = sxy / sxx if x.min() < x.max() else 0.0
    sse = max(syy - slope * sxy, 0.0)
    stderr = 0.0 if dof is None else math.sqrt(sse / dof / sxx)
    if stderr == 0.0:
        p_value = 1.0 if slope == 0.0 else 0.0
    else:
        from scipy import special

        p_value = 2.0 * float(special.stdtr(dof, -abs(slope / stderr)))
    return PowerLawFit(
        beta=slope,
        log10_prefactor=float(y_mean - slope * x_mean),
        beta_stderr=stderr,
        p_value=p_value,
        r_squared=1.0 - sse / syy if syy > 0 else 1.0,
        n_points=int(x.size),
    )


def slope_significance(fit: PowerLawFit, alpha: float = 0.01) -> bool:
    """True iff the slope differs from zero at the given level."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must be in (0, 1), got {alpha}")
    return fit.p_value < alpha


def _flat_fit(log10_h_values: np.ndarray) -> PowerLawFit:
    # All valid points share one size: the curve degenerates to the best
    # constant, which still benchmarks every unit identically.
    return PowerLawFit(
        beta=0.0,
        log10_prefactor=float(np.mean(log10_h_values)),
        beta_stderr=0.0,
        p_value=1.0,
        r_squared=0.0,
        n_points=int(log10_h_values.size),
    )


def build_benchmark(result: ReshuffleResult) -> Benchmark:
    """Per-unit null mean/sd plus a power-law fit through every replicate
    point, all replicates pooled together with equal weight."""
    if result.replicates < 2:
        raise ValueError("need at least 2 replicates to estimate a spread")

    sizes = np.broadcast_to(result.productivities, result.h_samples.shape)
    h_flat = result.h_samples.ravel()
    n_flat = sizes.ravel()
    keep = h_flat > 0
    n_excluded = int(np.size(h_flat) - np.count_nonzero(keep))
    kept_n = n_flat[keep]
    kept_h = h_flat[keep]
    if kept_h.size >= 3 and np.unique(kept_n).size >= 2:
        fit = fit_power_law(kept_n, kept_h)
    elif kept_h.size >= 1:
        fit = _flat_fit(np.log10(kept_h.astype(float)))
    else:
        raise FitError("every replicate point has h = 0; nothing to benchmark")

    return Benchmark(
        unit_ids=result.unit_ids,
        productivities=result.productivities,
        null_mean_h=result.null_mean_h,
        null_sd_h=result.null_sd_h,
        fit=fit,
        n_excluded_zero_h=n_excluded,
    )


def exact_benchmark(dataset: Dataset) -> Benchmark:
    """The limit of build_benchmark over infinitely many replicates.

    From the exact tails P(h >= k) of `nullmodel.null_h_tails`, once per
    size: E[h] = sum_k P(h >= k), E[h^2] = sum_k (2k - 1) P(h >= k), and a
    fit of (log10 N_i, log10 k), k >= 1, weighted by P(h_i = k), stderr 0.
    `n_points` counts the (unit, k) pairs of positive weight and
    `n_excluded_zero_h` the units whose null h can be 0, P(h >= 1) < 1."""
    prods = np.array([u.productivity for u in dataset.units], dtype=np.int64)
    sizes, inverse = np.unique(prods, return_inverse=True)
    tails = null_h_tails(pool(dataset), sizes.tolist())
    levels = [np.arange(1, t.size + 1) for t in tails]
    mean = np.array([t.sum() for t in tails])
    second = np.array([np.sum((2 * k - 1) * t) for k, t in zip(levels, tails)])
    pmf = [np.maximum(t - np.append(t[1:], 0.0), 0.0) for t in tails]  # P(h = k), k >= 1
    w = np.concatenate([pmf[d] for d in inverse])
    keep = w > 0
    x = np.log10(np.repeat(prods, [levels[d].size for d in inverse]))[keep]
    y = np.log10(np.concatenate([levels[d] for d in inverse]))[keep]
    if not x.size:
        raise FitError("every unit's null h is 0; nothing to benchmark")
    can_be_zero = np.array([t[:1].sum() < 1.0 for t in tails])
    return Benchmark(
        unit_ids=tuple(u.id for u in dataset.units),
        productivities=prods,
        null_mean_h=mean[inverse],
        null_sd_h=np.sqrt(np.maximum(second - mean**2, 0.0))[inverse],
        fit=_line_fit(x, y, w[keep], None),
        n_excluded_zero_h=int(np.count_nonzero(can_be_zero[inverse])),
    )


def normalized_scores(real_h: ArrayLike, benchmark: Benchmark) -> dict[str, np.ndarray]:
    """Every unit's real h against the benchmark, as float columns in
    benchmark.unit_ids order; real_h[i] is the real h of unit i.

    `h_hat` is the fitted curve at the unit's size, `ratio` is
    real_h / h_hat, `z` is (real_h - null_mean_h) / null_sd_h, NaN where the
    null spread is zero, and `log_residual` is log10(ratio), -inf for h = 0.
    A unit without publications has no size to benchmark against.
    """
    real = np.asarray(real_h)
    if real.shape != (len(benchmark.unit_ids),):
        raise ValueError(f"need one real h for each of the {len(benchmark.unit_ids)} benchmark units")
    empty = np.flatnonzero(benchmark.productivities == 0)
    if empty.size:
        names = ", ".join(repr(benchmark.unit_ids[i]) for i in empty)
        raise ValueError(f"units without publications cannot be scored against size: {names}")
    real = real.astype(float)
    sd = benchmark.null_sd_h
    h_hat = benchmark.fit.predict_h(benchmark.productivities)
    ratio = real / h_hat
    z = np.divide(real - benchmark.null_mean_h, sd, out=np.full(real.shape, np.nan), where=sd > 0)
    # math.log10 per value, not np.log10: numpy's SIMD log10 loop differs
    # from math.log10 in the last bit on some values, and the reports print
    # every bit.
    log_residual = np.array([math.log10(r) if r > 0 else -math.inf for r in ratio.tolist()])
    return {"h_hat": h_hat, "ratio": ratio, "z": z, "log_residual": log_residual}


RANKING_KEYS = ("ratio", "z", "log_residual")


def competition_ranks(values: ArrayLike) -> list[int]:
    """Rank 1 for the largest value; ties share a rank ("1224" style)."""
    _, inverse, counts = np.unique(-np.asarray(values, dtype=float), return_inverse=True, return_counts=True)
    # a tie group's rank is one more than the count of values sorted before it
    return (np.cumsum(counts) - counts + 1)[inverse].tolist()
