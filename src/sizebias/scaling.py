"""Scaling-law fits and size-normalized scoring.

Group h-indices grow with unit size roughly as a power law, so rankings
built on raw h mostly reward size.  This module fits that law on log-log
axes, builds a size-dependent benchmark curve from the null model (exactly,
or from Monte Carlo replicates), and scores every unit against the
benchmark instead of against other units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .model import Dataset
from .nullmodel import ReshuffleResult, null_marginals

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


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

    Points need N >= 1 and h > 0, both finite; zero-h points are the caller's
    to exclude (and count).  Needs at least 3 points and 2 distinct sizes.
    """
    n_arr = np.asarray(sizes, dtype=float)
    h_arr = np.asarray(h, dtype=float)
    if n_arr.ndim != 1 or n_arr.shape != h_arr.shape:
        raise FitError(f"sizes and h must be 1-D of equal length, got shapes {n_arr.shape} and {h_arr.shape}")
    n_pts = n_arr.size
    if n_pts < 3:
        raise FitError(f"need at least 3 points, got {n_pts}")
    bad = ~((n_arr >= 1) & (h_arr > 0) & np.isfinite(n_arr) & np.isfinite(h_arr))
    if bad.any():
        first = np.argmax(bad)
        if not n_arr[first] >= 1:
            raise FitError(f"sizes must be >= 1, got {float(n_arr[first])}")
        if not (np.isfinite(n_arr[first]) and np.isfinite(h_arr[first])):
            raise FitError(f"sizes and h must be finite, got N = {float(n_arr[first])}, h = {float(h_arr[first])}")
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
        p_value = _t_tail(slope / stderr, dof)
    return PowerLawFit(
        beta=slope,
        log10_prefactor=float(y_mean - slope * x_mean),
        beta_stderr=stderr,
        p_value=p_value,
        r_squared=1.0 - sse / syy if syy > 0 else 1.0,
        n_points=int(x.size),
    )


def _t_tail(t: float, dof: int) -> float:
    """Two-sided Student-t tail P(|T| >= |t|) on `dof` degrees of freedom.

    That is the regularised incomplete beta I_x(a, b), a = dof/2, b = 1/2,
    x = dof/(dof + t^2): its continued fraction (modified Lentz) where
    x < (a + 1)/(a + b + 2), else 1 - I_{1-x}(b, a).  A small tail is summed
    from small terms, never as 1 minus a sum, so it keeps its relative
    precision down to tails of about 1e-300."""
    u = t * t / dof
    if u == 0.0 or u == math.inf:
        return float(u == 0.0)
    a, b, x = dof / 2.0, 0.5, 1.0 / (1.0 + u)
    log_x, log_y = -math.log1p(u), math.log(u) - math.log1p(u)  # log x, log(1 - x)
    swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, log_x, log_y = b, a, u / (1.0 + u), log_y, log_x
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    frac = d
    for m in range(1, 1000):  # under 60 steps for every dof tried
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for num in (even, odd):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            frac *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    log_front = a * log_x + b * log_y + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    tail = math.exp(log_front) * frac / a
    return 1.0 - tail if swap else tail


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
        # one size, or too few points for a slope: x = 0 fixes the slope at 0,
        # so the curve is the best constant and benchmarks every unit alike
        y = np.log10(kept_h.astype(float))
        fit = _line_fit(np.zeros_like(y), y, np.ones_like(y), None)
    else:
        raise FitError("every replicate point has h = 0; nothing to benchmark")

    return Benchmark(
        unit_ids=result.unit_ids,
        productivities=result.productivities,
        null_mean_h=result.h_samples.mean(axis=0),
        null_sd_h=result.h_samples.std(axis=0, ddof=1),
        fit=fit,
        n_excluded_zero_h=n_excluded,
    )


def exact_benchmark(dataset: Dataset) -> Benchmark:
    """The limit of build_benchmark over infinitely many replicates.

    The null mean and sd are those of `nullmodel.null_marginals`, and the
    curve a fit of (log10 N, log10 k), k >= 1, weighted by P(h = k | N)
    times the number of units of size N, stderr 0.  `n_points` counts the
    (unit, k) pairs of positive weight and `n_excluded_zero_h` the units
    whose null h can be 0, P(h >= 1) < 1."""
    null = null_marginals(dataset)
    tails, units = null.tails, null.units
    k = np.arange(1, tails.shape[1] + 1)
    pmf = tails - np.pad(tails[:, 1:], ((0, 0), (0, 1)))  # P(h = k), k >= 1
    rows, cols = np.nonzero(pmf > 0)
    if not rows.size:
        raise FitError("every unit's null h is 0; nothing to benchmark")
    fit = _line_fit(np.log10(null.sizes[rows]), np.log10(k[cols]), pmf[rows, cols] * units[rows], None)
    return Benchmark(
        unit_ids=dataset.unit_ids,
        productivities=dataset.sizes,
        null_mean_h=null.mean_h,
        null_sd_h=null.sd_h,
        fit=replace(fit, n_points=int(units[rows].sum())),
        n_excluded_zero_h=int(units[tails[:, 0] < 1.0].sum()),
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


# log_residual ranks as ratio does, log10 being increasing, so it is no key
RANKING_KEYS = ("ratio", "z")


def competition_ranks(values: ArrayLike) -> list[int]:
    """Rank 1 for the largest value; ties share a rank ("1224" style)."""
    _, inverse, counts = np.unique(-np.asarray(values, dtype=float), return_inverse=True, return_counts=True)
    # a tie group's rank is one more than the count of values sorted before it
    return (np.cumsum(counts) - counts + 1)[inverse].tolist()
