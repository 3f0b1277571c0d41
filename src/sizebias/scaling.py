"""Scaling-law fits and size-normalized scoring.

Group h-indices grow with unit size roughly as a power law, so rankings
built on raw h mostly reward size.  This module fits that law on log-log
axes, turns null-model output into a size-dependent benchmark curve, and
scores every unit against the benchmark instead of against other units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import stats

from .nullmodel import ReshuffleResult


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

    def expected_h(self, n: float | np.ndarray) -> float | np.ndarray:
        return self.fit.predict_h(n)


@dataclass(frozen=True)
class NormalizedScore:
    """A unit's real h compared to its size benchmark.

    `z` is None when the null spread of the unit is zero (degenerate
    pools); the other two scores stay defined.
    """

    unit_id: str
    productivity: int
    real_h: int
    ratio: float
    z: float | None
    log_residual: float


def fit_power_law(points: Iterable[tuple[float, float]]) -> PowerLawFit:
    """Ordinary least squares of log10 h on log10 N.

    Points must have N >= 1 and h > 0; zero-h points are the caller's job
    to exclude (and count).  Needs at least 3 points and 2 distinct sizes.
    """
    pts = [(float(n), float(h)) for n, h in points]
    if len(pts) < 3:
        raise FitError(f"need at least 3 points, got {len(pts)}")
    for n, h in pts:
        if not n >= 1:
            raise FitError(f"sizes must be >= 1, got {n}")
        if not h > 0:
            raise FitError("h = 0 points cannot be fitted on a log axis; exclude them upstream")
    x = np.log10([n for n, _ in pts])
    y = np.log10([h for _, h in pts])
    if np.all(x == x[0]):
        raise FitError("all sizes are equal; the slope is undetermined")

    n_pts = len(pts)
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.dot(x - x_mean, x - x_mean))
    sxy = float(np.dot(x - x_mean, y - y_mean))
    syy = float(np.dot(y - y_mean, y - y_mean))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    sse = max(syy - slope * sxy, 0.0)
    r_squared = 1.0 - sse / syy if syy > 0 else 1.0
    stderr = math.sqrt(sse / (n_pts - 2) / sxx)
    if stderr == 0.0:
        p_value = 1.0 if slope == 0.0 else 0.0
    else:
        t = slope / stderr
        p_value = 2.0 * float(stats.t.sf(abs(t), n_pts - 2))
    return PowerLawFit(
        beta=slope,
        log10_prefactor=intercept,
        beta_stderr=stderr,
        p_value=p_value,
        r_squared=r_squared,
        n_points=n_pts,
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
    null_mean = result.h_samples.mean(axis=0)
    null_sd = result.h_samples.std(axis=0, ddof=1)

    sizes = np.broadcast_to(result.productivities, result.h_samples.shape)
    h_flat = result.h_samples.ravel()
    n_flat = sizes.ravel()
    keep = h_flat > 0
    n_excluded = int(np.size(h_flat) - np.count_nonzero(keep))
    kept_n = n_flat[keep]
    kept_h = h_flat[keep]
    if kept_h.size >= 3 and np.unique(kept_n).size >= 2:
        fit = fit_power_law(zip(kept_n.tolist(), kept_h.tolist()))
    elif kept_h.size >= 1:
        fit = _flat_fit(np.log10(kept_h.astype(float)))
    else:
        raise FitError("every replicate point has h = 0; nothing to benchmark")

    return Benchmark(
        unit_ids=result.unit_ids,
        productivities=result.productivities,
        null_mean_h=null_mean,
        null_sd_h=null_sd,
        fit=fit,
        n_excluded_zero_h=n_excluded,
    )


def normalized_scores(result: ReshuffleResult, benchmark: Benchmark) -> list[NormalizedScore]:
    """Ratio, z and log-residual of every unit against the benchmark."""
    if benchmark.unit_ids != result.unit_ids:
        raise ValueError("benchmark was built from a different dataset")
    scores = []
    for i, unit_id in enumerate(result.unit_ids):
        real = int(result.real_h[i])
        expected = float(benchmark.expected_h(int(result.productivities[i])))
        sd = float(benchmark.null_sd_h[i])
        z = (real - float(benchmark.null_mean_h[i])) / sd if sd > 0 else None
        ratio = real / expected
        log_residual = math.log10(ratio) if real > 0 else -math.inf
        scores.append(
            NormalizedScore(
                unit_id=unit_id,
                productivity=int(result.productivities[i]),
                real_h=real,
                ratio=ratio,
                z=z,
                log_residual=log_residual,
            )
        )
    return scores


RANKING_KEYS = ("ratio", "z", "log_residual")


def competition_ranks(values: Sequence[float]) -> list[int]:
    """Rank 1 for the largest value; ties share a rank ("1224" style)."""
    return stats.rankdata(-np.asarray(values, dtype=float), method="min").tolist()


def normalized_ranking(
    scores: Sequence[NormalizedScore], key: str = "ratio"
) -> list[tuple[int, NormalizedScore]]:
    """Scores ordered best-first by the chosen key.

    Ties share a rank and are ordered by unit id; units with an undefined
    z sort below every defined value when ranking by z.
    """
    if key not in RANKING_KEYS:
        raise ValueError(f"unknown ranking key {key!r}; choose one of {RANKING_KEYS}")
    if not scores:
        raise ValueError("cannot rank an empty score list")

    def value(s: NormalizedScore) -> float:
        v = getattr(s, key)
        return -math.inf if v is None else float(v)

    ordered = sorted(scores, key=lambda s: (-value(s), s.unit_id))
    ranks = competition_ranks([value(s) for s in ordered])
    return list(zip(ranks, ordered))
