"""Output checks for the benchmark's commands.

Every check holds for any correct implementation of the documented
outputs, including one that changes the random stream or replaces Monte
Carlo by exact computation: exact quantities are compared with an
independent oracle, and Monte Carlo estimates with the exact null
distribution within a wide multiple of their standard error.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

# Allowed distance of a replicate mean from the exact null mean, in exact
# standard errors.
MEAN_TOLERANCE_SE = 6.0


class CheckError(Exception):
    """An output file disagrees with the oracle."""


def h_index_oracle(sizes: np.ndarray, citations: np.ndarray) -> np.ndarray:
    """Per-unit h-index by the sort-based definition.

    `citations` holds the units' papers back to back, in unit order.
    Within each unit, sort counts in descending order; h is the number of
    positions r (1-based) whose count is at least r.
    """
    unit = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((-citations, unit))
    ranked = citations[order]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    position = np.arange(ranked.size) - np.repeat(starts, sizes) + 1
    return np.bincount(unit, weights=ranked >= position, minlength=sizes.size).astype(np.int64)


def exact_null_moments(sizes: np.ndarray, citations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and standard deviation of each unit's reshuffled h.

    A block of N papers drawn without replacement from the pool of M
    papers has h >= k exactly when at least k of its papers have at least
    k citations, so P(h >= k) = P(X >= k) with X ~ Hypergeom(M, K_k, N),
    where K_k counts pool papers with at least k citations.  Then
    E[h] = sum_k P(h >= k) and E[h^2] = sum_k (2k - 1) P(h >= k).
    """
    pool_h = int(h_index_oracle(np.array([citations.size]), citations)[0])
    if pool_h == 0:
        return np.zeros(sizes.size), np.zeros(sizes.size)
    k = np.arange(1, pool_h + 1)
    sorted_pool = np.sort(citations)
    at_least_k = citations.size - np.searchsorted(sorted_pool, k, side="left")
    distinct, inverse = np.unique(sizes, return_inverse=True)
    tail = stats.hypergeom.sf(k[None, :] - 1, citations.size, at_least_k[None, :], distinct[:, None])
    tail = np.where(k[None, :] <= distinct[:, None], tail, 0.0)
    mean_d = tail.sum(axis=1)
    second_d = (tail * (2 * k - 1)).sum(axis=1)
    sd_d = np.sqrt(np.maximum(second_d - mean_d**2, 0.0))
    return mean_d[inverse], sd_d[inverse]


def competition_ranks(values: np.ndarray) -> np.ndarray:
    """Rank 1 for the largest value; ties share the best rank ("1224")."""
    ascending = np.sort(values)
    return 1 + values.size - np.searchsorted(ascending, values, side="right")


def _read_csv(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise CheckError(f"{path.name}: header {rows[0] if rows else None!r}, expected {header!r}")
    return rows[1:]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Oracle:
    """Ground truth for one generated input."""

    def __init__(self, unit_ids: tuple[str, ...], sizes: np.ndarray, citations: np.ndarray) -> None:
        self.unit_ids = unit_ids
        self.sizes = sizes
        self.citations = citations
        self.h = h_index_oracle(sizes, citations)
        self.pool_h = int(h_index_oracle(np.array([citations.size]), citations)[0])

    @functools.cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact null mean and sd per unit; computed on first use."""
        return exact_null_moments(self.sizes, self.citations)

    def check_sizes_and_h(self, where: str, ids, sizes, h) -> None:
        _require(tuple(ids) == self.unit_ids, f"{where}: unit ids or their order differ from the input")
        _require(np.array_equal(np.asarray(sizes, dtype=np.int64), self.sizes), f"{where}: N differs from the input")
        bad = np.flatnonzero(np.asarray(h, dtype=np.int64) != self.h)
        _require(bad.size == 0, f"{where}: h differs from the sort-based oracle for {bad.size} units")

    def check_null_means(self, where: str, null_mean, replicates: int) -> None:
        mean, sd = self.moments
        observed = np.asarray(null_mean, dtype=float)
        allowed = MEAN_TOLERANCE_SE * sd / math.sqrt(replicates) + 1e-9
        bad = np.flatnonzero(~(np.abs(observed - mean) <= allowed))
        _require(
            bad.size == 0,
            f"{where}: null_mean_h off the exact null mean by more than {MEAN_TOLERANCE_SE:g} "
            f"standard errors for {bad.size} units",
        )

    def check_benchmark_csv(self, path: Path, replicates: int) -> None:
        header = (
            "unit_id", "N", "real_h", "null_mean_h", "null_sd_h", "h_hat",
            "ratio", "z", "log_residual", "raw_rank", "normalized_rank",
        )
        rows = _read_csv(path, header)
        col = {name: [r[i] for r in rows] for i, name in enumerate(header)}
        self.check_sizes_and_h(path.name, col["unit_id"], col["N"], col["real_h"])
        self.check_null_means(path.name, col["null_mean_h"], replicates)
        real_h = np.asarray(col["real_h"], dtype=float)
        ratio = np.asarray(col["ratio"], dtype=float)
        _require(
            np.array_equal(np.asarray(col["raw_rank"], dtype=np.int64), competition_ranks(real_h)),
            f"{path.name}: raw_rank is not the competition ranking of real_h",
        )
        _require(
            np.array_equal(np.asarray(col["normalized_rank"], dtype=np.int64), competition_ranks(ratio)),
            f"{path.name}: normalized_rank is not the competition ranking of ratio",
        )

    def check_null_model_dir(self, out: Path, replicates: int) -> None:
        with open(out / "reshuffle_summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        units = summary["units"]
        where = "reshuffle_summary.json"
        _require(summary["n_replicates"] == replicates, f"{where}: n_replicates {summary['n_replicates']}")
        self.check_sizes_and_h(
            where, [u["unit_id"] for u in units], [u["n_publications"] for u in units], [u["real_h"] for u in units]
        )
        self.check_null_means(where, [u["null_mean_h"] for u in units], replicates)
        self.check_samples_csv(out / "reshuffle_samples.csv", replicates)

    def check_samples_csv(self, path: Path, replicates: int) -> None:
        rows = _read_csv(path, ("replicate", "unit_id", "h"))
        n_units = len(self.unit_ids)
        _require(
            len(rows) == replicates * n_units,
            f"{path.name}: {len(rows)} rows, expected {replicates} x {n_units}",
        )
        index = {uid: i for i, uid in enumerate(self.unit_ids)}
        try:
            rep = np.array([int(r[0]) for r in rows])
            unit = np.array([index[r[1]] for r in rows])
            h = np.array([int(r[2]) for r in rows])
        except (KeyError, ValueError) as exc:
            raise CheckError(f"{path.name}: unreadable row: {exc}") from None
        _require(
            bool(np.all((rep >= 0) & (rep < replicates))), f"{path.name}: replicate index out of range"
        )
        seen = np.bincount(rep * n_units + unit, minlength=replicates * n_units)
        _require(bool(np.all(seen == 1)), f"{path.name}: some (replicate, unit) pair is missing or repeated")
        cap = np.minimum(self.sizes[unit], self.pool_h)
        _require(bool(np.all((h >= 0) & (h <= cap))), f"{path.name}: some h exceeds min(N, pool h-index)")

    def check_fit_report(self, path: Path, replicates: int) -> None:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        total = report["n_points"] + report["n_excluded_zero_h"]
        expected = replicates * len(self.unit_ids)
        _require(total == expected, f"{path.name}: n_points + n_excluded_zero_h = {total}, expected {expected}")
