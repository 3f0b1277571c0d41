"""Synthetic dataset generation.

Citation counts are drawn from a discretized Pareto law with tail
exponent alpha, for which theory predicts group h-indices scaling with
unit size N as N**(1/(1+alpha)).  Unit sizes are drawn from a power law
or a bounded uniform law, or an explicit list goes straight to
`build_synthetic_dataset`, so the whole pipeline can be exercised
without proprietary citation data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Dataset
from .scaling import exact_benchmark

# Spawn key of the dataset-generation RNG stream.  Replicate streams use
# keys 0..replicates-1, so the top 32-bit key can never collide.
_GENERATION_STREAM = 2**32 - 1

# The largest float below 2**63: float(2**63 - 1) rounds up to 2**63,
# which wraps to -2**63 in the int64 cast.
_INT64_CAP = np.nextafter(2.0**63, 0.0)


@dataclass(frozen=True)
class SizeModel:
    """How unit sizes (publication counts) are drawn on [min_size, max_size].

    With no exponent sizes are integer uniform; with one, their survival
    function falls off as N**(-exponent), truncated to the bounds.
    """

    min_size: int
    max_size: int
    exponent: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.min_size <= self.max_size:
            raise ValueError(f"need 1 <= min_size <= max_size, got {self.min_size} and {self.max_size}")
        if self.exponent is not None and not self.exponent > 0:
            raise ValueError(f"size exponent must be > 0, got {self.exponent}")


def sample_citations(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n citation counts with tail exponent alpha: floor(U**(-1/alpha) - 1).

    U is uniform on (0, 1], so the smallest possible draw is exactly 0;
    zero-citation papers are a normal part of the model.
    """
    if not alpha > 0:
        raise ValueError(f"tail exponent must be > 0, got {alpha}")
    if n < 0:
        raise ValueError("sample count must be >= 0")
    u = 1.0 - rng.random(n)
    values = np.floor(u ** (-1.0 / alpha) - 1.0)
    # Very small alpha can push single draws past int64; the cap is purely
    # representational and unreachable for realistic citation tails.
    return np.minimum(values, _INT64_CAP).astype(np.int64)


def sample_sizes(model: SizeModel, units: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `units` unit sizes according to the size model."""
    if units < 1:
        raise ValueError("need at least one unit")
    if model.exponent is None:
        return rng.integers(model.min_size, model.max_size, size=units, endpoint=True, dtype=np.int64)
    # Truncated power law by inverse CDF on the survival function, rounded
    # to integers.
    a, b, g = float(model.min_size), float(model.max_size), float(model.exponent)
    u = rng.random(units)
    x = (a**-g - u * (a**-g - b**-g)) ** (-1.0 / g)
    return np.clip(np.rint(x), model.min_size, model.max_size).astype(np.int64)


def build_synthetic_dataset(
    sizes: Sequence[int] | np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    name: str = "synthetic",
    ids: Sequence[str] | None = None,
    names: Sequence[str] | None = None,
) -> Dataset:
    """One unit per size, each with citations sampled independently with
    tail exponent alpha, all drawn in one call in unit order.

    Pass ids/names to mirror the units of a real dataset; the defaults
    invent sequential unit ids.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        raise ValueError("need at least one unit size")
    if sizes.min() < 1:
        raise ValueError("all sizes must be >= 1")
    width = max(3, len(str(sizes.size)))
    if ids is None:
        ids = [f"u{i:0{width}d}" for i in range(1, sizes.size + 1)]
    if names is None:
        names = [f"synthetic unit {i}" for i in range(1, sizes.size + 1)]
    counts = sample_citations(alpha, int(sizes.sum()), rng)
    return Dataset(name=name, unit_ids=ids, unit_names=names, sizes=sizes, citations=counts)


def generation_stream(master_seed: int) -> np.random.Generator:
    """RNG stream for dataset generation, disjoint from replicate streams."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(_GENERATION_STREAM,))
    )


def verify_beta_relation(
    alpha: float, size_model: SizeModel, seed: int, units: int = 40
) -> tuple[float, float]:
    """Generate a dataset from `seed` and return (the slope of its exact
    null benchmark curve, the predicted exponent 1/(1+alpha))."""
    rng = generation_stream(seed)
    sizes = sample_sizes(size_model, units, rng)
    dataset = build_synthetic_dataset(sizes, alpha, rng)
    return exact_benchmark(dataset).fit.beta, 1.0 / (1.0 + alpha)
