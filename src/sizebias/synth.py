"""Synthetic dataset generation.

Citation counts are drawn from a discretized Pareto law with tail
exponent alpha, for which theory predicts group h-indices scaling with
unit size N as N**(1/(1+alpha)).  Unit sizes come from a power law, a
bounded uniform draw, or an explicit list, so the whole pipeline can be
exercised without proprietary citation data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Dataset, Unit
from .scaling import exact_benchmark

# Spawn key of the dataset-generation RNG stream.  Replicate streams use
# keys 0..replicates-1, so the top 32-bit key can never collide.
_GENERATION_STREAM = 2**32 - 1

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class CitationModel:
    """Paretian citation-count model with tail exponent alpha."""

    alpha: float
    x_min: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"tail exponent must be > 0, got {self.alpha}")
        if not self.x_min > 0:
            raise ValueError(f"scale must be > 0, got {self.x_min}")


@dataclass(frozen=True)
class SizeModel:
    """How unit sizes (publication counts) are generated.

    kind "powerlaw": survival function of sizes falls off as
    N**(-exponent), truncated to [min_size, max_size].
    kind "uniform_floor": integer uniform on [min_size, max_size].
    kind "explicit": the given size list, passed through.
    """

    kind: str
    exponent: float | None = None
    min_size: int | None = None
    max_size: int | None = None
    sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "powerlaw":
            if self.exponent is None or not self.exponent > 0:
                raise ValueError("powerlaw sizes need an exponent > 0")
            self._check_bounds()
        elif self.kind == "uniform_floor":
            self._check_bounds()
        elif self.kind == "explicit":
            if not self.sizes:
                raise ValueError("explicit sizes need a non-empty list")
            object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
            if any(n < 1 for n in self.sizes):
                raise ValueError("all sizes must be >= 1")
        else:
            raise ValueError(f"unknown size model kind {self.kind!r}")

    def _check_bounds(self) -> None:
        if self.min_size is None or self.max_size is None:
            raise ValueError(f"{self.kind} sizes need min_size and max_size")
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")
        if self.min_size > self.max_size:
            raise ValueError(f"min_size {self.min_size} > max_size {self.max_size}")

    @classmethod
    def power_law(cls, exponent: float, min_size: int, max_size: int) -> "SizeModel":
        return cls(kind="powerlaw", exponent=exponent, min_size=min_size, max_size=max_size)

    @classmethod
    def uniform_floor(cls, min_size: int, max_size: int) -> "SizeModel":
        return cls(kind="uniform_floor", min_size=min_size, max_size=max_size)

    @classmethod
    def explicit(cls, sizes: Sequence[int]) -> "SizeModel":
        return cls(kind="explicit", sizes=tuple(sizes))


def sample_citations(model: CitationModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n citation counts: floor(x_min * U**(-1/alpha) - x_min).

    U is uniform on (0, 1], so the smallest possible draw is exactly 0;
    zero-citation papers are a normal part of the model.
    """
    if n < 0:
        raise ValueError("sample count must be >= 0")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    u = 1.0 - rng.random(n)
    values = np.floor(model.x_min * u ** (-1.0 / model.alpha) - model.x_min)
    # Very small alpha can push single draws past int64; the cap is purely
    # representational and unreachable for realistic citation tails.
    return np.minimum(values, float(_INT64_MAX)).astype(np.int64)


def sample_sizes(model: SizeModel, units: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `units` unit sizes according to the size model."""
    if units < 1:
        raise ValueError("need at least one unit")
    if model.kind == "explicit":
        if units != len(model.sizes):
            raise ValueError(f"asked for {units} units but the explicit list has {len(model.sizes)}")
        return np.asarray(model.sizes, dtype=np.int64)
    a, b = float(model.min_size), float(model.max_size)
    if model.kind == "uniform_floor":
        return rng.integers(model.min_size, model.max_size, size=units, endpoint=True, dtype=np.int64)
    # Truncated power law by inverse CDF on the survival function, rounded
    # to integers.
    g = float(model.exponent)
    u = rng.random(units)
    x = (a**-g - u * (a**-g - b**-g)) ** (-1.0 / g)
    return np.clip(np.rint(x), model.min_size, model.max_size).astype(np.int64)


def build_synthetic_dataset(
    sizes: Sequence[int] | np.ndarray,
    model: CitationModel,
    rng: np.random.Generator,
    name: str = "synthetic",
    ids: Sequence[str] | None = None,
    names: Sequence[str] | None = None,
) -> Dataset:
    """One unit per size, each with independently sampled citations.

    Pass ids/names to mirror the units of a real dataset; the defaults
    invent sequential unit ids.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        raise ValueError("need at least one unit size")
    if sizes.min() < 1:
        raise ValueError("all sizes must be >= 1")
    for label, seq in (("ids", ids), ("names", names)):
        if seq is not None and len(seq) != sizes.size:
            raise ValueError(f"{label} has {len(seq)} entries for {sizes.size} sizes")
    width = max(3, len(str(sizes.size)))
    units = []
    for i, n in enumerate(sizes):
        counts = sample_citations(model, int(n), rng)
        uid = ids[i] if ids is not None else f"u{i + 1:0{width}d}"
        uname = names[i] if names is not None else f"synthetic unit {i + 1}"
        units.append(Unit(id=uid, name=uname, citations=counts))
    return Dataset(name=name, units=tuple(units))


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
    dataset = build_synthetic_dataset(sizes, CitationModel(alpha=alpha), rng)
    return exact_benchmark(dataset).fit.beta, 1.0 / (1.0 + alpha)
