"""Publications CSV generator owned by the benchmark.

The benchmark makes its own inputs rather than calling `sizebias synth`,
so a change to the package's synthetic-data code cannot change the inputs
that two commits are compared on.

Citations are Pareto-tailed: floor(U**(-1/alpha) - 1) with U uniform on
(0, 1].  Unit sizes are drawn from the workload's size model by inverse
CDF of *stratified* uniforms (one uniform per stratum of width 1/units,
strata shuffled).  Every unit's size keeps the model's marginal
distribution, but the total row count barely moves between seeds, so the
run-to-run spread of the timings comes from the program rather than from
seed-to-seed changes in input size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = "unit_id,unit_name,citations\n"


@dataclass(frozen=True)
class SizeModel:
    """kind "uniform": integers uniform on [lo, hi].
    kind "powerlaw": survival falling off as N**(-exponent), truncated to
    [lo, hi] and rounded to integers."""

    kind: str
    lo: int
    hi: int
    exponent: float = 0.0


@dataclass(frozen=True)
class Generated:
    """One generated input: the CSV path, its digest, and the arrays the
    output checks use as ground truth."""

    path: Path
    sha256: str
    unit_ids: tuple[str, ...]
    sizes: np.ndarray
    citations: np.ndarray


def _stratified_uniforms(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.permutation(n) + rng.random(n)) / n


def sample_sizes(model: SizeModel, units: int, rng: np.random.Generator) -> np.ndarray:
    u = _stratified_uniforms(units, rng)
    if model.kind == "uniform":
        return model.lo + np.floor(u * (model.hi - model.lo + 1)).astype(np.int64)
    if model.kind == "powerlaw":
        a, b, g = float(model.lo), float(model.hi), model.exponent
        x = (a**-g - u * (a**-g - b**-g)) ** (-1.0 / g)
        return np.clip(np.rint(x), model.lo, model.hi).astype(np.int64)
    raise ValueError(f"unknown size model {model.kind!r}")


def sample_citations(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    u = 1.0 - rng.random(n)
    return np.floor(u ** (-1.0 / alpha) - 1.0).astype(np.int64)


def generate(
    path: Path, seed: int, units: int, size_model: SizeModel, alpha: float = 1.5
) -> Generated:
    """Write a publications CSV for (seed, units, size_model, alpha).

    Rows are grouped by unit in unit order.  The same arguments always
    produce the same bytes.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sizes = sample_sizes(size_model, units, rng)
    citations = sample_citations(int(sizes.sum()), alpha, rng)
    width = len(str(units - 1))
    unit_ids = tuple(f"u{i:0{width}d}" for i in range(units))
    text = citations.astype(str)
    parts = [HEADER]
    start = 0
    for i, n in enumerate(sizes.tolist()):
        prefix = f"{unit_ids[i]},Unit {i:0{width}d},"
        parts.append("".join(prefix + c + "\n" for c in text[start : start + n].tolist()))
        start += n
    data = "".join(parts).encode("utf-8")
    path.write_bytes(data)
    return Generated(
        path=path,
        sha256=hashlib.sha256(data).hexdigest(),
        unit_ids=unit_ids,
        sizes=sizes,
        citations=citations,
    )
