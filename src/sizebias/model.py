"""Core domain types and the exact group h-index computation.

A Unit owns a multiset of publications, stored as one array of their
citation counts; a Dataset is an ordered collection of units.  All types are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Representational cap for citation counts.  Real counts never approach
# this; anything larger is rejected at construction/ingestion time.
MAX_CITATIONS = 2**64 - 1


@dataclass(frozen=True, eq=False)
class Unit:
    """A research group/institution owning a multiset of publications.

    Each publication is reduced to its citation count; `citations` holds
    them as a read-only uint64 array, validated once at construction.
    Zero publications is legal; such a unit scores h = 0.  Units compare
    by identity: an array field has no single truth value for `==`.
    """

    id: str
    name: str
    citations: np.ndarray

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("unit id must be non-empty")
        # A private copy, so freezing it never freezes the caller's array.
        counts = np.array(_as_citation_array(self.citations), dtype=np.uint64)
        counts.setflags(write=False)
        object.__setattr__(self, "citations", counts)

    @property
    def productivity(self) -> int:
        """Number of publications attributed to this unit (its size proxy)."""
        return int(self.citations.size)


@dataclass(frozen=True)
class Dataset:
    """A named, ordered collection of units with distinct ids."""

    name: str
    units: tuple[Unit, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        if not self.units:
            raise ValueError("a dataset needs at least one unit")
        seen: set[str] = set()
        for unit in self.units:
            if unit.id in seen:
                raise ValueError(f"duplicate unit id {unit.id!r}")
            seen.add(unit.id)

    @property
    def pool_size(self) -> int:
        """Total number of publications across all units (duplicates kept)."""
        return sum(u.productivity for u in self.units)


def _as_citation_array(citations: Iterable[int] | np.ndarray) -> np.ndarray:
    """Coerce to a one-dimensional integer array, rejecting negatives,
    non-integers, booleans and values past MAX_CITATIONS."""
    if isinstance(citations, np.ndarray):
        arr = citations
        if arr.ndim != 1:
            raise ValueError(f"citation counts must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            return arr.reshape(0).astype(np.uint64)
        if arr.dtype.kind == "u":
            return arr
        if arr.dtype.kind == "i":
            if arr.min() < 0:
                raise ValueError("citation counts must be nonnegative")
            return arr
        raise ValueError(f"citation counts must be an integer array, got dtype {arr.dtype}")
    # Convert element by element before numpy sees the values: asarray would
    # silently round Python ints near 2^64 through float64.
    values = list(citations)
    if not values:
        return np.empty(0, dtype=np.uint64)
    if any(isinstance(c, bool) for c in values):
        raise ValueError("citation counts must be integers, not booleans")
    try:
        return np.array([operator.index(c) for c in values], dtype=np.uint64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"citation counts must be integers in [0, 2^64): {exc}") from None


def h_from_tally(tally: np.ndarray) -> np.ndarray:
    """h of every row of a tally: tally[b, k] counts block b's papers with k
    citations, capped at the last level.  The k >= 1 with at least k papers
    cited >= k times form a prefix, so counting them gives h.  The levels
    are swept upward 32 at a time, and the sweep stops after a block that
    no row fills to its end: no row fills a level above it."""
    rows, width = tally.shape
    h = np.zeros(rows, dtype=np.intp)
    at_least = tally.sum(axis=1)  # papers cited >= start - 1 times
    for start in range(1, width, 32):
        stop = min(start + 32, width)
        # papers cited >= k times, k = start..stop - 1
        at_least = at_least[:, None] - np.cumsum(tally[:, start - 1 : stop - 1], axis=1)
        filled = np.count_nonzero(at_least >= np.arange(start, stop), axis=1)
        h += filled
        if not np.any(filled == stop - start):
            break
        at_least = at_least[:, -1]
    return h


def h_index(citations: Iterable[int] | np.ndarray) -> int:
    """Largest h such that at least h of the counts are >= h.

    Single counting pass over buckets capped at n = len(citations), so the
    cost is linear in the input size regardless of how large individual
    counts are.  Equivalent to the classic sort-based definition.
    """
    arr = _as_citation_array(citations)
    n = int(arr.size)
    tally = np.bincount(np.minimum(arr, n).astype(np.int64), minlength=n + 1)
    return int(h_from_tally(tally[np.newaxis])[0])


def _tally_keys(dataset: Dataset) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Unit sizes, the pool's h, H, and for every pooled paper in unit
    order the start of its unit's row and its citation count capped at H,
    both flat indices into a (units, H + 1) tally.  No unit's h can exceed
    H, so tallying row + level gives every unit's h through h_from_tally."""
    sizes = np.array([u.productivity for u in dataset.units], dtype=np.int64)
    counts = np.concatenate([u.citations for u in dataset.units])
    cap = h_index(counts)
    rows = np.repeat(np.arange(sizes.size) * (cap + 1), sizes)
    return sizes, cap, rows, np.minimum(counts, cap).astype(np.int64)


def group_h_indices(dataset: Dataset) -> np.ndarray:
    """Every unit's group h-index, in unit order, from one tally."""
    sizes, cap, keys, levels = _tally_keys(dataset)
    keys += levels
    tally = np.bincount(keys, minlength=sizes.size * (cap + 1)).reshape(sizes.size, cap + 1)
    del keys, levels  # freed before h_from_tally copies the tally: a lower peak memory
    return h_from_tally(tally)
