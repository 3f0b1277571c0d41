"""The data model and the exact group h-index computation.

A Dataset stores its units by columns: their ids, names and sizes, and one
citation count per publication, all units' papers back to back in unit
order.  That is the form the null model works on: one pool, cut into
blocks of the units' sizes.  Datasets are immutable after construction
and safe to share across workers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

# Representational cap for citation counts.  Real counts never approach
# this; anything larger is rejected at construction/ingestion time.
MAX_CITATIONS = 2**64 - 1


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of research units (groups, departments,
    institutions) with distinct ids.

    Unit i is `unit_ids[i]`, named `unit_names[i]`, with `sizes[i]`
    publications.  `citations` holds every publication's citation count,
    unit i's papers right after those of units 0..i-1, so unit i's block
    starts at sizes[:i].sum().  Both arrays are private read-only copies,
    `sizes` int64 and `citations` uint64, checked once at construction.  A
    unit of size 0 is legal and scores h = 0.  Datasets compare by
    identity: an array field has no single truth value for `==`.
    """

    unit_ids: tuple[str, ...]
    unit_names: tuple[str, ...]
    sizes: np.ndarray
    citations: np.ndarray

    def __post_init__(self) -> None:
        ids, names, sizes = tuple(self.unit_ids), tuple(self.unit_names), np.asarray(self.sizes)
        if not ids:
            raise ValueError("a dataset needs at least one unit")
        if sizes.shape != (len(ids),) or len(names) != len(ids):
            raise ValueError(f"need one name and one size for each of the {len(ids)} unit ids")
        seen: set[str] = set()
        for unit_id in ids:
            if not unit_id:
                raise ValueError("unit id must be non-empty")
            if unit_id in seen:
                raise ValueError(f"duplicate unit id {unit_id!r}")
            seen.add(unit_id)
        if sizes.dtype.kind not in "iu" or sizes.min() < 0:
            raise ValueError("unit sizes must be nonnegative integers")
        # Private copies, so freezing them never freezes the caller's arrays.
        sizes = sizes.astype(np.int64)
        counts = np.array(_as_citation_array(self.citations), dtype=np.uint64)
        if int(sizes.sum()) != counts.size:
            raise ValueError(f"unit sizes sum to {int(sizes.sum())} but there are {counts.size} citation counts")
        sizes.setflags(write=False)
        counts.setflags(write=False)
        for field, value in (("unit_ids", ids), ("unit_names", names), ("sizes", sizes), ("citations", counts)):
            object.__setattr__(self, field, value)

    @property
    def pool_size(self) -> int:
        """Total number of publications across all units (duplicates kept)."""
        return int(self.citations.size)

    @cached_property
    def cited_at_least(self) -> np.ndarray:
        """The pool's K_k, k = 1..H (see the module function of that name), a
        read-only array tallied on first use, so its length H is the pool's h."""
        marked = cited_at_least(self.citations)
        marked.setflags(write=False)
        return marked


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


def cited_at_least(citations: Iterable[int] | np.ndarray) -> np.ndarray:
    """K_k, the number of counts >= k, for k = 1..h, as int64: the k >= 1
    with K_k >= k form a prefix, whose length h is the h-index.  One
    counting pass over buckets capped at n = len(citations), so the cost is
    linear in n however large single counts are."""
    arr = _as_citation_array(citations)
    n = int(arr.size)
    tally = np.bincount(np.minimum(arr, n).astype(np.int64), minlength=n + 1)
    return n - np.cumsum(tally[: h_from_tally(tally[np.newaxis])[0]])


def h_index(citations: Iterable[int] | np.ndarray) -> int:
    """Largest h such that at least h of the counts are >= h."""
    return int(cited_at_least(citations).size)


def unit_h_tally(dataset: Dataset) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The pool positions of the cited papers, and h_at: h_at(positions) is
    every unit's h when the i-th cited paper sits at the distinct pool
    position positions[i], so h_at(cited) is every unit's real h.

    No unit's h exceeds the pool's h, H, so counts are capped at H and
    tallied per unit and level in a (units, H + 1) matrix (4000 x 132 is
    about 4 MB).  Uncited papers raise no h, fill the other positions and
    are never tallied, so a call costs the cited papers, not the pool size.
    h_at only reads what it shares, so threads may call it at once."""
    cap = dataset.cited_at_least.size
    units = dataset.sizes.size
    cited = np.flatnonzero(dataset.citations)
    levels = np.minimum(dataset.citations[cited], cap).astype(np.int64)
    rows = np.repeat(np.arange(units) * (cap + 1), dataset.sizes)  # position -> start of its unit's row

    def h_at(positions: np.ndarray) -> np.ndarray:
        keys = rows[positions]
        keys += levels
        return h_from_tally(np.bincount(keys, minlength=units * (cap + 1)).reshape(units, cap + 1))

    return cited, h_at


def group_h_indices(dataset: Dataset) -> np.ndarray:
    """Every unit's group h-index, in unit order, from one tally."""
    cited, h_at = unit_h_tally(dataset)
    return h_at(cited)
