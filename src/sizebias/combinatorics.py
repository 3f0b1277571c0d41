"""Exact two-color urn model: draw a basket of k balls from a pool of
black and white balls and ask how many black ones come out.

Every probability is a ratio of exact integer combination counts, turned
into a float by one correctly rounded division, so each value is the
float nearest the true rational probability, however large the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PoolSpec:
    """Composition of the pool: counts of black and white balls."""

    black: int
    white: int

    def __post_init__(self) -> None:
        if self.black < 0 or self.white < 0:
            raise ValueError("ball counts must be nonnegative")
        if self.black + self.white < 1:
            raise ValueError("pool must contain at least one ball")

    @property
    def total(self) -> int:
        return self.black + self.white


def _check_basket(pool: PoolSpec, k: int) -> None:
    if k < 0:
        raise ValueError(f"basket size must be nonnegative, got {k}")
    if k > pool.total:
        raise ValueError(f"basket size {k} exceeds pool size {pool.total}")


def _baskets(pool: PoolSpec, black: int, white: int) -> int:
    """Exact number of baskets of this color split; callers keep it within the pool."""
    return math.comb(pool.black, black) * math.comb(pool.white, white)


def hypergeom_pmf(pool: PoolSpec, basket_size: int, black_drawn: int) -> float:
    """Probability that a basket of `basket_size` balls holds exactly
    `black_drawn` black balls.

    Splits that cannot occur (more black than the pool holds, or not
    enough white to fill the rest of the basket) get probability 0.
    """
    k = basket_size
    _check_basket(pool, k)
    if not 0 <= black_drawn <= k:
        raise ValueError(f"black draw {black_drawn} out of range [0, {k}]")
    white_drawn = k - black_drawn
    if black_drawn > pool.black or white_drawn > pool.white:
        return 0.0
    return _baskets(pool, black_drawn, white_drawn) / math.comb(pool.total, k)


def count_distribution(pool: PoolSpec, basket_size: int) -> list[tuple[int, float]]:
    """Full PMF over the number of black balls in one basket: hypergeom_pmf
    for every count, over one shared denominator."""
    k = basket_size
    _check_basket(pool, k)
    lo, hi = max(0, k - pool.white), min(k, pool.black)
    total = math.comb(pool.total, k)
    return [
        (k1, _baskets(pool, k1, k - k1) / total if lo <= k1 <= hi else 0.0)
        for k1 in range(k + 1)
    ]


def most_likely_black_count(pool: PoolSpec, basket_size: int) -> int:
    """Mode of the distribution; on a tie, the smallest count wins.

    Compared on exact counts, so two probabilities that round to the same
    float cannot tie by accident.
    """
    k = basket_size
    _check_basket(pool, k)
    # max keeps the first of equal keys, so the smallest count wins a tie
    return max(
        range(max(0, k - pool.white), min(k, pool.black) + 1),
        key=lambda k1: _baskets(pool, k1, k - k1),
    )
