"""Exact urn-model combinatorics against enumeration and big-integer oracles."""

import itertools
import math
from fractions import Fraction

import pytest

from sizebias.combinatorics import (
    PoolSpec,
    count_distribution,
    hypergeom_pmf,
    most_likely_black_count,
)


def exact_pmf(total_black, total_white, draw, black_drawn) -> Fraction:
    """Independent oracle: exact rational hypergeometric probability."""
    white_drawn = draw - black_drawn
    if black_drawn < 0 or white_drawn < 0 or black_drawn > total_black or white_drawn > total_white:
        return Fraction(0)
    return Fraction(
        math.comb(total_black, black_drawn) * math.comb(total_white, white_drawn),
        math.comb(total_black + total_white, draw),
    )


class TestHypergeomPmf:
    def test_exhaustive_enumeration_small_pools(self):
        # label balls 0..K-1, the first K1 black; enumerate every basket
        for total in range(1, 9):
            for black in range(0, total + 1):
                pool = PoolSpec(black=black, white=total - black)
                for draw in range(0, total + 1):
                    baskets = list(itertools.combinations(range(total), draw))
                    for k1 in range(0, draw + 1):
                        matching = sum(
                            1 for b in baskets if sum(1 for i in b if i < black) == k1
                        )
                        expected = Fraction(matching, len(baskets))
                        got = hypergeom_pmf(pool, draw, k1)
                        assert got == float(expected)

    def test_rational_oracle_medium_pools(self):
        for black, white, draw in [(20, 30, 15), (100, 1, 50), (1, 100, 50), (63, 64, 40)]:
            pool = PoolSpec(black=black, white=white)
            for k1 in range(0, draw + 1):
                expected = float(exact_pmf(black, white, draw, k1))
                assert hypergeom_pmf(pool, draw, k1) == expected

    def test_large_pool_spot_values(self):
        pool = PoolSpec(black=2120, white=4000 - 2120)
        for k1 in (0, 10, 53, 90, 100):
            expected = float(exact_pmf(2120, 1880, 100, k1))
            assert hypergeom_pmf(pool, 100, k1) == expected

    def test_thousand_ball_basket_spot_values(self):
        pool = PoolSpec(black=2120, white=1880)
        for k1 in (0, 120, 400, 530, 600, 800, 1000):
            expected = float(exact_pmf(2120, 1880, 1000, k1))
            assert hypergeom_pmf(pool, 1000, k1) == expected

    def test_subnormal_probability_is_kept(self):
        # 1 / C(1030, 515) is below the smallest normal float but representable
        pool = PoolSpec(black=515, white=515)
        p = hypergeom_pmf(pool, 515, 515)
        assert p == 3.496941992245984e-309
        assert p == float(exact_pmf(515, 515, 515, 515))

    def test_sums_to_one(self):
        for black, white, draw in [(2120, 1880, 100), (5, 5, 5), (0, 9, 4), (7, 0, 3)]:
            pool = PoolSpec(black=black, white=white)
            total = sum(hypergeom_pmf(pool, draw, k1) for k1 in range(draw + 1))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_impossible_splits_are_zero(self):
        pool = PoolSpec(black=2, white=3)
        assert hypergeom_pmf(pool, 4, 3) == 0.0
        assert hypergeom_pmf(pool, 4, 0) == 0.0

    def test_underflow_truncates_to_zero(self):
        # 1 / C(4000, 2000) is about 1e-1202, below every subnormal float
        pool = PoolSpec(black=2000, white=2000)
        assert hypergeom_pmf(pool, 2000, 0) == 0.0

    def test_draw_larger_than_pool_rejected(self):
        pool = PoolSpec(black=2, white=3)
        with pytest.raises(ValueError):
            hypergeom_pmf(pool, 6, 2)

    def test_black_drawn_out_of_basket_rejected(self):
        pool = PoolSpec(black=5, white=5)
        with pytest.raises(ValueError):
            hypergeom_pmf(pool, 3, 4)
        with pytest.raises(ValueError):
            hypergeom_pmf(pool, 3, -1)


class TestDistributions:
    def test_four_ball_table(self):
        # two black and two white, draw two: exactly (1/6, 2/3, 1/6)
        pool = PoolSpec(black=2, white=2)
        dist = count_distribution(pool, 2)
        assert [k1 for k1, _ in dist] == [0, 1, 2]
        assert [p for _, p in dist] == [1 / 6, 2 / 3, 1 / 6]

    def test_default_tables_match_rational_oracle(self):
        pool = PoolSpec(black=2120, white=1880)
        for k in range(10, 101, 10):
            dist = count_distribution(pool, k)
            assert [p for _, p in dist] == [float(exact_pmf(2120, 1880, k, k1)) for k1 in range(k + 1)]

    def test_equals_hypergeom_pmf_element_for_element(self):
        # one shared denominator must give bit-identical probabilities
        cases = [(2, 2, 2), (6, 0, 4), (0, 6, 4), (3, 5, 8), (50, 1, 20), (2120, 1880, 1000)]
        for black, white, k in cases:
            pool = PoolSpec(black=black, white=white)
            expected = [(k1, hypergeom_pmf(pool, k, k1)) for k1 in range(k + 1)]
            assert count_distribution(pool, k) == expected

    def test_basket_larger_than_pool_rejected(self):
        with pytest.raises(ValueError, match="exceeds pool size"):
            count_distribution(PoolSpec(black=2, white=2), 5)
        with pytest.raises(ValueError):
            count_distribution(PoolSpec(black=2, white=2), -1)

    def test_distribution_sums_to_one(self):
        for black, white, k in [(2120, 1880, 100), (3, 3, 6), (50, 1, 20)]:
            dist = count_distribution(PoolSpec(black=black, white=white), k)
            assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)

    def test_all_black_pool_single_point(self):
        dist = count_distribution(PoolSpec(black=6, white=0), 4)
        assert [p for _, p in dist] == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_no_black_pool_single_point(self):
        dist = count_distribution(PoolSpec(black=0, white=6), 4)
        assert dist[0][1] == 1.0
        assert sum(p for _, p in dist[1:]) == 0.0


class TestMode:
    def test_paper_scale_mode(self):
        # pool of 4000 with 53% black, basket of 100: mode at 53
        pool = PoolSpec(black=2120, white=1880)
        assert most_likely_black_count(pool, 100) == 53

    def test_mode_matches_exact_argmax(self):
        for black, white, k in [(5, 5, 4), (30, 10, 12), (1, 40, 10), (13, 7, 20)]:
            pool = PoolSpec(black=black, white=white)
            probs = [exact_pmf(black, white, k, k1) for k1 in range(k + 1)]
            best = max(probs)
            expected = min(i for i, p in enumerate(probs) if p == best)
            assert most_likely_black_count(pool, k) == expected

    def test_tie_broken_toward_smaller_count(self):
        # symmetric pool, draw of one: P(0) = P(1) = 1/2, report 0
        pool = PoolSpec(black=2, white=2)
        assert most_likely_black_count(pool, 1) == 0


class TestSpecs:
    def test_pool_requires_a_ball(self):
        with pytest.raises(ValueError):
            PoolSpec(black=0, white=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            PoolSpec(black=-1, white=5)
        with pytest.raises(ValueError):
            PoolSpec(black=1, white=-5)

    def test_basket_nonnegative(self):
        pool = PoolSpec(black=2, white=2)
        assert hypergeom_pmf(pool, 0, 0) == 1.0
        assert count_distribution(pool, 0) == [(0, 1.0)]
        assert most_likely_black_count(pool, 0) == 0
        for call in (lambda: hypergeom_pmf(pool, -1, 0), lambda: count_distribution(pool, -1),
                     lambda: most_likely_black_count(pool, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                call()
