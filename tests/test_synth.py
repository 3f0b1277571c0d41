"""Synthetic data generation and the size-scaling relation."""

import dataclasses
import math

import numpy as np
import pytest

from sizebias.io import bundled_summary_path, read_summary
from sizebias.nullmodel import replicate_stream
from sizebias.scaling import exact_benchmark
from sizebias.synth import (
    SizeModel,
    build_synthetic_dataset,
    generation_stream,
    sample_citations,
    sample_sizes,
)


def tail_slope(samples, lo, hi, n_grid=25):
    """Independent oracle: log-log slope of the empirical survival function."""
    grid = np.unique(np.floor(np.geomspace(lo, hi, n_grid)).astype(np.int64))
    ranked = np.sort(samples)
    survival = 1.0 - np.searchsorted(ranked, grid, side="left") / ranked.size
    keep = survival > 0
    x = np.log10(grid[keep].astype(float))
    y = np.log10(survival[keep])
    return -float(np.polyfit(x, y, 1)[0])


def finite_size_slope(alpha, lo, hi):
    """Independent oracle: log-log slope of the self-consistent h(N).

    h solves N * (1 + h)^-alpha = h, the mean-field balance between unit
    size and the survival function of the citation law.
    """

    def h_root(n):
        low, high = 0.0, float(n)
        for _ in range(200):
            mid = 0.5 * (low + high)
            if n * (1.0 + mid) ** (-alpha) > mid:
                low = mid
            else:
                high = mid
        return low

    return (math.log10(h_root(hi)) - math.log10(h_root(lo))) / (math.log10(hi) - math.log10(lo))


class TestSizeModel:
    def test_power_law_validation(self):
        SizeModel(10, 100, 2.0)
        with pytest.raises(ValueError):
            SizeModel(10, 100, 0.0)
        with pytest.raises(ValueError):
            SizeModel(10, 100, math.nan)
        with pytest.raises(ValueError):
            SizeModel(100, 10, 2.0)
        with pytest.raises(ValueError):
            SizeModel(0, 10, 2.0)

    def test_uniform_floor_validation(self):
        SizeModel(100, 100)
        with pytest.raises(ValueError):
            SizeModel(101, 100)
        with pytest.raises(ValueError):
            SizeModel(0, 100)

    def test_cannot_be_changed_after_its_checks(self):
        model = SizeModel(10, 100)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.min_size = 0


class TestSampleCitations:
    def test_empty_draw(self):
        out = sample_citations(1.5, 0, generation_stream(1))
        assert out.size == 0 and out.dtype == np.int64

    def test_rejects_a_tail_exponent_not_above_zero(self):
        for alpha in (0.0, -1.5, math.nan):
            with pytest.raises(ValueError, match="tail exponent must be > 0"):
                sample_citations(alpha, 10, generation_stream(1))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_citations(1.5, -1, generation_stream(1))

    def test_nonnegative_integers(self):
        # at alpha 0.1 about 1 % of draws reach 2**63 and are capped below it
        for alpha, n, seed in ((1.5, 20000, 2), (0.1, 10_000, 1)):
            out = sample_citations(alpha, n, generation_stream(seed))
            assert out.dtype == np.int64
            assert out.min() >= 0

    def test_zero_is_reachable_and_common(self):
        # floor(u^(-1/alpha) - 1) = 0 whenever u > 2^-alpha
        out = sample_citations(1.5, 50000, generation_stream(3))
        frac_zero = float(np.mean(out == 0))
        assert out.min() == 0
        assert frac_zero == pytest.approx(1.0 - 2.0**-1.5, abs=0.01)

    def test_deterministic_per_stream(self):
        a = sample_citations(1.5, 100, generation_stream(4))
        b = sample_citations(1.5, 100, generation_stream(4))
        assert np.array_equal(a, b)

    def test_tail_exponent_recovered(self):
        out = sample_citations(1.5, 10**6, generation_stream(5))
        slope = tail_slope(out, 10, 10**3)
        assert slope == pytest.approx(1.5, abs=0.1)


class TestSampleSizes:
    def test_explicit_real_size_column(self):
        # an explicit size list draws nothing: it goes straight to the dataset, in order
        rows = read_summary(bundled_summary_path("uk_rae2008_physics"))
        sizes = [r.n_publications for r in rows]
        out = build_synthetic_dataset(sizes, 1.5, generation_stream(1)).sizes
        assert out.tolist() == sizes
        assert out[0] == 9602
        assert out[1] == 8129
        assert out[-1] == 117

    def test_uniform_floor_bounds(self):
        model = SizeModel(100, 500)
        out = sample_sizes(model, 5000, generation_stream(2))
        assert out.min() >= 100 and out.max() <= 500
        assert out.min() == 100 and out.max() == 500

    def test_uniform_degenerate(self):
        out = sample_sizes(SizeModel(100, 100), 50, generation_stream(3))
        assert np.all(out == 100)

    def test_powerlaw_bounds(self):
        model = SizeModel(100, 10000, 2.0)
        out = sample_sizes(model, 5000, generation_stream(4))
        assert out.min() >= 100 and out.max() <= 10000

    def test_powerlaw_tail_exponent(self):
        model = SizeModel(100, 10000, 2.0)
        out = sample_sizes(model, 10**4, generation_stream(5))
        slope = tail_slope(out, 150, 1500)
        assert slope == pytest.approx(2.0, abs=0.15)

    def test_needs_a_unit(self):
        with pytest.raises(ValueError):
            sample_sizes(SizeModel(1, 5), 0, generation_stream(1))


class TestBuildSyntheticDataset:
    def test_single_publication_unit(self):
        ds = build_synthetic_dataset([1], 1.5, generation_stream(1))
        assert len(ds.unit_ids) == 1
        assert ds.sizes.tolist() == [1]

    @pytest.mark.parametrize("sizes", [[], [3, 0], [5, -2, 7]])
    def test_rejects_an_empty_or_below_one_size_list(self, sizes):
        with pytest.raises(ValueError, match="at least one unit size|sizes must be >= 1"):
            build_synthetic_dataset(sizes, 1.5, generation_stream(1))

    def test_pool_size_equals_size_sum(self):
        rows = read_summary(bundled_summary_path("ukraine_2019"))
        sizes = [r.n_publications for r in rows]
        ds = build_synthetic_dataset(sizes, 1.5, generation_stream(2))
        assert len(ds.unit_ids) == 40
        assert ds.pool_size == sum(sizes) == 92833
        assert ds.pool_size > 90000

    def test_reproducible(self):
        a = build_synthetic_dataset([5, 9], 1.5, generation_stream(3))
        b = build_synthetic_dataset([5, 9], 1.5, generation_stream(3))
        assert (a.unit_ids, a.unit_names) == (b.unit_ids, b.unit_names)
        assert (a.sizes.tolist(), a.citations.tolist()) == (b.sizes.tolist(), b.citations.tolist())

    @pytest.mark.parametrize("alpha", [0.1, 1.5, 3.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_one_draw_matches_the_per_unit_loop(self, seed, alpha):
        # the oracle draws each unit's citations in turn from the same stream
        rng, oracle_rng = generation_stream(seed), generation_stream(seed)
        sizes = sample_sizes(SizeModel(1, 300), 25, rng)
        sample_sizes(SizeModel(1, 300), 25, oracle_rng)
        ds = build_synthetic_dataset(sizes, alpha, rng)
        oracle = np.concatenate([sample_citations(alpha, int(n), oracle_rng) for n in sizes])
        assert ds.citations.tolist() == oracle.tolist()
        assert rng.random() == oracle_rng.random()  # both streams consumed the same draws

    def test_custom_ids_and_names(self):
        ds = build_synthetic_dataset(
            [2, 3],
            1.5,
            generation_stream(4),
            ids=["x", "y"],
            names=["X", "Y"],
        )
        assert ds.unit_ids == ("x", "y")
        assert ds.unit_names == ("X", "Y")

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic_dataset([2, 3], 1.5, generation_stream(5), ids=["x"])

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic_dataset([], 1.5, generation_stream(6))
        with pytest.raises(ValueError):
            build_synthetic_dataset([0, 3], 1.5, generation_stream(6))


class TestStreamSeparation:
    def test_generation_stream_deterministic(self):
        assert np.array_equal(generation_stream(9).random(8), generation_stream(9).random(8))

    def test_generation_stream_disjoint_from_replicates(self):
        gen = generation_stream(9).random(8)
        for r in (0, 1, 199):
            assert not np.array_equal(gen, replicate_stream(9, r).random(8))


def exact_slope(alpha, size_model, seed, units=40):
    """The exact null curve's slope for the dataset `synth` draws from these arguments."""
    rng = generation_stream(seed)
    return exact_benchmark(build_synthetic_dataset(sample_sizes(size_model, units, rng), alpha, rng)).fit.beta


class TestBetaRelation:
    def test_predicted_exponent_formula(self):
        # 1/(1+alpha) is the large-N limit of the self-consistent h(N)
        for alpha, predicted in ((1.5, 0.4), (4.0, 0.2)):
            assert finite_size_slope(alpha, 1e20, 1e24) == pytest.approx(predicted, abs=1e-4)

    def test_alpha_1_5_recovers_exponent(self):
        assert exact_slope(1.5, SizeModel(100, 10000), seed=1) == pytest.approx(0.4, abs=0.05)

    def test_fit_insensitive_to_size_model_kind(self):
        # matched size range, same seed: the two size models and a fixed
        # geometric size list agree at fit level
        fits = [exact_slope(1.5, m, seed=1) for m in (SizeModel(100, 10000, 1.0), SizeModel(100, 10000))]
        geom = [int(round(x)) for x in np.geomspace(100, 10000, 40)]
        dataset = build_synthetic_dataset(geom, 1.5, generation_stream(1))
        fits.append(exact_benchmark(dataset).fit.beta)
        assert max(fits) - min(fits) <= 0.05

    def test_steep_tail_matches_finite_size_oracle(self):
        # alpha=4 at desk-scale sizes: the asymptotic exponent 0.2 is not
        # reached; the self-consistency oracle gives the attainable slope
        fitted = exact_slope(4.0, SizeModel(100, 10000), seed=1)
        oracle = finite_size_slope(4.0, 100, 10000)
        assert fitted == pytest.approx(oracle, abs=0.05)
        assert fitted > 1 / (1 + 4.0)
