"""Synthetic data generation and the size-scaling relation."""

import math

import numpy as np
import pytest

from sizebias.io import load_bundled_summary
from sizebias.nullmodel import replicate_stream
from sizebias.synth import (
    CitationModel,
    SizeModel,
    build_synthetic_dataset,
    generation_stream,
    sample_citations,
    sample_sizes,
    verify_beta_relation,
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


class TestCitationModel:
    def test_validation(self):
        CitationModel(alpha=0.5)
        with pytest.raises(ValueError):
            CitationModel(alpha=0.0)
        with pytest.raises(ValueError):
            CitationModel(alpha=-1.5)
        with pytest.raises(ValueError):
            CitationModel(alpha=1.5, x_min=0.0)


class TestSizeModel:
    def test_power_law_validation(self):
        SizeModel.power_law(2.0, 10, 100)
        with pytest.raises(ValueError):
            SizeModel.power_law(0.0, 10, 100)
        with pytest.raises(ValueError):
            SizeModel.power_law(2.0, 100, 10)
        with pytest.raises(ValueError):
            SizeModel.power_law(2.0, 0, 10)
        with pytest.raises(ValueError):
            SizeModel(kind="powerlaw", min_size=10, max_size=100)

    def test_uniform_floor_validation(self):
        SizeModel.uniform_floor(100, 100)
        with pytest.raises(ValueError):
            SizeModel.uniform_floor(101, 100)
        with pytest.raises(ValueError):
            SizeModel(kind="uniform_floor", min_size=5, max_size=None)

    def test_explicit_validation(self):
        model = SizeModel.explicit([3, 1, 7])
        assert model.sizes == (3, 1, 7)
        with pytest.raises(ValueError):
            SizeModel.explicit([])
        with pytest.raises(ValueError):
            SizeModel.explicit([3, 0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SizeModel(kind="lognormal", min_size=1, max_size=2)


class TestSampleCitations:
    def test_empty_draw(self):
        out = sample_citations(CitationModel(alpha=1.5), 0, generation_stream(1))
        assert out.size == 0 and out.dtype == np.int64

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_citations(CitationModel(alpha=1.5), -1, generation_stream(1))

    def test_nonnegative_integers(self):
        out = sample_citations(CitationModel(alpha=1.5), 20000, generation_stream(2))
        assert out.dtype == np.int64
        assert out.min() >= 0

    def test_zero_is_reachable_and_common(self):
        # floor(u^(-1/alpha) - 1) = 0 whenever u > 2^-alpha
        out = sample_citations(CitationModel(alpha=1.5), 50000, generation_stream(3))
        frac_zero = float(np.mean(out == 0))
        assert out.min() == 0
        assert frac_zero == pytest.approx(1.0 - 2.0**-1.5, abs=0.01)

    def test_deterministic_per_stream(self):
        a = sample_citations(CitationModel(alpha=1.5), 100, generation_stream(4))
        b = sample_citations(CitationModel(alpha=1.5), 100, generation_stream(4))
        assert np.array_equal(a, b)

    def test_tail_exponent_recovered(self):
        out = sample_citations(CitationModel(alpha=1.5), 10**6, generation_stream(5))
        slope = tail_slope(out, 10, 10**3)
        assert slope == pytest.approx(1.5, abs=0.1)

    def test_x_min_scales_counts(self):
        small = sample_citations(CitationModel(alpha=2.0, x_min=1.0), 20000, generation_stream(6))
        large = sample_citations(CitationModel(alpha=2.0, x_min=10.0), 20000, generation_stream(6))
        assert large.mean() > small.mean()


class TestSampleSizes:
    def test_explicit_passthrough(self):
        model = SizeModel.explicit([5, 9, 2])
        out = sample_sizes(model, 3, generation_stream(1))
        assert out.tolist() == [5, 9, 2]

    def test_explicit_count_mismatch(self):
        with pytest.raises(ValueError):
            sample_sizes(SizeModel.explicit([5, 9]), 3, generation_stream(1))

    def test_explicit_real_size_column(self):
        rows = load_bundled_summary("uk_rae2008_physics")
        model = SizeModel.explicit([r.n_publications for r in rows])
        out = sample_sizes(model, len(rows), generation_stream(1))
        assert out[0] == 9602
        assert out[1] == 8129
        assert out[-1] == 117

    def test_uniform_floor_bounds(self):
        model = SizeModel.uniform_floor(100, 500)
        out = sample_sizes(model, 5000, generation_stream(2))
        assert out.min() >= 100 and out.max() <= 500
        assert out.min() == 100 and out.max() == 500

    def test_uniform_degenerate(self):
        out = sample_sizes(SizeModel.uniform_floor(100, 100), 50, generation_stream(3))
        assert np.all(out == 100)

    def test_powerlaw_bounds(self):
        model = SizeModel.power_law(2.0, 100, 10000)
        out = sample_sizes(model, 5000, generation_stream(4))
        assert out.min() >= 100 and out.max() <= 10000

    def test_powerlaw_tail_exponent(self):
        model = SizeModel.power_law(2.0, 100, 10000)
        out = sample_sizes(model, 10**4, generation_stream(5))
        slope = tail_slope(out, 150, 1500)
        assert slope == pytest.approx(2.0, abs=0.15)

    def test_needs_a_unit(self):
        with pytest.raises(ValueError):
            sample_sizes(SizeModel.uniform_floor(1, 5), 0, generation_stream(1))


class TestBuildSyntheticDataset:
    def test_single_publication_unit(self):
        ds = build_synthetic_dataset([1], CitationModel(alpha=1.5), generation_stream(1))
        assert len(ds.units) == 1
        assert ds.units[0].productivity == 1

    def test_pool_size_equals_size_sum(self):
        rows = load_bundled_summary("ukraine_2019")
        sizes = [r.n_publications for r in rows]
        ds = build_synthetic_dataset(sizes, CitationModel(alpha=1.5), generation_stream(2))
        assert len(ds.units) == 40
        assert ds.pool_size == sum(sizes) == 92833
        assert ds.pool_size > 90000

    def test_reproducible(self):
        a = build_synthetic_dataset([5, 9], CitationModel(alpha=1.5), generation_stream(3))
        b = build_synthetic_dataset([5, 9], CitationModel(alpha=1.5), generation_stream(3))
        assert a.name == b.name
        assert [(u.id, u.name, u.citations.tolist()) for u in a.units] == [
            (u.id, u.name, u.citations.tolist()) for u in b.units
        ]

    def test_custom_ids_and_names(self):
        ds = build_synthetic_dataset(
            [2, 3],
            CitationModel(alpha=1.5),
            generation_stream(4),
            ids=["x", "y"],
            names=["X", "Y"],
        )
        assert [u.id for u in ds.units] == ["x", "y"]
        assert [u.name for u in ds.units] == ["X", "Y"]

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic_dataset([2, 3], CitationModel(alpha=1.5), generation_stream(5), ids=["x"])

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic_dataset([], CitationModel(alpha=1.5), generation_stream(6))
        with pytest.raises(ValueError):
            build_synthetic_dataset([0, 3], CitationModel(alpha=1.5), generation_stream(6))


class TestStreamSeparation:
    def test_generation_stream_deterministic(self):
        assert np.array_equal(generation_stream(9).random(8), generation_stream(9).random(8))

    def test_generation_stream_disjoint_from_replicates(self):
        gen = generation_stream(9).random(8)
        for r in (0, 1, 199):
            assert not np.array_equal(gen, replicate_stream(9, r).random(8))


class TestBetaRelation:
    def test_predicted_exponent_formula(self):
        model = SizeModel.uniform_floor(50, 400)
        _, predicted = verify_beta_relation(1.5, model, seed=1, units=5)
        assert predicted == pytest.approx(0.4, abs=1e-12)

    def test_alpha_1_5_recovers_exponent(self):
        fitted, predicted = verify_beta_relation(1.5, SizeModel.uniform_floor(100, 10000), seed=1, units=40)
        assert predicted == 0.4
        assert fitted == pytest.approx(0.4, abs=0.05)

    def test_fit_insensitive_to_size_model_kind(self):
        # matched size range, same seed: the three kinds agree at fit level
        geom = SizeModel.explicit([int(round(x)) for x in np.geomspace(100, 10000, 40)])
        kinds = [
            SizeModel.power_law(1.0, 100, 10000),
            SizeModel.uniform_floor(100, 10000),
            geom,
        ]
        fits = [
            verify_beta_relation(1.5, m, seed=1, units=40)[0]
            for m in kinds
        ]
        assert max(fits) - min(fits) <= 0.05

    def test_steep_tail_matches_finite_size_oracle(self):
        # alpha=4 at desk-scale sizes: the asymptotic exponent 0.2 is not
        # reached; the self-consistency oracle gives the attainable slope
        fitted, predicted = verify_beta_relation(4.0, SizeModel.uniform_floor(100, 10000), seed=1, units=40)
        assert predicted == pytest.approx(0.2, abs=1e-12)
        oracle = finite_size_slope(4.0, 100, 10000)
        assert fitted == pytest.approx(oracle, abs=0.05)
        assert fitted > predicted
