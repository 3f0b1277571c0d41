"""Power-law fits, benchmarks, normalized scores, rankings."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from sizebias.model import Dataset, Unit
from sizebias.nullmodel import ReshuffleConfig, ReshuffleResult, run_null_model
from sizebias.scaling import (
    RANKING_KEYS,
    Benchmark,
    FitError,
    NormalizedScore,
    PowerLawFit,
    build_benchmark,
    competition_ranks,
    fit_power_law,
    normalized_ranking,
    normalized_scores,
    slope_significance,
)


def ols_oracle(points):
    """Independent closed-form OLS on decimal logs."""
    x = np.log10([p[0] for p in points])
    y = np.log10([p[1] for p in points])
    n = len(x)
    sxx = np.sum((x - x.mean()) ** 2)
    sxy = np.sum((x - x.mean()) * (y - y.mean()))
    syy = np.sum((y - y.mean()) ** 2)
    slope = sxy / sxx
    intercept = y.mean() - slope * x.mean()
    sse = syy - slope * sxy
    r2 = 1.0 - sse / syy if syy > 0 else 1.0
    if n > 2 and sse > 0:
        stderr = math.sqrt(sse / (n - 2) / sxx)
        t = slope / stderr
        p = 2 * stats.t.sf(abs(t), n - 2)
    else:
        stderr = 0.0
        p = 1.0 if slope == 0 else 0.0
    return slope, intercept, stderr, p, max(0.0, min(1.0, r2))


def exact_points(beta=0.4, prefactor=2.0, ns=(10, 100, 1000)):
    return [(n, prefactor * n**beta) for n in ns]


class TestFitPowerLaw:
    def test_exact_three_point_recovery(self):
        fit = fit_power_law(exact_points())
        assert fit.beta == pytest.approx(0.4, abs=1e-6)
        assert 10**fit.log10_prefactor == pytest.approx(2.0, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 3

    def test_exact_recovery_many_configurations(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            beta = float(rng.uniform(-1, 1.5))
            pref = float(rng.uniform(0.1, 50))
            ns = np.unique(rng.integers(1, 10**5, size=12))
            if ns.size < 3:
                continue
            fit = fit_power_law([(int(n), pref * n**beta) for n in ns])
            assert fit.beta == pytest.approx(beta, abs=1e-9)
            assert 10**fit.log10_prefactor == pytest.approx(pref, rel=1e-9)

    def test_matches_closed_form_oracle_on_noisy_data(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n_pts = int(rng.integers(3, 40))
            ns = rng.uniform(1, 1e4, size=n_pts)
            hs = np.exp(rng.uniform(0.05, 5, size=n_pts))
            if np.unique(np.log10(ns)).size < 2:
                continue
            points = list(zip(ns, hs))
            fit = fit_power_law(points)
            slope, intercept, stderr, p, r2 = ols_oracle(points)
            assert fit.beta == pytest.approx(slope, abs=1e-10)
            assert fit.log10_prefactor == pytest.approx(intercept, abs=1e-10)
            assert fit.beta_stderr == pytest.approx(stderr, abs=1e-10)
            assert fit.p_value == pytest.approx(p, abs=1e-10)
            assert fit.r_squared == pytest.approx(r2, abs=1e-10)

    def test_matches_scipy_linregress(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            ns = rng.uniform(2, 1e4, size=15)
            hs = np.exp(rng.uniform(0.1, 4, size=15))
            fit = fit_power_law(list(zip(ns, hs)))
            ref = stats.linregress(np.log10(ns), np.log10(hs))
            assert fit.beta == pytest.approx(ref.slope, abs=1e-12)
            assert fit.log10_prefactor == pytest.approx(ref.intercept, abs=1e-12)
            assert fit.beta_stderr == pytest.approx(ref.stderr, abs=1e-12)
            assert fit.p_value == pytest.approx(ref.pvalue, abs=1e-12)
            assert fit.r_squared == pytest.approx(ref.rvalue**2, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError):
            fit_power_law([(10, 2), (100, 5)])

    def test_all_sizes_equal_rejected(self):
        with pytest.raises(FitError):
            fit_power_law([(10, 2), (10, 3), (10, 4)])

    def test_zero_h_rejected(self):
        with pytest.raises(FitError):
            fit_power_law([(10, 2), (100, 0), (1000, 8)])

    def test_size_below_one_rejected(self):
        with pytest.raises(FitError):
            fit_power_law([(0, 2), (100, 5), (1000, 8)])

    def test_scale_equivariance_in_n(self):
        points = [(n, h) for n, h in zip([12, 87, 330, 4100], [3.0, 7.5, 12.2, 40.1])]
        fit = fit_power_law(points)
        for c in (10, 250):
            scaled = fit_power_law([(n * c, h) for n, h in points])
            assert scaled.beta == pytest.approx(fit.beta, abs=1e-9)
            assert scaled.log10_prefactor == pytest.approx(
                fit.log10_prefactor - fit.beta * math.log10(c), abs=1e-9
            )

    def test_scale_equivariance_in_h(self):
        points = [(12, 3.0), (87, 7.5), (330, 12.2), (4100, 40.1)]
        fit = fit_power_law(points)
        for c in (10, 3):
            scaled = fit_power_law([(n, h * c) for n, h in points])
            assert scaled.beta == pytest.approx(fit.beta, abs=1e-9)
            assert scaled.log10_prefactor == pytest.approx(
                fit.log10_prefactor + math.log10(c), abs=1e-9
            )

    def test_predict_h(self):
        fit = fit_power_law(exact_points(beta=0.5, prefactor=3.0, ns=(4, 25, 100)))
        assert fit.predict_h(100) == pytest.approx(30.0, rel=1e-9)
        grid = fit.predict_h(np.array([4.0, 25.0]))
        assert np.allclose(grid, [6.0, 15.0])


class TestSlopeSignificance:
    def test_exact_power_law_is_significant(self):
        ns = np.unique(np.geomspace(10, 10**4, 30).astype(int))
        fit = fit_power_law([(int(n), 2.0 * n**0.4) for n in ns])
        assert slope_significance(fit, 0.01) is True

    def test_constant_h_is_not_significant(self):
        fit = fit_power_law([(10, 5), (100, 5), (1000, 5)])
        assert fit.beta == pytest.approx(0.0, abs=1e-12)
        assert slope_significance(fit, 0.01) is False

    def test_alpha_out_of_range_rejected(self):
        fit = fit_power_law(exact_points())
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                slope_significance(fit, bad)

    def test_default_alpha(self):
        fit = fit_power_law(exact_points())
        assert slope_significance(fit) is True


def make_unit(uid, citations):
    return Unit(id=uid, name=uid, citations=citations)


def spread_dataset(seed=4):
    rng = np.random.default_rng(seed)
    sizes = [15, 40, 110, 300, 820, 2200]
    units = tuple(
        make_unit(f"u{i}", rng.integers(0, 60, size=s).tolist()) for i, s in enumerate(sizes)
    )
    return Dataset(name="spread", units=units)


class TestBuildBenchmark:
    def test_per_unit_moments(self):
        ds = spread_dataset()
        result = run_null_model(ds, ReshuffleConfig(master_seed=6, replicates=40), workers=2)
        bench = build_benchmark(result)
        assert np.allclose(bench.null_mean_h, result.h_samples.mean(axis=0))
        assert np.allclose(bench.null_sd_h, result.h_samples.std(axis=0, ddof=1))
        assert bench.unit_ids == result.unit_ids

    def test_pooled_fit_equals_manual_pooling(self):
        ds = spread_dataset()
        result = run_null_model(ds, ReshuffleConfig(master_seed=6, replicates=40), workers=2)
        bench = build_benchmark(result)
        points = []
        for row in result.h_samples:
            for n, h in zip(result.productivities, row):
                if h > 0:
                    points.append((float(n), float(h)))
        manual = fit_power_law(points)
        assert bench.fit.beta == pytest.approx(manual.beta, abs=1e-12)
        assert bench.fit.n_points == manual.n_points == len(points)

    def test_curve_monotone_when_beta_positive(self):
        ds = spread_dataset()
        result = run_null_model(ds, ReshuffleConfig(master_seed=6, replicates=40), workers=2)
        bench = build_benchmark(result)
        assert bench.fit.beta > 0
        grid = np.linspace(result.productivities.min(), result.productivities.max(), 50)
        values = bench.expected_h(grid)
        assert np.all(np.diff(values) > 0)

    def test_identical_units_give_flat_benchmark(self):
        rng = np.random.default_rng(12)
        counts = rng.integers(0, 30, size=25).tolist()
        units = tuple(make_unit(f"u{i}", counts) for i in range(5))
        ds = Dataset(name="same", units=units)
        result = run_null_model(ds, ReshuffleConfig(master_seed=2, replicates=30), workers=1)
        bench = build_benchmark(result)
        assert bench.fit.beta == 0.0
        expected = [float(bench.expected_h(int(n))) for n in result.productivities]
        assert max(expected) - min(expected) == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_replicates(self):
        ds = spread_dataset()
        result = run_null_model(ds, ReshuffleConfig(master_seed=1, replicates=1), workers=1)
        with pytest.raises(ValueError):
            build_benchmark(result)

    def test_zero_h_points_counted(self):
        # two tiny units over a nearly uncited pool produce h=0 replicates
        units = (make_unit("a", [0, 0, 0, 1]), make_unit("b", [0, 0, 2, 1]), make_unit("c", [3, 0, 0, 0]))
        ds = Dataset(name="tiny", units=units)
        result = run_null_model(ds, ReshuffleConfig(master_seed=3, replicates=25), workers=1)
        bench = build_benchmark(result)
        zeros = int(np.count_nonzero(result.h_samples == 0))
        assert bench.n_excluded_zero_h == zeros
        assert bench.fit.n_points == result.h_samples.size - zeros


def manual_result_and_benchmark():
    result = ReshuffleResult(
        unit_ids=("a", "b", "c"),
        h_samples=np.array([[2, 4, 6], [4, 6, 8], [3, 5, 10]], dtype=np.int64),
        real_h=np.array([3, 5, 8], dtype=np.int64),
        productivities=np.array([10, 100, 1000], dtype=np.int64),
    )
    bench = build_benchmark(result)
    return result, bench


class TestNormalizedScores:
    def test_z_zero_when_real_equals_null_mean(self):
        result, bench = manual_result_and_benchmark()
        scores = normalized_scores(result, bench)
        # real_h was chosen as the exact per-unit null means
        assert np.allclose(bench.null_mean_h, [3.0, 5.0, 8.0])
        for s in scores:
            assert s.z == pytest.approx(0.0, abs=1e-12)

    def test_ratio_and_log_residual_on_curve(self):
        fit = fit_power_law([(10, 2.0), (100, 4.0), (1000, 8.0), (10000, 16.0)])
        bench = Benchmark(
            unit_ids=("a",),
            productivities=np.array([100]),
            null_mean_h=np.array([4.0]),
            null_sd_h=np.array([1.0]),
            fit=fit,
            n_excluded_zero_h=0,
        )
        result = ReshuffleResult(
            unit_ids=("a",),
            h_samples=np.array([[4], [4]], dtype=np.int64),
            real_h=np.array([4], dtype=np.int64),
            productivities=np.array([100], dtype=np.int64),
        )
        scores = normalized_scores(result, bench)
        assert scores[0].ratio == pytest.approx(1.0, rel=1e-9)
        assert scores[0].log_residual == pytest.approx(0.0, abs=1e-9)

    def test_sd_zero_flags_z_none(self):
        result = ReshuffleResult(
            unit_ids=("a", "b"),
            h_samples=np.array([[2, 3], [2, 5]], dtype=np.int64),
            real_h=np.array([2, 4], dtype=np.int64),
            productivities=np.array([5, 500], dtype=np.int64),
        )
        bench = build_benchmark(result)
        scores = normalized_scores(result, bench)
        assert scores[0].z is None
        assert scores[1].z is not None

    def test_zero_real_h_gives_minus_infinite_log_residual(self):
        result = ReshuffleResult(
            unit_ids=("a", "b", "c"),
            h_samples=np.array([[1, 2, 3], [2, 3, 4]], dtype=np.int64),
            real_h=np.array([0, 2, 3], dtype=np.int64),
            productivities=np.array([10, 100, 1000], dtype=np.int64),
        )
        bench = build_benchmark(result)
        scores = normalized_scores(result, bench)
        assert scores[0].log_residual == -math.inf
        assert scores[0].ratio == 0.0

    def test_foreign_benchmark_rejected(self):
        result, bench = manual_result_and_benchmark()
        other = ReshuffleResult(
            unit_ids=("x", "y", "z"),
            h_samples=result.h_samples.copy(),
            real_h=result.real_h.copy(),
            productivities=result.productivities.copy(),
        )
        with pytest.raises(ValueError):
            normalized_scores(other, bench)

    def test_self_consistency_log_residual_centered(self):
        # the real data IS one null draw: residuals must center near zero
        ds = spread_dataset(seed=44)
        from sizebias.nullmodel import replicate_stream, reshuffled_dataset

        draw = reshuffled_dataset(ds, replicate_stream(90, 10**6))
        result = run_null_model(draw, ReshuffleConfig(master_seed=91, replicates=200), workers=2)
        bench = build_benchmark(result)
        scores = normalized_scores(result, bench)
        mean_log_residual = float(np.mean([s.log_residual for s in scores]))
        assert abs(mean_log_residual) < 0.05


def score(uid, ratio=1.0, z=0.0, log_residual=0.0, n=10, real_h=5):
    return NormalizedScore(
        unit_id=uid, productivity=n, real_h=real_h, ratio=ratio, z=z, log_residual=log_residual
    )


class TestRanking:
    def test_competition_ranks_1224(self):
        assert competition_ranks([5.0, 4.0, 4.0, 3.0]) == [1, 2, 2, 4]

    @given(
        st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-math.inf, math.inf]), st.floats(-1e6, 1e6)),
            max_size=60,
        )
    )
    def test_competition_ranks_match_pairwise_count(self, values):
        # Reference: the quadratic definition, one plus the number of
        # strictly larger values.
        expected = [1 + sum(1 for w in values if w > v) for v in values]
        ranks = competition_ranks(values)
        assert ranks == expected
        assert all(type(r) is int for r in ranks)

    def test_order_by_ratio(self):
        ranking = normalized_ranking([score("a", ratio=0.8), score("b", ratio=1.2)], key="ratio")
        assert [s.unit_id for _, s in ranking] == ["b", "a"]
        assert [r for r, _ in ranking] == [1, 2]

    def test_all_tied_rank_one(self):
        ranking = normalized_ranking([score("b"), score("a"), score("c")], key="ratio")
        assert [r for r, _ in ranking] == [1, 1, 1]
        assert [s.unit_id for _, s in ranking] == ["a", "b", "c"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            normalized_ranking([score("a")], key="h")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalized_ranking([], key="ratio")

    def test_undefined_z_ranks_last(self):
        scores = [score("a", z=None), score("b", z=-3.0), score("c", z=1.0)]
        ranking = normalized_ranking(scores, key="z")
        assert [s.unit_id for _, s in ranking] == ["c", "b", "a"]
        assert [r for r, _ in ranking] == [1, 2, 3]

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(55)
        base = [score(f"u{i}", ratio=float(rng.uniform(0.2, 3))) for i in range(12)]
        transformed = [
            score(s.unit_id, ratio=float(np.exp(2.0 * s.ratio + 1.0))) for s in base
        ]
        order_a = [s.unit_id for _, s in normalized_ranking(base, key="ratio")]
        order_b = [s.unit_id for _, s in normalized_ranking(transformed, key="ratio")]
        assert order_a == order_b
        assert set(RANKING_KEYS) == {"ratio", "z", "log_residual"}

    def test_normalization_changes_order_on_size_heterogeneous_data(self):
        ds = spread_dataset(seed=77)
        result = run_null_model(ds, ReshuffleConfig(master_seed=5, replicates=60), workers=2)
        bench = build_benchmark(result)
        scores = normalized_scores(result, bench)
        raw_order = [
            uid for _, uid in sorted(zip(-result.real_h, result.unit_ids))
        ]
        norm_order = [s.unit_id for _, s in normalized_ranking(scores, key="ratio")]
        assert raw_order != norm_order
