"""Power-law fits, benchmarks, normalized scores, rankings."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

from conftest import make_dataset
from sizebias.model import h_index
from sizebias.nullmodel import ReshuffleResult, null_h_tails, run_null_model
from sizebias.scaling import (
    RANKING_KEYS,
    Benchmark,
    FitError,
    PowerLawFit,
    _t_tail,
    build_benchmark,
    competition_ranks,
    exact_benchmark,
    fit_power_law,
    normalized_scores,
)
from sizebias.synth import SizeModel, build_synthetic_dataset, generation_stream, sample_sizes


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
    """Sizes and h lying exactly on h = prefactor * N**beta."""
    return list(ns), [prefactor * n**beta for n in ns]


class TestFitPowerLaw:
    def test_exact_three_point_recovery(self):
        fit = fit_power_law(*exact_points())
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
            fit = fit_power_law(ns, pref * ns.astype(float) ** beta)
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
            fit = fit_power_law(ns, hs)
            slope, intercept, stderr, p, r2 = ols_oracle(list(zip(ns, hs)))
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
            fit = fit_power_law(ns, hs)
            ref = stats.linregress(np.log10(ns), np.log10(hs))
            assert fit.beta == pytest.approx(ref.slope, abs=1e-12)
            assert fit.log10_prefactor == pytest.approx(ref.intercept, abs=1e-12)
            assert fit.beta_stderr == pytest.approx(ref.stderr, abs=1e-12)
            assert fit.p_value == pytest.approx(ref.pvalue, abs=1e-12)
            assert fit.r_squared == pytest.approx(ref.rvalue**2, abs=1e-12)

    def test_p_value_does_not_load_scipy_stats(self, run_without_scipy):
        # the t tail comes from scaling._t_tail, so fit_power_law runs with
        # scipy unimportable and never tries to import it
        probe = (
            "from sizebias.scaling import fit_power_law\n"
            "fit = fit_power_law([10, 100, 1000, 10000], [3, 8, 20, 70])\n"
            "assert fit.beta_stderr > 0 and 0 < fit.p_value < 1\n"
        )
        run_without_scipy(probe)

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError, match="need at least 3 points, got 2"):
            fit_power_law([10, 100], [2, 5])

    def test_all_sizes_equal_rejected(self):
        with pytest.raises(FitError, match="all sizes are equal"):
            fit_power_law([10, 10, 10], [2, 3, 4])

    def test_zero_h_rejected(self):
        with pytest.raises(FitError, match="h = 0 points cannot be fitted"):
            fit_power_law([10, 100, 1000], [2, 0, 8])

    def test_size_below_one_rejected(self):
        with pytest.raises(FitError, match=r"sizes must be >= 1, got 0\.0"):
            fit_power_law([0, 100, 1000], [2, 5, 8])

    def test_first_bad_point_names_the_error(self):
        # points are checked in order, the size of a point before its h
        with pytest.raises(FitError, match="h = 0"):
            fit_power_law([10, 0.5, 1000], [0, 5, 8])
        with pytest.raises(FitError, match=r"sizes must be >= 1, got 0\.5"):
            fit_power_law([10, 0.5, 1000], [2, 0, 8])
        with pytest.raises(FitError, match="sizes must be >= 1, got nan"):
            fit_power_law([10, math.nan, 1000], [2, 5, 8])

    def test_non_finite_points_rejected(self):
        # an infinite h or size once gave beta nan with r^2 1.0
        with pytest.raises(FitError, match=r"must be finite, got N = 1000\.0, h = inf"):
            fit_power_law([10, 100, 1000], [1, 2, math.inf])
        with pytest.raises(FitError, match=r"must be finite, got N = inf, h = 3\.0"):
            fit_power_law([10, 100, math.inf], [1, 2, 3])
        with pytest.raises(FitError, match=r"must be finite, got N = 100\.0, h = nan"):
            fit_power_law([10, 100, 1000], [1, math.nan, 3])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(FitError, match="equal length"):
            fit_power_law([10, 100, 1000], [2, 5, 8, 9])
        with pytest.raises(FitError, match="equal length"):
            fit_power_law([10, 100, 1000], 5)

    def test_scale_equivariance_in_n(self):
        ns, hs = np.array([12, 87, 330, 4100]), [3.0, 7.5, 12.2, 40.1]
        fit = fit_power_law(ns, hs)
        for c in (10, 250):
            scaled = fit_power_law(ns * c, hs)
            assert scaled.beta == pytest.approx(fit.beta, abs=1e-9)
            assert scaled.log10_prefactor == pytest.approx(
                fit.log10_prefactor - fit.beta * math.log10(c), abs=1e-9
            )

    def test_scale_equivariance_in_h(self):
        ns, hs = [12, 87, 330, 4100], np.array([3.0, 7.5, 12.2, 40.1])
        fit = fit_power_law(ns, hs)
        for c in (10, 3):
            scaled = fit_power_law(ns, hs * c)
            assert scaled.beta == pytest.approx(fit.beta, abs=1e-9)
            assert scaled.log10_prefactor == pytest.approx(
                fit.log10_prefactor + math.log10(c), abs=1e-9
            )

    def test_predict_h(self):
        fit = fit_power_law(*exact_points(beta=0.5, prefactor=3.0, ns=(4, 25, 100)))
        assert fit.predict_h(100) == pytest.approx(30.0, rel=1e-9)
        grid = fit.predict_h(np.array([4.0, 25.0]))
        assert np.allclose(grid, [6.0, 15.0])


def exact_t_tail(t, dof):
    """I_x(dof/2, 1/2), x = dof/(dof + t^2), at 40 digits; None below 1e-300
    or where mpmath does not converge.  The bound I_x(a, 1/2) <= x^a /
    (a B(a, 1/2) sqrt(1 - x)) skips deep tails, where betainc can take seconds."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2
        x = dof / (dof + mpmath.mpf(t) ** 2)
        if x**a / (a * mpmath.beta(a, b) * mpmath.sqrt(1 - x)) < 1e-300:
            return None
        try:
            p = mpmath.betainc(a, b, 0, x, regularized=True)
        except (ValueError, mpmath.libmp.NoConvergence):
            return None
        return p if p >= 1e-300 else None


def test_t_tail_relative_error_against_mpmath_and_stdtr():
    assert _t_tail(0.0, 5) == 1.0 and _t_tail(1e200, 3) == 0.0 and _t_tail(-2.5, 7) == _t_tail(2.5, 7)
    for dof in [*range(1, 121), 200, 500, 1000, 4000, 20_000, 80_000, 160_000]:
        bound = 1e-11 if dof <= 1000 else 1e-9
        for t in [m * 10.0**e for e in range(-6, 5) for m in (1, 3)] + [1e5]:
            got, exact = _t_tail(t, dof), exact_t_tail(t, dof)
            if exact is None:
                assert 0.0 <= got <= 1e-300, (dof, t, got)
                continue
            assert abs(got - exact) <= bound * exact, (dof, t, got, exact)
            # stdtr itself misses the Cauchy tail near t = 0, by 2.8e-11 at 1e-6
            if dof <= 1000 and (dof > 1 or t > 1e-5):
                ref = 2.0 * float(special.stdtr(dof, -t))
                assert abs(got - ref) <= bound * ref, (dof, t, got, ref)


class TestSlopeSignificance:
    def test_exact_power_law_is_significant(self):
        ns = np.unique(np.geomspace(10, 10**4, 30).astype(int))
        fit = fit_power_law(ns, 2.0 * ns**0.4)
        assert fit.p_value < 0.01

    def test_constant_h_is_not_significant(self):
        fit = fit_power_law([10, 100, 1000], [5, 5, 5])
        assert fit.beta == pytest.approx(0.0, abs=1e-12)
        assert not fit.p_value < 0.01


def spread_dataset(seed=4):
    rng = np.random.default_rng(seed)
    sizes = [15, 40, 110, 300, 820, 2200]
    return make_dataset({f"u{i}": rng.integers(0, 60, size=s) for i, s in enumerate(sizes)})


class TestBuildBenchmark:
    def test_per_unit_moments(self):
        ds = spread_dataset()
        result = run_null_model(ds, 6, 40, workers=2)
        bench = build_benchmark(result)
        assert np.allclose(bench.null_mean_h, result.h_samples.mean(axis=0))
        assert np.allclose(bench.null_sd_h, result.h_samples.std(axis=0, ddof=1))
        assert bench.unit_ids == result.unit_ids

    def test_pooled_fit_equals_manual_pooling(self):
        ds = spread_dataset()
        result = run_null_model(ds, 6, 40, workers=2)
        bench = build_benchmark(result)
        points = []
        for row in result.h_samples:
            for n, h in zip(result.productivities, row):
                if h > 0:
                    points.append((float(n), float(h)))
        manual = fit_power_law(*zip(*points))
        assert bench.fit.beta == pytest.approx(manual.beta, abs=1e-12)
        assert bench.fit.n_points == manual.n_points == len(points)

    def test_curve_monotone_when_beta_positive(self):
        ds = spread_dataset()
        result = run_null_model(ds, 6, 40, workers=2)
        bench = build_benchmark(result)
        assert bench.fit.beta > 0
        grid = np.linspace(result.productivities.min(), result.productivities.max(), 50)
        values = bench.fit.predict_h(grid)
        assert np.all(np.diff(values) > 0)

    def test_identical_units_give_flat_benchmark(self):
        rng = np.random.default_rng(12)
        counts = rng.integers(0, 30, size=25).tolist()
        ds = make_dataset({f"u{i}": counts for i in range(5)})
        result = run_null_model(ds, 2, 30, workers=1)
        bench = build_benchmark(result)
        assert bench.fit.beta == 0.0
        expected = bench.fit.predict_h(result.productivities)
        assert np.ptp(expected) == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def samples_result(sizes, h_samples):
        h = np.array(h_samples)
        ids = tuple(f"u{i}" for i in range(len(sizes)))
        return ReshuffleResult(unit_ids=ids, h_samples=h, real_h=h[0].copy(), productivities=np.array(sizes))

    def test_single_size_fit_is_the_mean_log_h(self):
        h = np.array([[3, 5, 0], [4, 7, 2], [6, 1, 5]])
        bench = build_benchmark(self.samples_result([30, 30, 30], h))
        kept = h[h > 0]
        fit = bench.fit
        assert (fit.beta, fit.beta_stderr, fit.p_value, fit.n_points) == (0.0, 0.0, 1.0, kept.size)
        assert fit.log10_prefactor == np.mean(np.log10(kept))
        assert fit.r_squared == 0.0

    def test_single_size_equal_h_fits_exactly(self):
        fit = build_benchmark(self.samples_result([30, 30], [[4, 4], [4, 4]])).fit
        assert (fit.beta, fit.beta_stderr, fit.p_value, fit.n_points) == (0.0, 0.0, 1.0, 4)
        assert fit.log10_prefactor == np.mean(np.log10([4, 4, 4, 4]))
        assert fit.r_squared == 1.0

    def test_two_points_over_two_sizes_fit_a_constant(self):
        # two sizes but only two points with h > 0: too few for a slope
        fit = build_benchmark(self.samples_result([10, 1000], [[2, 0], [0, 9]])).fit
        assert (fit.beta, fit.beta_stderr, fit.p_value, fit.n_points) == (0.0, 0.0, 1.0, 2)
        assert fit.log10_prefactor == np.mean(np.log10([2, 9]))
        assert fit.r_squared == 0.0

    def test_needs_two_replicates(self):
        ds = spread_dataset()
        result = run_null_model(ds, 1, 1, workers=1)
        with pytest.raises(ValueError):
            build_benchmark(result)

    def test_zero_h_points_counted(self):
        # two tiny units over a nearly uncited pool produce h=0 replicates
        ds = make_dataset({"a": [0, 0, 0, 1], "b": [0, 0, 2, 1], "c": [3, 0, 0, 0]})
        result = run_null_model(ds, 3, 25, workers=1)
        bench = build_benchmark(result)
        zeros = int(np.count_nonzero(result.h_samples == 0))
        assert bench.fit.n_points == result.h_samples.size - zeros


def paretian_dataset(seed, units=40, max_size=10000):
    rng = generation_stream(seed)
    sizes = sample_sizes(SizeModel(100, max_size), units, rng)
    return build_synthetic_dataset(sizes, 1.5, rng)


class TestExactBenchmark:
    def test_moments_match_scipy_hypergeometric_tails(self):
        ds = paretian_dataset(1)
        counts = ds.citations
        cap = h_index(counts)
        bench = exact_benchmark(ds)
        k = np.arange(1, cap + 1)
        marked = np.array([np.count_nonzero(counts >= level) for level in k])
        for i, n in enumerate(ds.sizes.tolist()):
            tail = np.where(k <= n, stats.hypergeom.sf(k - 1, counts.size, marked, n), 0.0)
            mean = tail.sum()
            sd = math.sqrt(max(np.sum((2 * k - 1) * tail) - mean**2, 0.0))
            assert bench.null_mean_h[i] == pytest.approx(mean, abs=1e-9)
            assert bench.null_sd_h[i] == pytest.approx(sd, abs=1e-9)
        assert bench.unit_ids == ds.unit_ids

    def test_agrees_with_monte_carlo_within_its_error(self):
        ds = paretian_dataset(2, max_size=3000)
        result = run_null_model(ds, 3, 1000, workers=2)
        mc, exact = build_benchmark(result), exact_benchmark(ds)
        se = mc.null_sd_h / math.sqrt(result.replicates)
        assert np.all(np.abs(exact.null_mean_h - mc.null_mean_h) <= 4 * se + 1e-9)
        assert abs(exact.fit.beta - mc.fit.beta) <= 3 * mc.fit.beta_stderr
        assert exact.fit.beta_stderr == 0.0
        assert exact.fit.p_value == 0.0

    def test_certain_null_h_has_zero_spread(self):
        # every paper is cited, so the one-paper unit always has h = 1
        units = {"solo": [50]} | {uid: [1 + (7 * i) % 30 for i in range(size)] for uid, size in (("a", 8), ("b", 20))}
        bench = exact_benchmark(make_dataset(units))
        assert bench.null_mean_h[0] == 1.0
        assert bench.null_sd_h[0] == 0.0
        assert np.all(bench.null_sd_h[1:] > 0)
        z = normalized_scores([1, 5, 9], bench)["z"]
        assert np.isnan(z[0]) and not np.isnan(z[1:]).any()
        # a unit holding the whole pool has the pool's h for certain
        whole = exact_benchmark(make_dataset({"all": [9, 4, 4, 2, 0]}))
        assert (whole.null_mean_h[0], whole.null_sd_h[0]) == (3.0, 0.0)
        assert whole.fit.beta == 0.0 and whole.fit.log10_prefactor == math.log10(3)

    def test_fit_counts_positive_weight_points(self):
        bench = exact_benchmark(make_dataset({"a": [0, 0, 0, 1], "b": [0, 0, 2, 1], "c": [3, 0, 0, 0, 5, 2]}))
        # pool h is 2: each unit's null h can be 0, 1 or 2
        assert bench.fit.n_points == 6

    def test_pool_without_h_rejected(self):
        with pytest.raises(FitError, match="null h is 0"):
            exact_benchmark(make_dataset({"a": [0, 0], "b": [0]}))

    @pytest.mark.parametrize("seed", range(4))
    def test_size_weights_match_one_point_per_unit_and_level(self, seed):
        # Repeated sizes and an empty unit.  The oracle fits one point per
        # (unit, k) of positive weight P(h = k | N), unit after unit, where
        # exact_benchmark weights each (size, k) by the units of that size.
        rng = np.random.default_rng(seed)
        sizes = [0, *rng.choice([1, 2, 5, 9, 30], size=11).tolist()]
        ds = make_dataset({f"u{i}": rng.integers(0, 12, size=n) for i, n in enumerate(sizes)})
        tails = null_h_tails(ds.cited_at_least, ds.pool_size, sizes)
        points = [
            (math.log10(n), math.log10(k), p)
            for n, tail in zip(sizes, tails.tolist())
            for k, p in enumerate(np.subtract(tail, [*tail[1:], 0.0]).tolist(), 1)
            if p > 0
        ]
        x, y, w = map(np.array, zip(*points))
        x_mean, y_mean = np.sum(w * x) / np.sum(w), np.sum(w * y) / np.sum(w)
        sxx, sxy = np.sum(w * (x - x_mean) ** 2), np.sum(w * (x - x_mean) * (y - y_mean))
        syy = np.sum(w * (y - y_mean) ** 2)
        bench = exact_benchmark(ds)
        assert bench.fit.beta == pytest.approx(sxy / sxx, abs=1e-12)
        assert bench.fit.log10_prefactor == pytest.approx(y_mean - sxy / sxx * x_mean, abs=1e-12)
        assert bench.fit.r_squared == pytest.approx(sxy**2 / (sxx * syy), abs=1e-12)
        assert bench.fit.n_points == len(points)


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
        scores = normalized_scores(result.real_h, bench)
        # real_h was chosen as the exact per-unit null means
        assert np.allclose(bench.null_mean_h, [3.0, 5.0, 8.0])
        assert scores["z"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_columns_match_per_unit_formulas(self):
        result, bench = manual_result_and_benchmark()
        scores = normalized_scores(result.real_h, bench)
        assert list(scores) == ["h_hat", "ratio", "z", "log_residual"]
        for i, n in enumerate(result.productivities.tolist()):
            real, h_hat = int(result.real_h[i]), float(scores["h_hat"][i])
            assert h_hat == pytest.approx(float(bench.fit.predict_h(n)), rel=1e-15)
            assert scores["ratio"][i] == real / h_hat
            assert scores["z"][i] == (real - float(bench.null_mean_h[i])) / float(bench.null_sd_h[i])
            assert scores["log_residual"][i] == math.log10(real / h_hat)

    def test_ratio_and_log_residual_on_curve(self):
        fit = fit_power_law([10, 100, 1000, 10000], [2.0, 4.0, 8.0, 16.0])
        bench = Benchmark(
            unit_ids=("a",),
            productivities=np.array([100]),
            null_mean_h=np.array([4.0]),
            null_sd_h=np.array([1.0]),
            fit=fit,
        )
        result = ReshuffleResult(
            unit_ids=("a",),
            h_samples=np.array([[4], [4]], dtype=np.int64),
            real_h=np.array([4], dtype=np.int64),
            productivities=np.array([100], dtype=np.int64),
        )
        scores = normalized_scores(result.real_h, bench)
        assert scores["ratio"][0] == pytest.approx(1.0, rel=1e-9)
        assert scores["log_residual"][0] == pytest.approx(0.0, abs=1e-9)

    def test_sd_zero_gives_nan_z(self):
        result = ReshuffleResult(
            unit_ids=("a", "b"),
            h_samples=np.array([[2, 3], [2, 5]], dtype=np.int64),
            real_h=np.array([2, 4], dtype=np.int64),
            productivities=np.array([5, 500], dtype=np.int64),
        )
        bench = build_benchmark(result)
        z = normalized_scores(result.real_h, bench)["z"]
        assert np.isnan(z[0])
        assert np.isfinite(z[1])

    def test_zero_real_h_gives_minus_infinite_log_residual(self):
        result = ReshuffleResult(
            unit_ids=("a", "b", "c"),
            h_samples=np.array([[1, 2, 3], [2, 3, 4]], dtype=np.int64),
            real_h=np.array([0, 2, 3], dtype=np.int64),
            productivities=np.array([10, 100, 1000], dtype=np.int64),
        )
        bench = build_benchmark(result)
        scores = normalized_scores(result.real_h, bench)
        assert scores["log_residual"][0] == -math.inf
        assert scores["ratio"][0] == 0.0

    def test_unit_without_publications_rejected(self):
        bench = exact_benchmark(make_dataset({"a": [3, 1, 2, 5], "b": [0, 4, 1], "e": []}))
        with pytest.raises(ValueError, match="without publications.*'e'"):
            normalized_scores([3, 1, 0], bench)

    def test_foreign_benchmark_rejected(self):
        # real h of a dataset with other units cannot line up with the benchmark
        result, bench = manual_result_and_benchmark()
        for other in (result.real_h[:2], np.append(result.real_h, 4), result.real_h[None, :]):
            with pytest.raises(ValueError, match="one real h for each of the 3 benchmark units"):
                normalized_scores(other, bench)

    def test_self_consistency_log_residual_centered(self):
        # the real data IS one null draw: residuals must center near zero
        ds = spread_dataset(seed=44)
        from sizebias.nullmodel import replicate_stream, reshuffled_dataset

        draw = reshuffled_dataset(ds, replicate_stream(90, 10**6))
        result = run_null_model(draw, 91, 200, workers=2)
        bench = build_benchmark(result)
        log_residual = normalized_scores(result.real_h, bench)["log_residual"]
        assert abs(float(np.mean(log_residual))) < 0.05


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

    @given(
        st.lists(
            st.one_of(st.just(-math.inf), st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]), st.floats(-1e6, 1e6)),
            max_size=60,
        )
    )
    def test_competition_ranks_match_scipy_min_ranks(self, values):
        # -inf is what the benchmark command ranks an undefined z as
        expected = stats.rankdata(-np.asarray(values, dtype=float), method="min").tolist()
        assert competition_ranks(values) == expected

    def test_order_by_ratio(self):
        assert competition_ranks(np.array([0.8, 1.2])) == [2, 1]

    def test_all_tied_rank_one(self):
        assert competition_ranks(np.ones(3)) == [1, 1, 1]

    def test_undefined_z_ranks_last(self):
        z = np.array([np.nan, -3.0, 1.0])
        assert competition_ranks(np.where(np.isnan(z), -np.inf, z)) == [3, 2, 1]

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(55)
        ratio = rng.uniform(0.2, 3, size=12)
        assert competition_ranks(ratio) == competition_ranks(np.exp(2.0 * ratio + 1.0))
        assert set(RANKING_KEYS) == {"ratio", "z"}

    def test_normalization_changes_order_on_size_heterogeneous_data(self):
        ds = spread_dataset(seed=77)
        result = run_null_model(ds, 5, 60, workers=2)
        bench = build_benchmark(result)
        scores = normalized_scores(result.real_h, bench)
        assert competition_ranks(result.real_h) != competition_ranks(scores["ratio"])
