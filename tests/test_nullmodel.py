"""Reshuffling engine: conservation, determinism, and rank statistics."""

import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import sizebias.nullmodel
from conftest import make_dataset, unit_citations
from sizebias.combinatorics import PoolSpec, hypergeom_pmf
from sizebias.model import MAX_CITATIONS, h_from_tally, h_index
from sizebias.nullmodel import (
    ReshuffleResult,
    _row_average_ranks,
    null_h_tails,
    null_marginals,
    replicate_stream,
    reshuffled_dataset,
    resolve_workers,
    run_null_model,
)
from sizebias.scaling import FitError, exact_benchmark
from sizebias.synth import SizeModel, build_synthetic_dataset, generation_stream, sample_sizes


def toy_dataset():
    return make_dataset({"a": [12, 7, 3, 0], "b": [5, 5], "c": [30, 2, 2, 1, 0, 0]})


def random_dataset(seed, units=8, max_size=60):
    rng = np.random.default_rng(seed)
    made = {f"u{i}": rng.integers(0, 50, size=int(rng.integers(1, max_size))) for i in range(units)}
    return make_dataset(made)


def sorted_block_h(blocks):
    """h of every row of a (rows, size) matrix by the sort-based definition."""
    desc = -np.sort(-blocks, axis=1)
    return np.count_nonzero(desc >= np.arange(1, blocks.shape[1] + 1), axis=1)


def reference_null_h_tails(pool_counts, sizes):
    """Oracle: null_h_tails as it was before it skipped the certain and the
    impossible levels, which builds a pmf at every level k = 1..min(N, H) of
    every size, each padded to its size's widest window, as a list of rows."""
    cap = h_index(pool_counts)
    tally = np.bincount(np.minimum(pool_counts, cap).astype(np.int64), minlength=cap + 1)
    marked = np.cumsum(tally[::-1])[::-1][1:].astype(float)  # K_k, k = 1..H
    total = float(pool_counts.size)
    tails = []
    for size in sizes:
        n = float(size)
        k = np.arange(1, min(int(size), cap) + 1)
        K = marked[: k.size, None]
        mean = n * K / total
        sd = np.sqrt(mean * (1.0 - K / total) * (total - n) / max(total - 1.0, 1.0))
        lo = np.maximum(np.maximum(0.0, n + K - total), np.floor(mean - 12.0 * sd - 12.0))
        hi = np.minimum(np.minimum(n, K), np.ceil(mean + 12.0 * sd + 12.0))
        x = lo + np.arange(int((hi - lo).max(initial=0)) + 1)
        step = x < hi
        ratio = np.log(np.where(step, (K - x) * (n - x), 1.0)) - np.log(  # log pmf(x + 1) - log pmf(x)
            np.where(step, (x + 1.0) * (total - K - n + x + 1.0), 1.0)
        )
        log_pmf = np.cumsum(ratio, axis=1) - ratio  # log pmf(x) - log pmf(lo)
        weight = np.where(x <= hi, np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True)), 0.0)
        tails.append(np.where(x >= k[:, None], weight, 0.0).sum(axis=1) / weight.sum(axis=1))
    return tails


class TestStreams:
    def test_same_key_same_stream(self):
        a = replicate_stream(42, 3).random(10)
        b = replicate_stream(42, 3).random(10)
        assert np.array_equal(a, b)

    def test_replicate_index_changes_stream(self):
        a = replicate_stream(42, 0).random(10)
        b = replicate_stream(42, 1).random(10)
        assert not np.array_equal(a, b)

    def test_master_seed_changes_stream(self):
        a = replicate_stream(1, 0).random(10)
        b = replicate_stream(2, 0).random(10)
        assert not np.array_equal(a, b)


class TestPoolAndBlocks:
    def test_pool_is_ordered_concatenation(self):
        counts = toy_dataset().citations
        assert counts.dtype == np.uint64
        assert counts.tolist() == [12, 7, 3, 0, 5, 5, 30, 2, 2, 1, 0, 0]

    def test_blocks_preserve_multiset_and_sizes(self):
        ds = random_dataset(5)
        counts, prods = ds.citations, ds.sizes
        for r in range(20):
            blocks = unit_citations(reshuffled_dataset(ds, replicate_stream(7, r)))
            assert [len(b) for b in blocks] == prods.tolist()
            merged = np.concatenate(blocks)
            assert merged.size == counts.size
            assert int(merged.astype(object).sum()) == int(counts.astype(object).sum())
            assert np.array_equal(np.sort(merged), np.sort(counts))

    def test_reshuffled_dataset_preserves_structure(self):
        ds = toy_dataset()
        shuffled = reshuffled_dataset(ds, replicate_stream(3, 0))
        assert (shuffled.unit_ids, shuffled.unit_names) == (ds.unit_ids, ds.unit_names)
        assert shuffled.sizes.tolist() == ds.sizes.tolist()
        assert sorted(shuffled.citations.tolist()) == sorted(ds.citations.tolist())


class TestHFromTally:
    """`h_from_tally` sweeps the levels upward in blocks of 32; the oracle
    sorts the papers each row tallies."""

    @staticmethod
    def check(tally):
        # row b's papers: tally[b, k] of them cited k times, zero-padded to one width
        papers = [np.repeat(np.arange(tally.shape[1]), row) for row in tally]
        width = max(1, *(p.size for p in papers))
        h = h_from_tally(tally)
        assert h.tolist() == sorted_block_h(np.array([np.pad(p, (0, width - p.size)) for p in papers])).tolist()
        return h

    @pytest.mark.parametrize("levels", [1, 2, 31, 32, 33, 34, 64, 65, 66, 132])
    def test_matches_sorted_block_h(self, levels):
        rng = np.random.default_rng(levels)
        # rows of every density, so that h ends in every block
        tally = rng.integers(0, 4, size=(80, levels)) * (rng.random((80, levels)) < rng.random((80, 1)))
        tally[0] = 0
        tally[1, -1] = levels - 1  # enough papers at the last level to fill it
        h = self.check(tally)
        assert h[0] == 0 and h[1] == levels - 1

    @given(hnp.arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 70)), elements=st.integers(0, 5)))
    @example(np.zeros((3, 1), dtype=np.int64))
    @example(np.zeros((3, 33), dtype=np.int64))
    def test_property(self, tally):
        self.check(tally)


class TestRunNullModel:
    def test_shapes_and_real_h(self):
        ds = toy_dataset()
        result = run_null_model(ds, 5, 17, workers=1)
        assert result.unit_ids == ("a", "b", "c")
        assert result.h_samples.shape == (17, 3)
        assert result.real_h.tolist() == [h_index(c) for c in unit_citations(ds)]
        assert result.productivities.tolist() == [4, 2, 6]
        assert result.replicates == 17

    def test_joint_h_matches_exact_permute_and_cut_pmf(self):
        # Every one of the 9! orders of this pool, cut into blocks of the
        # units' sizes, gives the exact pmf of the joint h vector.
        units = [[0, 4, 1], [2, 2], [0, 0, 3, 1]]
        counts = np.array([c for unit in units for c in unit], dtype=np.int64)
        orders = np.fromiter(
            itertools.chain.from_iterable(itertools.permutations(range(counts.size))),
            dtype=np.int8,
            count=math.factorial(counts.size) * counts.size,
        ).reshape(-1, counts.size)
        blocks = np.split(counts[orders], np.cumsum([len(u) for u in units])[:-1], axis=1)
        h = np.stack([sorted_block_h(b) for b in blocks], axis=1)
        vectors, exact = np.unique(h, axis=0, return_counts=True)
        assert len(vectors) == 11

        ds = make_dataset({f"u{i}": c for i, c in enumerate(units)})
        replicates = 20_000
        samples = run_null_model(ds, 2024, replicates, workers=1).h_samples
        observed = np.array([np.all(samples == v, axis=1).sum() for v in vectors])
        assert observed.sum() == replicates  # no row outside the exact support
        expected = exact * replicates / exact.sum()
        assert expected.min() >= 5  # the chi-square approximation holds
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_unit_means_match_permute_and_cut_oracle(self):
        # A Pareto (alpha = 1.5) pool dealt to units best-cited first, so a
        # sampler that kept papers near their own unit would shift the means.
        rng = generation_stream(31)
        sizes = sample_sizes(SizeModel(20, 400), 12, rng)
        pooled = np.sort(build_synthetic_dataset(sizes, 1.5, rng).citations)[::-1]
        cuts = np.split(pooled, np.cumsum(sizes)[:-1])
        ds = make_dataset({f"u{i}": c for i, c in enumerate(cuts)})
        replicates = 600
        fast = run_null_model(ds, 5, replicates, workers=1).h_samples
        oracle = np.array(
            [
                [h_index(b) for b in unit_citations(reshuffled_dataset(ds, replicate_stream(6, r)))]
                for r in range(replicates)
            ]
        )
        diff = fast.mean(axis=0) - oracle.mean(axis=0)
        se = np.sqrt((fast.var(axis=0, ddof=1) + oracle.var(axis=0, ddof=1)) / replicates)
        assert np.all(se > 0)
        assert np.max(np.abs(diff / se)) < 4.0  # 12 units: P(any |z| >= 4) is about 1e-3 under equality

    @pytest.mark.parametrize("workers", [1, 2])
    @given(
        units=st.lists(
            st.lists(st.integers(0, 12) | st.integers(MAX_CITATIONS - 3, MAX_CITATIONS), max_size=12),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**64 - 1),
        replicates=st.integers(1, 4),
    )
    @example(units=[[0, 0, 0], [], [0]], seed=0, replicates=3)  # all-zero pool, an empty unit
    @example(units=[[], []], seed=1, replicates=2)  # no publications at all
    @example(units=[[MAX_CITATIONS, 5, 1, MAX_CITATIONS - 1]], seed=2, replicates=2)  # a single unit
    def test_matches_permute_and_cut_oracle(self, workers, units, seed, replicates):
        # Rows need not equal permute-and-cut on the same stream, only obey
        # what every permute-and-cut row obeys exactly.
        ds = make_dataset({f"u{i}": c for i, c in enumerate(units)})
        result = run_null_model(ds, seed, replicates, workers=workers)
        assert result.real_h.tolist() == [h_index(c) for c in units]
        assert np.array_equal(run_null_model(ds, seed, replicates, workers=1).h_samples, result.h_samples)
        pool_h = h_index(ds.citations)
        assert np.all(result.h_samples >= 0)
        assert np.all(result.h_samples <= np.minimum([len(c) for c in units], pool_h))
        if len(units) == 1:  # the block is the whole pool
            assert np.all(result.h_samples == pool_h)
        if pool_h == 0:  # all-zero or empty pool
            assert not result.h_samples.any()
        # Capped at the pool size, which no block's h can exceed, so the counts fit int64.
        counts = np.minimum(ds.citations, ds.citations.size).astype(np.int64)
        if counts.size <= 7:  # small enough to enumerate every permute-and-cut order
            orders = np.array(list(itertools.permutations(range(counts.size))), dtype=np.int64)
            cuts = np.cumsum([len(c) for c in units])[:-1]
            blocks = np.split(counts[orders.reshape(math.factorial(counts.size), counts.size)], cuts, axis=1)
            support = {tuple(v) for v in np.stack([sorted_block_h(b) for b in blocks], axis=1).tolist()}
            assert {tuple(row) for row in result.h_samples.tolist()} <= support

    def test_worker_count_does_not_change_results(self):
        ds = random_dataset(2)
        reference = run_null_model(ds, 13, 25, workers=1).h_samples
        for workers in (2, 5, 8):
            assert np.array_equal(run_null_model(ds, 13, 25, workers=workers).h_samples, reference)

    def test_seed_changes_samples(self):
        ds = random_dataset(3, units=10, max_size=80)
        a = run_null_model(ds, 1, 5, workers=1)
        b = run_null_model(ds, 2, 5, workers=1)
        assert not np.array_equal(a.h_samples, b.h_samples)

    def test_samples_read_only(self):
        result = run_null_model(toy_dataset(), 0, 3, workers=1)
        with pytest.raises(ValueError):
            result.h_samples[0, 0] = 99

    def test_config_validation(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            run_null_model(ds, 1, 0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64 unsigned bits"):
                run_null_model(ds, seed, 5)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert resolve_workers(None) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
        assert resolve_workers(None) == 8
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_workers(None) == 5


class TestNullHTails:
    @given(st.lists(st.integers(0, 8), max_size=14))
    @example([])  # empty pool
    @example([4])  # single paper
    @example([0, 0, 0])  # nothing cited
    @example([6, 6, 6, 6, 6])  # every paper cited, h certain for every size
    def test_match_exact_urn_and_every_draw(self, counts):
        m, cap = len(counts), h_index(counts)
        pool = np.array(counts, dtype=np.uint64)
        tails = null_h_tails(pool, range(m + 1))
        assert tails.shape == (m + 1, cap)
        for n, (tail, reference) in enumerate(zip(tails, reference_null_h_tails(pool, range(m + 1)), strict=True)):
            assert reference.shape == (min(n, cap),)
            assert np.all(np.abs(tail[: reference.size] - reference) <= 1e-15)
            assert np.all(tail[n:] == 0.0)  # h >= k > N is impossible
            if m <= 8:
                # the claim itself: P(h >= k) over every equally likely block
                drawn = [
                    sum(c >= r for r, c in enumerate(sorted((counts[i] for i in block), reverse=True), 1))
                    for block in itertools.combinations(range(m), n)
                ]
                for k in range(1, cap + 1):
                    assert tail[k - 1] == pytest.approx(sum(h >= k for h in drawn) / len(drawn), abs=1e-12)
            for k in range(1, cap + 1):
                marked = sum(c >= k for c in counts)
                spec = PoolSpec(black=marked, white=m - marked)
                exact = math.fsum(hypergeom_pmf(spec, n, x) for x in range(k, n + 1))
                assert tail[k - 1] == pytest.approx(exact, abs=1e-14)
                # certain and impossible events are exact
                if max(0, n + marked - m) >= k:
                    assert tail[k - 1] == 1.0
                if min(n, marked) < k:
                    assert tail[k - 1] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_mid_size_pools_match_exact_urn(self, seed):
        # 100-400 papers: windows of a few dozen points, against sums of
        # correctly rounded exact pmfs
        rng = np.random.default_rng(seed)
        counts = np.floor(rng.pareto(1.2, size=int(rng.integers(100, 401))) * 3).astype(np.uint64)
        m, cap = counts.size, h_index(counts)
        sizes = sorted(rng.choice(m + 1, size=6, replace=False).tolist())
        for n, tail in zip(sizes, null_h_tails(counts, sizes), strict=True):
            for k in range(1, cap + 1):
                marked = int(np.count_nonzero(counts >= k))
                spec = PoolSpec(black=marked, white=m - marked)
                exact = math.fsum(hypergeom_pmf(spec, n, x) for x in range(k, min(n, marked) + 1))
                assert abs(tail[k - 1] - exact) <= 1e-14

    def test_large_pool_matches_scipy(self):
        rng = np.random.default_rng(8)
        counts = np.floor(rng.pareto(1.2, size=60_000) * 3).astype(np.uint64)
        sizes = [1, 7, 150, 2_000, 30_000, 59_999, 60_000]
        cap = h_index(counts)
        k = np.arange(1, cap + 1)
        marked = np.array([np.count_nonzero(counts >= level) for level in k])
        tails = null_h_tails(counts, sizes)
        assert tails.shape == (len(sizes), cap)
        for n, tail in zip(sizes, tails):
            expected = stats.hypergeom.sf(k - 1, counts.size, marked, n)
            assert np.max(np.abs(tail - expected)) < 1e-12
            assert np.all(tail[n:] == 0.0)

    @pytest.mark.parametrize(
        "sizes",
        [
            np.random.default_rng(40).integers(100, 10_001, size=40),  # 40 sizes uniform on 100..10000
            # the 303 distinct sizes among 4000 quantiles of a power law on 20..2000
            np.unique(np.rint((20**-1.5 - np.linspace(0, 1, 4000) * (20**-1.5 - 2000**-1.5)) ** (-1 / 1.5))),
        ],
        ids=["40-uniform", "power-law"],
    )
    def test_agrees_with_reference_on_a_large_pool(self, sizes):
        # 200k Pareto (alpha = 1.5) citation counts, as the benchmark inputs draw them
        rng = np.random.default_rng(12)
        counts = np.floor((1.0 - rng.random(200_000)) ** (-1 / 1.5) - 1.0).astype(np.uint64)
        sizes = sizes.astype(int).tolist()
        tails = null_h_tails(counts, sizes)
        for tail, reference in zip(tails, reference_null_h_tails(counts, sizes), strict=True):
            assert np.max(np.abs(tail[: reference.size] - reference)) <= 1e-15
            assert np.all(tail[reference.size :] == 0.0)
        # each window is summed at its own width, so a size's row does not
        # depend on which other sizes share the call
        for j in range(0, len(sizes), 7):
            assert np.array_equal(null_h_tails(counts, [sizes[j]])[0], tails[j])

    @pytest.mark.parametrize("points_per_pass", [1, 64, sizebias.nullmodel._WINDOW_POINTS_PER_PASS, 2**40])
    def test_passes_do_not_change_a_bit(self, monkeypatch, points_per_pass):
        # 60 sizes of a 20k-paper pool: tens of thousands of window points in
        # all, so the groups span many passes at small caps, and one at 2**40
        rng = np.random.default_rng(5)
        counts = np.floor((1.0 - rng.random(20_000)) ** (-1 / 1.5) - 1.0).astype(np.uint64)
        sizes = np.unique(rng.integers(1, 20_001, size=60)).tolist()
        by_size = [null_h_tails(counts, [n])[0] for n in sizes]
        monkeypatch.setattr(sizebias.nullmodel, "_WINDOW_POINTS_PER_PASS", points_per_pass)
        tails = null_h_tails(counts, sizes)
        assert all(np.array_equal(row, alone) for row, alone in zip(tails, by_size, strict=True))

    def test_size_outside_the_pool_rejected(self):
        counts = np.array([5, 5], dtype=np.uint64)
        for size in (-1, 3):
            with pytest.raises(ValueError, match=f"block size {size} is outside 0..2"):
                null_h_tails(counts, [size])
        assert null_h_tails(counts, [0, 2]).tolist() == [[0.0, 0.0], [1.0, 1.0]]


def enumerated_h(counts, n):
    """The h of every one of the equally likely n-paper blocks of `counts`."""
    return [
        sum(c >= r for r, c in enumerate(sorted((counts[i] for i in block), reverse=True), 1))
        for block in itertools.combinations(range(len(counts)), n)
    ]


class TestNullMarginals:
    def test_match_full_subset_enumeration(self):
        # 200 pools of 3-8 papers, each cut into 1-4 units of any size, 0 included
        rng = np.random.default_rng(21)
        for _ in range(200):
            counts = rng.integers(0, 9, size=int(rng.integers(3, 9))).tolist()
            cuts = np.sort(rng.integers(0, len(counts) + 1, size=int(rng.integers(0, 4))))
            blocks = np.split(np.array(counts), cuts)
            null = null_marginals(make_dataset({f"u{i}": b.tolist() for i, b in enumerate(blocks)}))
            for i, block in enumerate(blocks):
                drawn = enumerated_h(counts, block.size)
                mean = Fraction(sum(drawn), len(drawn))
                var = Fraction(sum(h * h for h in drawn), len(drawn)) - mean**2
                assert null.mean_h[i] == pytest.approx(float(mean), abs=1e-12)
                assert null.sd_h[i] == pytest.approx(math.sqrt(var), abs=1e-7)
                for q in (0.025, 0.975):
                    # the smallest k with P(h <= k) >= q, in exact arithmetic
                    exact_q = Fraction(q).limit_denominator(1000)
                    expected = min(k for k in drawn if Fraction(sum(h <= k for h in drawn), len(drawn)) >= exact_q)
                    assert null.quantile_h(q)[i] == expected

    def test_unit_of_size_zero_has_h_zero(self):
        null = null_marginals(make_dataset({"empty": [], "a": [3, 1, 4], "b": [2, 0]}))
        assert null.mean_h[0] == null.sd_h[0] == 0.0
        assert null.quantile_h(0.025)[0] == null.quantile_h(0.975)[0] == 0
        assert np.all(null.mean_h[1:] > 0)

    def test_uncited_pool_has_h_zero_everywhere(self):
        dataset = make_dataset({"a": [0, 0, 0], "b": [0]})
        null = null_marginals(dataset)
        assert null.tails.shape == (2, 0)
        assert null.mean_h.tolist() == null.sd_h.tolist() == [0.0, 0.0]
        assert null.quantile_h(0.025).tolist() == null.quantile_h(0.975).tolist() == [0, 0]
        with pytest.raises(FitError):
            exact_benchmark(dataset)


class TestResultValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReshuffleResult(
                unit_ids=("a", "b"),
                h_samples=np.zeros((3, 3), dtype=np.int64),
                real_h=np.zeros(2, dtype=np.int64),
                productivities=np.ones(2, dtype=np.int64),
            )


def result_of(real, *rows, units=None):
    """A result with the given real h vector and replicate rows."""
    real = np.asarray(real, dtype=np.int64)
    units = real.size if units is None else units
    return ReshuffleResult(
        unit_ids=tuple(f"u{i}" for i in range(units)),
        h_samples=np.array(rows, dtype=np.int64).reshape(len(rows), units),
        real_h=real,
        productivities=np.ones(units, dtype=np.int64),
    )


def naive_spearman_mean(real, rows):
    """Reference: the mean of scipy's per-replicate Spearman coefficients."""
    return float(np.mean([stats.spearmanr(real, row).statistic for row in rows]))


class TestSpearman:
    """`ReshuffleResult.mean_spearman_vs_real`: Spearman's rho of each
    replicate row against the real h vector, averaged over replicates."""

    def test_perfect_and_reversed(self):
        assert result_of([1, 2, 3, 4], [10, 20, 30, 40]).mean_spearman_vs_real == pytest.approx(1.0)
        assert result_of([1, 2, 3, 4], [40, 30, 20, 10]).mean_spearman_vs_real == pytest.approx(-1.0)
        both = result_of([1, 2, 3, 4], [10, 20, 30, 40], [40, 30, 20, 10])
        assert both.mean_spearman_vs_real == pytest.approx(0.0, abs=1e-12)

    @given(
        st.integers(3, 40).flatmap(
            lambda n: st.tuples(
                hnp.arrays(np.int64, n, elements=st.integers(0, 6)),
                hnp.arrays(np.int64, st.tuples(st.integers(1, 6), st.just(n)), elements=st.integers(0, 6)),
            )
        )
    )
    def test_matches_scipy_with_ties(self, data):
        real, rows = data
        assume(not np.all(real == real[0]))
        assume(not np.any(np.all(rows == rows[:, :1], axis=1)))
        result = result_of(real, *rows)
        assert result.mean_spearman_vs_real == pytest.approx(naive_spearman_mean(real, rows), abs=1e-12)

    @given(
        hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 8), st.integers(1, 40)),
            elements=st.one_of(st.integers(0, 4), st.integers(-(2**40), 2**40)),
        )
    )
    def test_row_average_ranks_match_scipy(self, a):
        # heavily tied rows, ranked in one pass as scipy ranks each row
        ranks = _row_average_ranks(a)
        expected = stats.rankdata(a, axis=1)
        assert ranks.dtype == expected.dtype
        assert np.array_equal(ranks, expected)

    def test_constant_input_rejected(self):
        # undefined: a constant real vector, or any constant replicate row
        for result in (
            result_of([1, 1, 1], [1, 2, 3]),
            result_of([1, 2, 3], [5, 5, 5]),
            result_of([1, 2, 3], [3, 1, 2], [5, 5, 5], [1, 2, 3]),
        ):
            assert result.mean_spearman_vs_real is None and result.mean_spearman_se is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            result_of([1, 2], [1, 2, 3], units=3)

    def test_too_short_rejected(self):
        for result in (result_of([1], [2]), result_of([], [], [], units=0)):
            assert result.mean_spearman_vs_real is None and result.mean_spearman_se is None

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 4, size=n)
            rows = rng.integers(0, 4, size=(int(rng.integers(1, 5)), n))
            if np.all(x == x[0]) or np.any(np.all(rows == rows[:, :1], axis=1)):
                continue
            assert -1.0 <= result_of(x, *rows).mean_spearman_vs_real <= 1.0


def manual_result():
    return ReshuffleResult(
        unit_ids=("a", "b", "c", "d"),
        h_samples=np.array([[1, 2, 3, 4], [4, 3, 2, 1], [2, 1, 4, 3]], dtype=np.int64),
        real_h=np.array([1, 2, 3, 4], dtype=np.int64),
        productivities=np.array([10, 20, 30, 40], dtype=np.int64),
    )


class TestRankAgreement:
    def test_mean_spearman_vs_real_matches_scipy(self):
        result = manual_result()
        expected = np.mean(
            [stats.spearmanr(result.real_h, row).statistic for row in result.h_samples]
        )
        assert result.mean_spearman_vs_real == pytest.approx(float(expected), abs=1e-12)

    def test_standard_error_matches_scipy(self):
        result = manual_result()
        rho = [stats.spearmanr(result.real_h, row).statistic for row in result.h_samples]
        expected = np.std(rho, ddof=1) / math.sqrt(len(rho))
        assert result.mean_spearman_se == pytest.approx(float(expected), abs=1e-12)

    def test_standard_error_needs_two_replicates(self):
        assert result_of([1, 2, 3], [3, 1, 2]).mean_spearman_se is None
        assert result_of([1, 2, 3], [1, 2, 3], [1, 2, 3]).mean_spearman_se == 0.0
        assert result_of([1, 2, 3], [3, 1, 2], [5, 5, 5]).mean_spearman_se is None

    def test_replicates_are_ranked_once_per_result(self, monkeypatch):
        calls = []
        rank = sizebias.nullmodel._row_average_ranks
        monkeypatch.setattr(sizebias.nullmodel, "_row_average_ranks", lambda a: calls.append(a.shape) or rank(a))
        result = manual_result()
        for _ in range(2):
            result.mean_spearman_vs_real
            result.mean_spearman_se
        assert calls == [(4, 4)]
        with pytest.raises(ValueError, match="read-only"):  # one array serves every caller
            result._spearman_coefficients[0] = 0.0

    def test_null_model_pipeline_agreement_is_high_for_size_spread(self):
        # strongly size-heterogeneous units: size alone orders the null ranking
        rng = np.random.default_rng(3)
        ds = make_dataset({f"u{i}": rng.integers(0, 40, size=size) for i, size in enumerate([10, 40, 160, 640, 2560])})
        result = run_null_model(ds, 8, 50, workers=2)
        assert result.mean_spearman_vs_real > 0.5
