"""Reshuffling engine: conservation, determinism, and rank statistics."""

import os

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from sizebias.model import MAX_CITATIONS, Dataset, Unit, group_h_index, h_index
from sizebias.nullmodel import (
    ReshuffleConfig,
    ReshuffleResult,
    mean_spearman_vs_real,
    pool,
    replicate_stream,
    reshuffle_blocks,
    reshuffled_dataset,
    resolve_workers,
    run_null_model,
)


def make_unit(uid, citations):
    return Unit(id=uid, name=uid.upper(), citations=citations)


def toy_dataset():
    return Dataset(
        name="toy",
        units=(
            make_unit("a", [12, 7, 3, 0]),
            make_unit("b", [5, 5]),
            make_unit("c", [30, 2, 2, 1, 0, 0]),
        ),
    )


def random_dataset(seed, units=8, max_size=60):
    rng = np.random.default_rng(seed)
    made = []
    for i in range(units):
        size = int(rng.integers(1, max_size))
        made.append(make_unit(f"u{i}", rng.integers(0, 50, size=size).tolist()))
    return Dataset(name=f"rand{seed}", units=tuple(made))


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
        ds = toy_dataset()
        counts = pool(ds)
        assert counts.dtype == np.uint64
        assert counts.tolist() == [12, 7, 3, 0, 5, 5, 30, 2, 2, 1, 0, 0]

    def test_blocks_preserve_multiset_and_sizes(self):
        ds = random_dataset(5)
        counts = pool(ds)
        prods = np.array([u.productivity for u in ds.units])
        for r in range(20):
            blocks = reshuffle_blocks(counts, prods, replicate_stream(7, r))
            assert [len(b) for b in blocks] == prods.tolist()
            merged = np.concatenate(blocks)
            assert merged.size == counts.size
            assert int(merged.astype(object).sum()) == int(counts.astype(object).sum())
            assert np.array_equal(np.sort(merged), np.sort(counts))

    def test_bad_productivities_rejected(self):
        counts = np.array([1, 2, 3], dtype=np.uint64)
        with pytest.raises(ValueError):
            reshuffle_blocks(counts, np.array([2, 2]), replicate_stream(0, 0))
        with pytest.raises(ValueError):
            reshuffle_blocks(counts, np.array([4, -1]), replicate_stream(0, 0))

    def test_null_model_row_is_h_of_blocks(self):
        ds = random_dataset(9)
        counts = pool(ds)
        prods = np.array([u.productivity for u in ds.units])
        hs = run_null_model(ds, ReshuffleConfig(master_seed=11, replicates=5), workers=1).h_samples[4]
        blocks = reshuffle_blocks(counts, prods, replicate_stream(11, 4))
        assert hs.tolist() == [h_index(b) for b in blocks]

    def test_reshuffled_dataset_preserves_structure(self):
        ds = toy_dataset()
        shuffled = reshuffled_dataset(ds, replicate_stream(3, 0))
        assert shuffled.name == "toy-reshuffled"
        assert [u.id for u in shuffled.units] == [u.id for u in ds.units]
        assert [u.productivity for u in shuffled.units] == [u.productivity for u in ds.units]
        assert sorted(pool(shuffled).tolist()) == sorted(pool(ds).tolist())


class TestRunNullModel:
    def test_shapes_and_real_h(self):
        ds = toy_dataset()
        result = run_null_model(ds, ReshuffleConfig(master_seed=5, replicates=17), workers=1)
        assert result.unit_ids == ("a", "b", "c")
        assert result.h_samples.shape == (17, 3)
        assert result.real_h.tolist() == [group_h_index(u) for u in ds.units]
        assert result.productivities.tolist() == [4, 2, 6]
        assert result.replicates == 17

    def test_rows_match_per_replicate_streams(self):
        ds = random_dataset(1)
        counts = pool(ds)
        prods = np.array([u.productivity for u in ds.units])
        result = run_null_model(ds, ReshuffleConfig(master_seed=77, replicates=12), workers=4)
        for r in range(12):
            expected = [h_index(b) for b in reshuffle_blocks(counts, prods, replicate_stream(77, r))]
            assert result.h_samples[r].tolist() == expected

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
        ds = Dataset(name="prop", units=tuple(make_unit(f"u{i}", c) for i, c in enumerate(units)))
        counts = pool(ds)
        prods = np.array([len(c) for c in units], dtype=np.int64)
        result = run_null_model(ds, ReshuffleConfig(master_seed=seed, replicates=replicates), workers=workers)
        assert result.real_h.tolist() == [h_index(c) for c in units]
        for r in range(replicates):
            blocks = reshuffle_blocks(counts, prods, replicate_stream(seed, r))
            assert result.h_samples[r].tolist() == [h_index(b) for b in blocks]

    def test_worker_count_does_not_change_results(self):
        ds = random_dataset(2)
        config = ReshuffleConfig(master_seed=13, replicates=25)
        reference = run_null_model(ds, config, workers=1).h_samples
        for workers in (2, 5, 8):
            assert np.array_equal(run_null_model(ds, config, workers=workers).h_samples, reference)

    def test_seed_changes_samples(self):
        ds = random_dataset(3, units=10, max_size=80)
        a = run_null_model(ds, ReshuffleConfig(master_seed=1, replicates=5), workers=1)
        b = run_null_model(ds, ReshuffleConfig(master_seed=2, replicates=5), workers=1)
        assert not np.array_equal(a.h_samples, b.h_samples)

    def test_samples_read_only(self):
        result = run_null_model(toy_dataset(), ReshuffleConfig(master_seed=0, replicates=3), workers=1)
        with pytest.raises(ValueError):
            result.h_samples[0, 0] = 99

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReshuffleConfig(master_seed=1, replicates=0)
        with pytest.raises(ValueError):
            ReshuffleConfig(master_seed=-1, replicates=5)
        with pytest.raises(ValueError):
            ReshuffleConfig(master_seed=2**64, replicates=5)

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
    """`mean_spearman_vs_real`: Spearman's rho of each replicate row against
    the real h vector, averaged over replicates."""

    def test_perfect_and_reversed(self):
        assert mean_spearman_vs_real(result_of([1, 2, 3, 4], [10, 20, 30, 40])) == pytest.approx(1.0)
        assert mean_spearman_vs_real(result_of([1, 2, 3, 4], [40, 30, 20, 10])) == pytest.approx(-1.0)
        both = result_of([1, 2, 3, 4], [10, 20, 30, 40], [40, 30, 20, 10])
        assert mean_spearman_vs_real(both) == pytest.approx(0.0, abs=1e-12)

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
        assert mean_spearman_vs_real(result) == pytest.approx(naive_spearman_mean(real, rows), abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            mean_spearman_vs_real(result_of([1, 1, 1], [1, 2, 3]))
        with pytest.raises(ValueError):
            mean_spearman_vs_real(result_of([1, 2, 3], [5, 5, 5]))
        with pytest.raises(ValueError):
            mean_spearman_vs_real(result_of([1, 2, 3], [3, 1, 2], [5, 5, 5], [1, 2, 3]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            result_of([1, 2], [1, 2, 3], units=3)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            mean_spearman_vs_real(result_of([1], [2]))

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 4, size=n)
            rows = rng.integers(0, 4, size=(int(rng.integers(1, 5)), n))
            if np.all(x == x[0]) or np.any(np.all(rows == rows[:, :1], axis=1)):
                continue
            assert -1.0 <= mean_spearman_vs_real(result_of(x, *rows)) <= 1.0


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
        assert mean_spearman_vs_real(result) == pytest.approx(float(expected), abs=1e-12)

    def test_null_model_pipeline_agreement_is_high_for_size_spread(self):
        # strongly size-heterogeneous units: size alone orders the null ranking
        rng = np.random.default_rng(3)
        units = tuple(
            make_unit(f"u{i}", rng.integers(0, 40, size=size).tolist())
            for i, size in enumerate([10, 40, 160, 640, 2560])
        )
        ds = Dataset(name="spread", units=units)
        result = run_null_model(ds, ReshuffleConfig(master_seed=8, replicates=50), workers=2)
        assert mean_spearman_vs_real(result) > 0.5
