"""Core domain types and the h-index computation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sizebias.model import (
    MAX_CITATIONS,
    Dataset,
    Unit,
    group_h_index,
    group_h_indices,
    h_index,
)


def naive_h(citations):
    """Independent oracle: sort descending, largest i with c_i >= i."""
    ranked = sorted(citations, reverse=True)
    best = 0
    for i, c in enumerate(ranked, start=1):
        if c >= i:
            best = i
    return best


def make_unit(uid, citations, name=None):
    return Unit(id=uid, name=name or uid, citations=citations)


class TestHIndex:
    def test_empty(self):
        assert h_index([]) == 0

    def test_single_cited_paper(self):
        assert h_index([7]) == 1

    def test_single_uncited_paper(self):
        assert h_index([0]) == 0

    def test_all_zero(self):
        assert h_index([0, 0, 0]) == 0

    def test_textbook_case(self):
        assert h_index([10, 8, 5, 4, 3]) == 4

    def test_everything_cited_n_times(self):
        n = 25
        assert h_index([n] * n) == n

    def test_h_capped_by_paper_count(self):
        assert h_index([1000, 999]) == 2

    def test_oracle_small_exhaustive(self):
        rng = np.random.default_rng(101)
        for _ in range(400):
            size = int(rng.integers(0, 60))
            cs = rng.integers(0, 40, size=size).tolist()
            assert h_index(cs) == naive_h(cs)

    def test_oracle_large_counts(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            size = int(rng.integers(1, 200))
            cs = rng.integers(0, 10**6, size=size).tolist()
            assert h_index(cs) == naive_h(cs)

    @given(st.lists(st.one_of(st.integers(0, 60), st.integers(0, MAX_CITATIONS)), max_size=150))
    def test_oracle_property(self, cs):
        assert h_index(cs) == naive_h(cs)
        assert h_index(np.array(cs, dtype=np.uint64)) == naive_h(cs)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        cs = rng.integers(0, 30, size=50)
        h = h_index(cs)
        for _ in range(5):
            assert h_index(rng.permutation(cs)) == h

    def test_zero_cited_papers_do_not_change_h(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cs = rng.integers(0, 30, size=int(rng.integers(1, 40))).tolist()
            assert h_index(cs + [0, 0, 0]) == h_index(cs)

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cs = rng.integers(0, 100, size=int(rng.integers(1, 80)))
            h = h_index(cs)
            assert 0 <= h <= min(len(cs), int(cs.max()))

    def test_accepts_numpy_arrays(self):
        assert h_index(np.array([10, 8, 5, 4, 3], dtype=np.int64)) == 4
        assert h_index(np.array([10, 8, 5, 4, 3], dtype=np.uint64)) == 4
        assert h_index(np.array([3, 2], dtype=np.int32)) == 2

    def test_accepts_generator(self):
        assert h_index(c for c in [5, 5, 5]) == 3

    def test_huge_counts_exact(self):
        # values near the uint64 cap must not be rounded through floats
        assert h_index([MAX_CITATIONS, MAX_CITATIONS - 1, 5]) == 3
        assert h_index([MAX_CITATIONS]) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            h_index([3, -1])
        with pytest.raises(ValueError):
            h_index(np.array([3, -1], dtype=np.int64))

    def test_rejects_non_integer(self):
        with pytest.raises((ValueError, TypeError)):
            h_index([3.5, 2])
        with pytest.raises(ValueError):
            h_index([True, 2])

    def test_rejects_over_cap(self):
        with pytest.raises(ValueError):
            h_index([MAX_CITATIONS + 1])


class TestPublication:
    """A publication is one entry of `Unit.citations`: each count is
    validated when the unit is built."""

    def test_valid(self):
        assert make_unit("a", [0]).citations.tolist() == [0]
        assert make_unit("a", [MAX_CITATIONS]).citations.tolist() == [MAX_CITATIONS]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_unit("a", [-1])
        with pytest.raises(ValueError):
            make_unit("a", np.array([3, -1], dtype=np.int64))

    def test_non_integer_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            make_unit("a", [2.5])
        for bad in ([True], [1, False], np.array([1.0]), np.array([True])):
            with pytest.raises(ValueError):
                make_unit("a", bad)

    def test_over_cap_rejected(self):
        with pytest.raises(ValueError):
            make_unit("a", [MAX_CITATIONS + 1])

    def test_frozen(self):
        unit = make_unit("a", [3])
        with pytest.raises(ValueError):
            unit.citations[0] = 4
        with pytest.raises(AttributeError):
            unit.citations = np.array([4], dtype=np.uint64)


class TestUnit:
    def test_productivity(self):
        unit = make_unit("a", [5, 1, 0])
        assert unit.productivity == 3

    def test_group_h(self):
        unit = make_unit("a", [10, 8, 5, 4, 3])
        assert group_h_index(unit) == 4

    def test_empty_unit(self):
        unit = make_unit("a", [])
        assert unit.productivity == 0
        assert group_h_index(unit) == 0

    def test_citation_counts_dtype(self):
        unit = make_unit("a", [5, 1])
        arr = unit.citations
        assert arr.dtype == np.uint64
        assert arr.tolist() == [5, 1]

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            make_unit("", [1])

    def test_citations_become_private_read_only_array(self):
        unit = Unit(id="a", name="a", citations=[1])
        assert isinstance(unit.citations, np.ndarray)
        assert not unit.citations.flags.writeable
        given_counts = np.array([4, 2], dtype=np.uint64)
        unit = Unit(id="b", name="b", citations=given_counts)
        assert not unit.citations.flags.writeable
        assert given_counts.flags.writeable
        given_counts[0] = 9
        assert unit.citations.tolist() == [4, 2]

    def test_rejects_multidimensional_counts(self):
        with pytest.raises(ValueError):
            make_unit("a", np.ones((2, 2), dtype=np.uint64))

    def test_units_compare_by_identity(self):
        a, b = make_unit("a", [1, 2]), make_unit("a", [1, 2])
        assert a == a and a != b
        assert len({a, b}) == 2
        hash(Dataset(name="d", units=(a,)))


# Small counts, so h is not trivially the paper count, or counts at the
# top of the representable range.
citation_counts = st.lists(
    st.one_of(st.integers(0, 12), st.integers(MAX_CITATIONS - 3, MAX_CITATIONS)), max_size=15
)


class TestGroupHIndices:
    @given(st.lists(citation_counts, min_size=1, max_size=8))
    def test_match_per_unit_group_h_index(self, per_unit):
        units = tuple(make_unit(f"u{i}", counts) for i, counts in enumerate(per_unit))
        h = group_h_indices(Dataset(name="d", units=units))
        assert h.tolist() == [group_h_index(u) for u in units]
        # one unit holding the whole pool has the pool's h
        whole = make_unit("all", [c for counts in per_unit for c in counts])
        assert group_h_indices(Dataset(name="whole", units=(whole,))).tolist() == [group_h_index(whole)]

    def test_empty_units_score_zero(self):
        units = (make_unit("a", []), make_unit("b", [4, 4, 4]), make_unit("c", []))
        assert group_h_indices(Dataset(name="d", units=units)).tolist() == [0, 3, 0]
        assert group_h_indices(Dataset(name="none", units=units[:1])).tolist() == [0]


class TestDataset:
    def test_pool_size(self):
        ds = Dataset(name="d", units=(make_unit("a", [1, 2]), make_unit("b", [3])))
        assert ds.pool_size == 3

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Dataset(name="d", units=(make_unit("a", [1]), make_unit("a", [2])))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(name="d", units=())

    def test_constant_citations_give_h_min_n_c(self):
        # degenerate citation model: every paper cited exactly c times
        for n, c in [(5, 3), (3, 9), (4, 4), (10, 0)]:
            unit = make_unit("a", [c] * n)
            assert group_h_index(unit) == min(n, c)
