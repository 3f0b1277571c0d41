"""Core domain types and the h-index computation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_dataset
from sizebias.model import (
    MAX_CITATIONS,
    Dataset,
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
    """A publication is one entry of `Dataset.citations`: each count is
    validated when the dataset is built."""

    def test_valid(self):
        assert make_dataset({"a": [0]}).citations.tolist() == [0]
        assert make_dataset({"a": [MAX_CITATIONS]}).citations.tolist() == [MAX_CITATIONS]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_dataset({"a": [-1]})
        with pytest.raises(ValueError):
            make_dataset({"a": np.array([3, -1], dtype=np.int64)})

    def test_non_integer_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            make_dataset({"a": [2.5]})
        for bad in ([True], [1, False], np.array([1.0]), np.array([True])):
            with pytest.raises(ValueError):
                make_dataset({"a": bad})

    def test_over_cap_rejected(self):
        with pytest.raises(ValueError):
            make_dataset({"a": [MAX_CITATIONS + 1]})

    def test_frozen(self):
        dataset = make_dataset({"a": [3]})
        with pytest.raises(ValueError):
            dataset.citations[0] = 4
        with pytest.raises(AttributeError):
            dataset.citations = np.array([4], dtype=np.uint64)


def two_units(sizes=(1, 1), citations=(1, 2), ids=("a", "b"), names=("A", "B")):
    return Dataset(unit_ids=ids, unit_names=names, sizes=sizes, citations=citations)


class TestUnit:
    """Unit i of a Dataset is entry i of its columns: unit_ids[i],
    unit_names[i], sizes[i], and the sizes[i] citation counts that follow
    those of units 0..i-1."""

    def test_productivity(self):
        dataset = two_units(sizes=[3, 1], citations=[5, 1, 0, 2], ids=["a", "b"], names=["A", "B"])
        assert dataset.unit_ids == ("a", "b") and dataset.unit_names == ("A", "B")
        assert dataset.sizes.dtype == np.int64 and dataset.sizes.tolist() == [3, 1]
        with pytest.raises(ValueError):
            dataset.sizes[0] = 4

    def test_group_h(self):
        assert group_h_indices(make_dataset({"a": [10, 8, 5, 4, 3]})).tolist() == [4]

    def test_empty_unit(self):
        dataset = make_dataset({"a": [], "b": [2]})
        assert dataset.sizes.tolist() == [0, 1]
        assert group_h_indices(dataset).tolist() == [0, 1]

    def test_citation_counts_dtype(self):
        dataset = make_dataset({"a": [5, 1], "b": [7]})
        assert dataset.citations.dtype == np.uint64
        assert dataset.citations.tolist() == [5, 1, 7]

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_dataset({"": [1]})

    def test_citations_become_private_read_only_array(self):
        assert not make_dataset({"a": [1]}).citations.flags.writeable
        given_sizes, given_counts = np.array([1, 1]), np.array([4, 2], dtype=np.uint64)
        dataset = two_units(sizes=given_sizes, citations=given_counts)
        assert not dataset.citations.flags.writeable and not dataset.sizes.flags.writeable
        # the caller's arrays are not frozen, and writing them leaves the dataset as it was
        assert given_counts.flags.writeable and given_sizes.flags.writeable
        given_counts[0], given_sizes[0] = 9, 2
        assert dataset.citations.tolist() == [4, 2] and dataset.sizes.tolist() == [1, 1]

    def test_rejects_multidimensional_counts(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            two_units(sizes=[2, 2], citations=np.ones((2, 2), dtype=np.uint64))


class TestDataset:
    """The invariants over whole columns that building a Dataset checks or
    establishes, one case each."""

    def test_pool_size(self):
        assert make_dataset({"a": [1, 2], "b": [3]}).pool_size == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one unit"):
            Dataset(unit_ids=(), unit_names=(), sizes=[], citations=[])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate unit id 'a'"):
            two_units(ids=("a", "a"))

    def test_column_lengths_must_match(self):
        for names, sizes in [(("A",), [1, 1]), (("A", "B"), [2]), (("A", "B"), [[1, 1]])]:
            with pytest.raises(ValueError, match="one name and one size for each of the 2 unit ids"):
                two_units(sizes=sizes, names=names)

    def test_sizes_must_be_nonnegative_integers(self):
        for sizes in ([3, -1], [1.0, 1.0], [True, True]):
            with pytest.raises(ValueError, match="nonnegative integers"):
                two_units(sizes=sizes)

    def test_sizes_must_sum_to_the_citation_count(self):
        for sizes in ([1, 0], [2, 1]):
            with pytest.raises(ValueError, match=f"sum to {sum(sizes)} but there are 2 citation counts"):
                two_units(sizes=sizes)

    def test_datasets_compare_by_identity(self):
        a, b = make_dataset({"a": [1, 2]}), make_dataset({"a": [1, 2]})
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_constant_citations_give_h_min_n_c(self):
        # degenerate citation model: every paper cited exactly c times
        for n, c in [(5, 3), (3, 9), (4, 4), (10, 0)]:
            assert group_h_indices(make_dataset({"a": [c] * n})).tolist() == [min(n, c)]


# Small counts, so h is not trivially the paper count, or counts at the
# top of the representable range.
citation_counts = st.lists(
    st.one_of(st.integers(0, 12), st.integers(MAX_CITATIONS - 3, MAX_CITATIONS)), max_size=15
)


class TestGroupHIndices:
    @given(st.lists(citation_counts, min_size=1, max_size=8))
    def test_match_per_unit_group_h_index(self, per_unit):
        h = group_h_indices(make_dataset({f"u{i}": counts for i, counts in enumerate(per_unit)}))
        assert h.tolist() == [h_index(counts) for counts in per_unit]
        # one unit holding the whole pool has the pool's h
        whole = make_dataset({"all": [c for counts in per_unit for c in counts]})
        assert group_h_indices(whole).tolist() == [h_index(whole.citations)]

    def test_empty_units_score_zero(self):
        assert group_h_indices(make_dataset({"a": [], "b": [4, 4, 4], "c": []})).tolist() == [0, 3, 0]
        assert group_h_indices(make_dataset({"a": []})).tolist() == [0]
