"""VertexSubset: unit behaviour + set-algebra properties vs Python sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitset import VertexSubset, distinct_sorted

N = 64


def test_empty_subset_has_no_members():
    s = VertexSubset(10)
    assert s.count == 0
    assert s.is_empty()
    assert list(s) == []
    assert 3 not in s


def test_full_constructor_contains_everything():
    s = VertexSubset.full(5)
    assert s.count == 5
    assert list(s) == [0, 1, 2, 3, 4]


def test_from_indices_tolerates_duplicates():
    s = VertexSubset.from_indices(10, [1, 1, 7, 7, 7])
    assert s.count == 2
    assert sorted(s) == [1, 7]


def test_from_indices_rejects_out_of_range():
    with pytest.raises(ValueError):
        VertexSubset.from_indices(5, [5])
    with pytest.raises(ValueError):
        VertexSubset.from_indices(5, [-1])


def test_add_remove_and_count_cache():
    s = VertexSubset(20)
    s.add([3, 4, 5])
    assert s.count == 3
    s.remove([4])
    assert s.count == 2
    s.remove([4])  # absent id is a no-op
    assert s.count == 2
    s.clear()
    assert s.is_empty()


def test_add_mask_and_remove_mask():
    s = VertexSubset(8)
    mask = np.zeros(8, dtype=bool)
    mask[[0, 7]] = True
    s.add_mask(mask)
    assert sorted(s) == [0, 7]
    s.remove_mask(mask)
    assert s.is_empty()


def test_mask_shape_mismatch_rejected():
    s = VertexSubset(8)
    with pytest.raises(ValueError):
        s.add_mask(np.zeros(9, dtype=bool))


def test_interval_views():
    s = VertexSubset.from_indices(20, [2, 5, 9, 15])
    assert s.interval_count(0, 10) == 3
    assert s.interval_indices(4, 16).tolist() == [5, 9, 15]
    assert s.interval_mask(0, 3).tolist() == [False, False, True]


def test_cached_ids_follow_every_mutation():
    s = VertexSubset.from_indices(20, [2, 5, 9, 15])
    ids = s.indices()
    assert s.indices() is ids  # one pass per mutation epoch
    assert not ids.flags.writeable
    assert not s.interval_indices(4, 16).flags.writeable
    steps = [
        (lambda: s.add([7]), [2, 5, 7, 9, 15]),
        (lambda: s.remove([2, 15]), [5, 7, 9]),
        (lambda: s.add_mask(np.arange(20) == 19), [5, 7, 9, 19]),
        (lambda: s.remove_mask(np.arange(20) < 6), [7, 9, 19]),
        (lambda: s.clear(), []),
    ]
    for mutate, expected in steps:
        s.indices()
        mutate()
        assert s.indices().tolist() == expected
        assert s.count == len(expected)
        assert s.interval_indices(0, 10).tolist() == [v for v in expected if v < 10]
    assert ids.tolist() == [2, 5, 9, 15]  # handed-out ids never change


def test_interval_bounds_validation():
    s = VertexSubset(10)
    with pytest.raises(ValueError):
        s.interval_mask(5, 3)
    with pytest.raises(ValueError):
        s.interval_mask(0, 11)
    with pytest.raises(ValueError):
        s.interval_indices(5, 3)


def test_equality_and_copy_independence():
    a = VertexSubset.from_indices(10, [1, 2])
    b = a.copy()
    assert a == b
    b.add([5])
    assert a != b
    assert a.count == 2


def test_incompatible_universes_rejected():
    with pytest.raises(ValueError):
        VertexSubset(5).union(VertexSubset(6))


idx_sets = st.sets(st.integers(min_value=0, max_value=N - 1), max_size=N)


@settings(max_examples=200, deadline=None)
@given(a=idx_sets, b=idx_sets)
def test_set_algebra_matches_python_sets(a, b):
    sa = VertexSubset.from_indices(N, sorted(a))
    sb = VertexSubset.from_indices(N, sorted(b))
    assert set(sa.union(sb)) == a | b
    assert set(sa.intersection(sb)) == a & b
    assert set(sa.difference(sb)) == a - b
    assert sa.count == len(a)
    assert sa.union(sb).count == len(a | b)


@settings(max_examples=100, deadline=None)
@given(a=idx_sets, b=idx_sets)
def test_mutation_matches_python_sets(a, b):
    s = VertexSubset.from_indices(N, sorted(a))
    s.add(sorted(b))
    assert set(s) == a | b
    s.remove(sorted(b))
    assert set(s) == a - b


@settings(max_examples=100, deadline=None)
@given(a=idx_sets, lo=st.integers(0, N), hi=st.integers(0, N))
def test_interval_count_matches_filter(a, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    s = VertexSubset.from_indices(N, sorted(a))
    assert s.interval_count(lo, hi) == len([v for v in a if lo <= v < hi])


@settings(max_examples=200, deadline=None)
@given(
    bound=st.integers(1, 300),
    data=st.data(),
    dtype=st.sampled_from([np.uint32, np.int64]),
)
def test_distinct_sorted_matches_unique_by_sort_or_by_mask(bound, data, dtype):
    """Few ids are sorted, many are flagged in a mask: either way the
    result is ``np.unique``'s, in the ids' dtype."""
    ids = np.array(
        data.draw(st.lists(st.integers(0, bound - 1), max_size=2 * bound)), dtype=dtype
    )
    got = distinct_sorted(ids, bound)
    assert got.dtype == ids.dtype
    assert np.array_equal(got, np.unique(ids))
