"""EdgeList: construction, loaders, persistence, transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.edgelist import EDGE_STRUCT_BYTES, EdgeList, WEIGHT_BYTES


def test_basic_construction_and_dtypes():
    el = EdgeList(5, [0, 1, 2], [1, 2, 3])
    assert el.num_vertices == 5
    assert el.num_edges == 3
    assert el.src.dtype == np.uint32
    assert not el.has_weights
    assert np.array_equal(el.effective_weights(), np.ones(3, dtype=np.float32))


def test_endpoint_range_checked():
    with pytest.raises(ValueError):
        EdgeList(3, [0, 3], [1, 1])
    with pytest.raises(ValueError):
        EdgeList(3, [0], [1, 2])  # length mismatch


def test_out_of_range_ids_are_rejected_not_wrapped(tmp_path):
    """The uint32 cast must never turn a bad id into a valid-looking one."""
    with pytest.raises(ValueError, match=str(2**32 + 1)):
        EdgeList.from_pairs([(2**32 + 1, 3), (0, 1)])  # would wrap to src == [1, 0]
    with pytest.raises(ValueError, match="-1 is negative"):
        EdgeList.from_pairs([(-1, 3)], num_vertices=2**32)  # would wrap to 2**32 - 1
    with pytest.raises(ValueError, match="-2 is negative"):
        EdgeList(5, [0, 1], np.array([1, -2], dtype=np.int64))
    with pytest.raises(ValueError, match=str(2**32)):
        EdgeList(2**33, [0], [2**32])
    path = tmp_path / "bad.txt"
    path.write_text(f"0 1\n{2**32 + 1} 3\n")
    with pytest.raises(ValueError, match=str(2**32 + 1)):
        EdgeList.from_text(path)
    path.write_text("0 1\n-1 3\n")
    with pytest.raises(ValueError, match="-1 is negative"):
        EdgeList.from_text(path, num_vertices=2**32)
    # The largest representable id is still accepted.
    assert EdgeList(2**32, [2**32 - 1], [0]).src[0] == 2**32 - 1


def test_nbytes_on_disk_matches_table2_notation():
    el = EdgeList(4, [0, 1], [1, 2])
    assert el.nbytes_on_disk == 2 * EDGE_STRUCT_BYTES
    elw = el.with_weights(np.array([0.5, 0.5], dtype=np.float32))
    assert elw.nbytes_on_disk == 2 * (EDGE_STRUCT_BYTES + WEIGHT_BYTES)


def test_from_pairs():
    el = EdgeList.from_pairs([(0, 1), (1, 2)])
    assert el.num_vertices == 3
    assert el.num_edges == 2
    el2 = EdgeList.from_pairs([], num_vertices=7)
    assert el2.num_vertices == 7 and el2.num_edges == 0


def test_text_roundtrip(tmp_path):
    el = EdgeList(4, [0, 1, 3], [1, 2, 0], np.array([0.5, 1.5, 2.5], dtype=np.float32))
    path = tmp_path / "g.txt"
    el.to_text(path)
    back = EdgeList.from_text(path)
    assert back == el


def test_text_parses_comments_and_unweighted(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n% other comment\n0 1\n2 3\n")
    el = EdgeList.from_text(path)
    assert el.num_edges == 2
    assert el.num_vertices == 4
    assert not el.has_weights


def test_text_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2 3\n")
    with pytest.raises(ValueError):
        EdgeList.from_text(path)


def test_npz_roundtrip(tmp_path):
    el = EdgeList(6, [0, 5], [5, 0], np.array([1, 2], dtype=np.float32))
    el.to_npz(tmp_path / "g.npz")
    assert EdgeList.from_npz(tmp_path / "g.npz") == el


def test_reversed_flips_direction():
    el = EdgeList(3, [0, 1], [1, 2], np.array([1, 2], dtype=np.float32))
    rev = el.reversed()
    assert rev.src.tolist() == [1, 2]
    assert rev.dst.tolist() == [0, 1]
    assert np.array_equal(rev.weights, el.weights)


def test_sorted_by_src_and_dst():
    el = EdgeList(4, [3, 1, 1, 0], [0, 2, 1, 3])
    by_src = el.sorted_by("src")
    assert by_src.src.tolist() == [0, 1, 1, 3]
    assert by_src.dst.tolist() == [3, 1, 2, 0]
    by_dst = el.sorted_by("dst")
    assert by_dst.dst.tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        el.sorted_by("weight")


def test_deduplicated_keeps_first_weight():
    el = EdgeList(3, [0, 0, 1], [1, 1, 2], np.array([5.0, 9.0, 1.0], dtype=np.float32))
    d = el.deduplicated()
    assert d.num_edges == 2
    k = list(zip(d.src.tolist(), d.dst.tolist()))
    assert (0, 1) in k and (1, 2) in k
    assert d.weights[k.index((0, 1))] == 5.0


def test_without_self_loops():
    el = EdgeList(3, [0, 1, 2], [0, 2, 2])
    cleaned = el.without_self_loops()
    assert cleaned.num_edges == 1
    assert cleaned.src.tolist() == [1]


def test_symmetrized_contains_both_directions():
    el = EdgeList(3, [0, 1], [1, 2])
    sym = el.symmetrized()
    pairs = set(zip(sym.src.tolist(), sym.dst.tolist()))
    assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_symmetrized_no_dedup_keeps_multiplicity():
    el = EdgeList(2, [0, 0], [1, 1])
    sym = el.symmetrized(deduplicate=False)
    assert sym.num_edges == 4


edge_lists = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=60,
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(data=edge_lists)
def test_symmetrized_is_symmetric_and_idempotent(data):
    n, pairs = data
    el = EdgeList.from_pairs(pairs, num_vertices=n)
    sym = el.symmetrized()
    s = set(zip(sym.src.tolist(), sym.dst.tolist()))
    assert all((b, a) in s for (a, b) in s)
    again = sym.symmetrized()
    assert set(zip(again.src.tolist(), again.dst.tolist())) == s
    assert again.num_edges == sym.num_edges  # idempotent after dedup


@settings(max_examples=100, deadline=None)
@given(data=edge_lists)
def test_dedup_removes_exactly_duplicates(data):
    n, pairs = data
    el = EdgeList.from_pairs(pairs, num_vertices=n)
    d = el.deduplicated()
    assert d.num_edges == len(set(pairs))
    assert set(zip(d.src.tolist(), d.dst.tolist())) == set(pairs)
