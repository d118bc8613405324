"""GridStore: layout, round trips, indexes, selective access, charging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeList, GridStore, make_intervals
from repro.storage import Device, SimulatedDisk
from tests.conftest import build_store, edge_multiset, random_edgelist


def all_blocks_multiset(store):
    srcs, dsts = [], []
    for (i, j) in store.iter_blocks_dst_major():
        b = store.load_block(i, j)
        srcs.append(b.src)
        dsts.append(b.dst)
    return edge_multiset(np.concatenate(srcs), np.concatenate(dsts))


def test_build_preserves_edge_multiset(rng, tmp_path):
    el = random_edgelist(rng, 120, 900)
    store = build_store(el, tmp_path, P=4)
    assert all_blocks_multiset(store) == edge_multiset(el.src, el.dst)
    assert store.total_edges == el.num_edges


def test_blocks_respect_grid_assignment(rng, tmp_path):
    el = random_edgelist(rng, 100, 600, weighted=False)
    store = build_store(el, tmp_path, P=3)
    iv = store.intervals
    for (i, j) in store.iter_blocks_dst_major():
        b = store.load_block(i, j)
        if b.count == 0:
            continue
        assert np.all(iv.interval_of(b.src) == i)
        assert np.all(iv.interval_of(b.dst) == j)
        # sorted by source within block
        assert np.all(np.diff(b.src.astype(np.int64)) >= 0)


def test_weights_travel_with_edges(rng, tmp_path):
    el = random_edgelist(rng, 50, 300, weighted=True)
    store = build_store(el, tmp_path, P=2)
    # Reconstruct (src, dst, wgt) triples and compare as multisets.
    got = []
    for (i, j) in store.iter_blocks_dst_major():
        b = store.load_block(i, j)
        got += list(zip(b.src.tolist(), b.dst.tolist(), np.round(b.wgt, 5).tolist()))
    want = list(zip(el.src.tolist(), el.dst.tolist(), np.round(el.weights, 5).tolist()))
    assert sorted(got) == sorted(want)


def test_open_roundtrip(rng, tmp_path):
    el = random_edgelist(rng, 80, 400)
    dev = Device(tmp_path / "o", SimulatedDisk())
    iv = make_intervals(el, 3)
    GridStore.build(el, iv, dev, prefix="p")
    store = GridStore.open(dev, prefix="p")
    assert store.P == 3
    assert store.total_edges == el.num_edges
    assert store.has_weights and store.indexed
    assert all_blocks_multiset(store) == edge_multiset(el.src, el.dst)


def test_block_index_offsets_are_correct(rng, tmp_path):
    el = random_edgelist(rng, 60, 500, weighted=False)
    store = build_store(el, tmp_path, P=3)
    iv = store.intervals
    for (i, j) in store.iter_blocks_dst_major():
        offsets = store.read_block_index(i, j)
        lo, hi = iv.bounds(i)
        assert offsets.shape == (hi - lo + 1,)
        assert offsets[0] == 0
        assert offsets[-1] == store.block_edge_count(i, j)
        block = store.load_block(i, j)
        for v in range(lo, hi):
            expected = block.dst[block.src == v]
            got = block.dst[offsets[v - lo] : offsets[v - lo + 1]]
            assert np.array_equal(np.sort(got), np.sort(expected))


def test_selective_load_equals_filtered_full_load(rng, tmp_path):
    el = random_edgelist(rng, 90, 700)
    store = build_store(el, tmp_path, P=3)
    iv = store.intervals
    for (i, j) in store.iter_blocks_dst_major():
        lo, hi = iv.bounds(i)
        if hi == lo:
            continue
        ids = np.sort(rng.choice(np.arange(lo, hi), size=min(7, hi - lo), replace=False))
        offsets = store.read_block_index(i, j)
        pairs = np.stack([offsets[ids - lo], offsets[ids - lo + 1]], axis=1)
        sel = store.load_active_edges(i, j, ids, pairs, seq_threshold_bytes=64)
        full = store.load_block(i, j)
        keep = np.isin(full.src, ids)
        assert np.array_equal(sel.src, full.src[keep])
        assert np.array_equal(sel.dst, full.dst[keep])
        assert np.allclose(sel.wgt, full.wgt[keep])


def test_index_entries_match_full_index(rng, tmp_path):
    el = random_edgelist(rng, 40, 300)
    store = build_store(el, tmp_path, P=2)
    ids = np.array([0, 3, 7])
    pairs = store.read_index_entries(0, 1, ids)
    offsets = store.read_block_index(0, 1)
    assert np.array_equal(pairs[:, 0], offsets[ids])
    assert np.array_equal(pairs[:, 1], offsets[ids + 1])
    assert store.read_index_entries(0, 1, np.array([], dtype=np.int64)).shape == (0, 2)


def test_index_span_matches_full_index(rng, tmp_path):
    el = random_edgelist(rng, 40, 300)
    store = build_store(el, tmp_path, P=2)
    full = store.read_block_index(1, 0)
    span = store.read_index_span(1, 0, 2, 9)
    assert np.array_equal(span, full[2:10])
    with pytest.raises(ValueError):
        store.read_index_span(1, 0, 5, 10_000)


def test_column_loads_equal_per_block_loads(rng, tmp_path):
    el = random_edgelist(rng, 70, 500)
    store = build_store(el, tmp_path, P=4)
    for j in range(store.P):
        col = store.load_column(j)
        assert [h.i for h in col] == list(range(store.P))
        for h in col:
            assert (h.j, h.count) == (j, store.block_edge_count(h.i, j))
            assert h.nbytes == store.block_nbytes(h.i, j)
            b, single = h.decode(), store.load_block(h.i, j)
            assert np.array_equal(b.src, single.src)
            assert np.array_equal(b.dst, single.dst)
    # sub-ranges too
    blocks = store.load_block_range(1, 2, 4)
    assert [h.i for h in blocks] == [2, 3]
    assert store.load_block_range(1, 2, 2) == []


def test_column_load_is_one_sequential_request(rng, tmp_path):
    el = random_edgelist(rng, 70, 500)
    store = build_store(el, tmp_path, P=4)
    disk = store.device.disk
    before = disk.stats.snapshot()
    store.load_column(0)
    diff = disk.stats - before
    assert diff.read_requests_seq == 1
    assert diff.read_requests_ran == 0


@pytest.mark.parametrize("layout", ["raw", "compact3", "unsorted"])
def test_in_memory_selection_equals_a_mask_over_the_block(rng, tmp_path, layout):
    """``EdgeBlock.select`` cuts the active sources' edges out of a
    loaded block, and ``BlockHandle.count_active`` counts them without a
    decode: by the on-disk index's offsets (re-derived in memory, from
    the compact header when there is one) or the sorted sources, or — a
    store without source order — by one mask lookup per edge."""
    el = random_edgelist(rng, 90, 700)
    store = build_store(
        el, tmp_path, P=3, name=layout, sort_within_blocks=layout != "unsorted",
        encoding="raw" if layout == "unsorted" else layout,
    )
    handles = [h for j in range(store.P) for h in store.load_column(j)]
    for handle in handles:
        i, j = handle.i, handle.j
        block = store.load_block(i, j)
        assert block.source_sorted == (layout != "unsorted")
        lo, hi = store.intervals.bounds(i)
        gate = np.zeros(el.num_vertices, dtype=bool)
        gate[rng.choice(el.num_vertices, 25, replace=False)] = True
        keep = gate[block.src]
        assert handle.count_active(gate, lo, hi) == np.count_nonzero(keep)
        assert handle.count_active(np.ones_like(gate), lo, hi) == block.count
        assert handle.count_active(np.zeros_like(gate), lo, hi) == 0
        sub = block.select(np.flatnonzero(gate[lo:hi]), lo, hi)
        assert (sub.i, sub.j) == (i, j)
        assert np.array_equal(sub.src, block.src[keep])  # block order kept
        assert np.array_equal(sub.dst, block.dst[keep])
        assert np.array_equal(sub.wgt, block.wgt[keep])
        assert block.select(np.empty(0, dtype=np.intp), lo, hi).count == 0
        if block.source_sorted and block.count:
            offsets = block.source_offsets(lo, hi)
            assert np.array_equal(offsets, store.read_block_index(i, j))
            # The cache is the whole per-block cost: <= 4 bytes a source,
            # and the header it was summed from is not kept beside it.
            assert offsets.dtype.itemsize <= 4 and block.runs is None


def test_unindexed_store_rejects_selective_access(rng, tmp_path):
    el = random_edgelist(rng, 30, 100)
    store = build_store(el, tmp_path, indexed=False, name="ni")
    with pytest.raises(RuntimeError):
        store.read_block_index(0, 0)
    with pytest.raises(RuntimeError):
        store.read_index_entries(0, 0, np.array([0]))
    # full loads still work and preserve content
    assert all_blocks_multiset(store) == edge_multiset(el.src, el.dst)


def test_unsorted_store_preserves_multiset(rng, tmp_path):
    el = random_edgelist(rng, 30, 200)
    store = build_store(el, tmp_path, sort_within_blocks=False, name="us")
    assert not store.indexed
    assert all_blocks_multiset(store) == edge_multiset(el.src, el.dst)


def test_build_rejects_mismatched_intervals(rng, tmp_path):
    el = random_edgelist(rng, 30, 100)
    other = make_intervals(random_edgelist(rng, 40, 100), 2)
    dev = Device(tmp_path / "mm", SimulatedDisk())
    with pytest.raises(ValueError):
        GridStore.build(el, other, dev)


def test_read_all_sources(rng, tmp_path):
    el = random_edgelist(rng, 50, 400, weighted=False)
    store = build_store(el, tmp_path, P=3)
    src = store.read_all_sources()
    assert np.array_equal(
        np.bincount(src, minlength=50), np.bincount(el.src, minlength=50)
    )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 60),
    m=st.integers(0, 200),
    P=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_grid_roundtrip_property(tmp_path_factory, n, m, P, seed):
    rng = np.random.default_rng(seed)
    el = EdgeList(n, rng.integers(0, n, m), rng.integers(0, n, m))
    dev = Device(tmp_path_factory.mktemp("grid"), SimulatedDisk())
    store = GridStore.build(el, make_intervals(el, P), dev)
    assert store.total_edges == m
    assert all_blocks_multiset(store) == edge_multiset(el.src, el.dst)
    # every block's count metadata agrees with its data
    for (i, j) in store.iter_blocks_dst_major():
        assert store.load_block(i, j).count == store.block_edge_count(i, j)
