"""``GridStore.read_selective``: one data pass, each block's charges deferred.

Every entry must come back with the block its single reads give — the
index read of its mode, then ``load_active_edges`` — and replay exactly
their accounting when charged, in plan order. The batch itself charges
nothing and raises nothing: an entry whose index is corrupt raises the
single reads' error from its own ``charge()``.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.rmat import rmat_edges
from repro.graph import GridStore, make_intervals
from repro.graph.grid import INDEX_GATHER, INDEX_SPAN
from repro.storage import Device, HDD_PROFILE, PageCache, SimulatedDisk
from repro.storage.faults import ChecksumError
from repro.utils.runs import merge_runs
from tests.conftest import random_edgelist

MODES = (INDEX_SPAN, INDEX_GATHER)


def _twin_stores(tmp_path, edges, P, encoding, cache, checksums):
    """Two stores of the same grid, each on its own disk (and cache)."""
    stores = []
    for side in ("single", "batch"):
        device = Device(
            tmp_path / side,
            SimulatedDisk(HDD_PROFILE),
            page_cache=PageCache(16 * 1024) if cache else None,
            checksums=checksums,
        )
        stores.append(
            GridStore.build(edges, make_intervals(edges, P), device, prefix="g", encoding=encoding)
        )
    return stores


def _single_read(store, i, j, ids, mode, threshold):
    """The per-entry path: the mode's index read, then ``load_active_edges``."""
    local = ids - store.intervals.bounds(i)[0]
    if mode == INDEX_GATHER:
        pairs = store.read_index_entries(i, j, local)
    else:
        offsets = store.read_index_span(i, j, int(local[0]), int(local[-1]) + 1)
        rel = local - local[0]
        pairs = np.stack([offsets[rel], offsets[rel + 1]], axis=1)
    return store.load_active_edges(i, j, ids, pairs, seq_threshold_bytes=threshold)


def _random_entries(rng, store, count):
    entries = []
    for _ in range(count):
        i, j = (int(x) for x in rng.integers(0, store.P, 2))
        lo, hi = store.intervals.bounds(i)
        shape = rng.integers(3)
        if shape == 0:  # the whole interval: a full-row span
            ids = np.arange(lo, hi, dtype=np.int64)
        elif shape == 1:  # a wave of neighbouring ids
            first = int(rng.integers(lo, hi))
            ids = np.arange(first, min(hi, first + int(rng.integers(1, 40))), dtype=np.int64)
        else:  # a few scattered ids
            k = int(rng.integers(1, min(8, hi - lo) + 1))
            ids = np.sort(rng.choice(np.arange(lo, hi, dtype=np.int64), k, replace=False))
        entries.append((i, j, ids, int(rng.choice(MODES))))
    return entries


def _same_block(a, b):
    assert a.i == b.i and a.j == b.j and a.source_sorted
    for x, y in ((a.src, b.src), (a.dst, b.dst)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    if a.wgt is None:
        assert b.wgt is None
    else:
        assert a.wgt.dtype == b.wgt.dtype
        assert np.array_equal(a.wgt.view(np.uint32), b.wgt.view(np.uint32))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    encoding=st.sampled_from(["raw", "compact", "compact3"]),
    weighted=st.booleans(),
    P=st.integers(2, 4),
    threshold=st.sampled_from([None, 16, 256]),
    cache=st.booleans(),
    checksums=st.booleans(),
)
def test_batch_replays_the_single_reads_exactly(
    tmp_path_factory, seed, encoding, weighted, P, threshold, cache, checksums
):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(60, 300)), int(rng.integers(200, 3000))
    edges = random_edgelist(rng, n, m, weighted)
    root = tmp_path_factory.mktemp("s")
    single, batch = _twin_stores(root, edges, P, encoding, cache, checksums)
    # Enough ids to span several chunks of one interval's worth each.
    entries = _random_entries(rng, single, int(rng.integers(1, 3 * P * P)))

    want = [_single_read(single, *entry, threshold) for entry in entries]
    before = batch.device.disk.stats.snapshot()
    loads = batch.read_selective(entries, threshold)
    assert batch.device.disk.stats.to_dict() == before.to_dict()  # nothing charged yet
    oracle = GridStore.open(Device(single.device.root, SimulatedDisk()), "g")
    for load, block, (i, j, ids, _mode) in zip(loads, want, entries):
        _same_block(load(), block)
        lo, hi = batch.intervals.bounds(i)
        _same_block(load.block, oracle.load_block(i, j).select(ids - lo, lo, hi))
    assert batch.device.disk.stats.to_dict() == single.device.disk.stats.to_dict()
    assert batch.device.disk.clock.snapshot().components == (
        single.device.disk.clock.snapshot().components
    )
    if cache:
        assert vars(batch.device.page_cache.stats) == vars(single.device.page_cache.stats)


# -- empty extents: every pair is checked, only pairs with edges are read -----------


def _empty_extent_entries(store):
    """Per block with both kinds of source: the ids of up to five sources
    without an edge in it; a run of consecutive ids from one source
    with edges to the next, empty ones between (adjacent extents); and
    every other source with edges, with one empty source among them
    (extents that are not adjacent)."""
    entries = []
    for i in range(store.P):
        lo, _ = store.intervals.bounds(i)
        for j in range(store.P):
            degree = np.diff(store.read_block_index(i, j))
            empty, full = np.flatnonzero(degree == 0), np.flatnonzero(degree > 0)
            if not (empty.size and full.size >= 2):
                continue
            entries.append((i, j, lo + empty[:5], INDEX_GATHER))
            gaps = np.flatnonzero(np.diff(full) > 1)
            if gaps.size:
                a, b = full[gaps[0]], full[gaps[0] + 1]
                entries.append((i, j, lo + np.arange(a, b + 1), INDEX_SPAN))
            spaced = np.union1d(full[::2], empty[len(empty) // 2])
            entries.append((i, j, lo + spaced, INDEX_GATHER))
    return entries


def _expected_runs(store, i, j, ids, threshold):
    """The merged runs an entry charges: every id's extent merged with
    its neighbours, empty ones included, then the empty runs dropped."""
    offsets = store.read_block_index(i, j)
    local = ids - store.intervals.bounds(i)[0]
    geom = store._geometry[i * store.P + j]
    starts = geom["records"] + offsets[local] * geom["rec"]
    starts, counts, _ = merge_runs(starts, np.diff(offsets)[local] * geom["rec"])
    starts, counts = starts[counts > 0], counts[counts > 0]
    return starts, counts, counts * store._edges_file.dtype.itemsize >= threshold


@pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("encoding", ["raw", "compact", "compact3"])
def test_empty_extents_are_checked_but_never_read(tmp_path, encoding, cache):
    # ~0.3 edges per (source, block): most extents are empty.
    edges = random_edgelist(np.random.default_rng(11), 240, 300)
    single, batch = _twin_stores(tmp_path, edges, 4, encoding, cache, checksums=True)
    oracle = GridStore.open(Device(single.device.root, SimulatedDisk()), "g")
    entries = _empty_extent_entries(oracle)
    assert len(entries) > 8
    want = [_single_read(single, *entry, 16) for entry in entries]
    loads = batch.read_selective(entries, 16)
    for load, block, (i, j, ids, _mode) in zip(loads, want, entries):
        _same_block(load(), block)
        starts, counts, seq = _expected_runs(oracle, i, j, ids, 16)
        if load._runs is None:
            assert counts.size == 0 and block.count == 0
        else:
            runs = [x.tolist() for x in load._runs]
            assert runs == [starts.tolist(), counts.tolist(), seq.tolist()]
    assert any(block.count == 0 for block in want)  # an entry of empty extents only
    assert batch.device.disk.stats.to_dict() == single.device.disk.stats.to_dict()
    assert batch.device.disk.clock.snapshot().components == (
        single.device.disk.clock.snapshot().components
    )
    if cache:
        assert vars(batch.device.page_cache.stats) == vars(single.device.page_cache.stats)


@pytest.mark.parametrize("encoding", ["raw", "compact3"])
def test_a_merged_run_of_exactly_the_threshold_is_sequential(tmp_path, encoding):
    edges = random_edgelist(np.random.default_rng(3), 100, 2000, weighted=False)
    device = Device(tmp_path / encoding, SimulatedDisk(HDD_PROFILE))
    store = GridStore.build(edges, make_intervals(edges, 2), device, prefix="g", encoding=encoding)
    offsets = store.read_block_index(0, 1)
    v = int(np.argmax(np.diff(offsets)))  # a source with edges in block (0, 1)
    nbytes = int(offsets[v + 1] - offsets[v]) * int(store.adjacency_bytes_per_edge)
    for threshold, sequential in ((nbytes, 1), (nbytes + 1, 0)):
        before = device.disk.stats.snapshot()
        (load,) = store.read_selective([(0, 1, np.array([v]), INDEX_GATHER)], threshold)
        load()
        charged = device.disk.stats - before
        assert charged.read_requests_seq == sequential
        assert charged.read_requests_ran == 2 - sequential  # the index entry pair + the run


# -- a corrupt index raises from its own entry's charge -----------------------------


@pytest.fixture
def store(tmp_path):
    edges = random_edgelist(np.random.default_rng(8), 150, 1500)
    device = Device(tmp_path / "d", SimulatedDisk(HDD_PROFILE), checksums=True)
    return GridStore.build(edges, make_intervals(edges, 3), device, prefix="g")


def _entries(store):
    """A span, a gather and a span; the gather reads the end offset of block
    ``(1, 2)``, which the tests doctor."""
    ids = [np.arange(*store.intervals.bounds(i), dtype=np.int64)[-9:] for i in range(3)]
    return [(0, 0, ids[0], INDEX_SPAN), (1, 2, ids[1], INDEX_GATHER), (2, 1, ids[2], INDEX_SPAN)]


def _doctor(store, value):
    """Overwrite block ``(1, 2)``'s end offset behind the store's (and its
    CRC sidecar's) back."""
    index = np.memmap(store.device.root / "g.idx", dtype=np.int64, mode="r+")
    index[int(store._index_start[1, 2]) // 8 + store.intervals.size(1)] = value
    index.flush()


@pytest.mark.parametrize(
    "value, error",
    [(1 << 40, "gather run beyond end of file"), (0, "corrupt index: negative edge counts")],
)
def test_out_of_range_offset_raises_from_that_entry_only(store, value, error):
    unchecked = GridStore.open(Device(store.device.root, SimulatedDisk(HDD_PROFILE)), "g")
    entries = _entries(unchecked)
    want = [_single_read(unchecked, *entries[k], 64) for k in (0, 2)]
    _doctor(unchecked, value)
    first, doctored, last = unchecked.read_selective(entries, 64)  # never raises
    _same_block(first(), want[0])
    with pytest.raises(ValueError, match=error):
        doctored()
    _same_block(last(), want[1])


def test_checksummed_corrupt_index_fails_its_crc_before_any_bounds_check(store):
    _doctor(store, 1 << 40)
    first, doctored, last = store.read_selective(_entries(store), 64)
    with pytest.raises(ChecksumError, match="CRC32 mismatch"):
        first()  # the whole small index is one CRC chunk
    with pytest.raises(ChecksumError):
        doctored()


@pytest.mark.parametrize(
    "mode, error",
    [
        (INDEX_GATHER, "gather run beyond end of file"),
        (INDEX_SPAN, "read_slice beyond end of file"),
    ],
)
def test_truncated_index_raises_from_the_entry_it_cut_off(store, mode, error):
    unchecked = GridStore.open(Device(store.device.root, SimulatedDisk(HDD_PROFILE)), "g")
    entries = _entries(unchecked)
    entries[1] = entries[1][:3] + (mode,)
    want = [_single_read(unchecked, *entries[k], 64) for k in (0, 2)]
    # Column-major storage: (0, 0) and (2, 1) precede (1, 2), which is cut.
    os.truncate(store.device.root / "g.idx", int(unchecked._index_start[1, 2]))
    first, cut, last = unchecked.read_selective(entries, 64)
    _same_block(first(), want[0])
    with pytest.raises(ValueError, match=error):
        cut()
    _same_block(last(), want[1])


# -- ids outside the source interval are rejected like a bad span ------------------


@pytest.fixture(params=["raw", "compact3"])
def rmat_store(request, tmp_path):
    edges = rmat_edges(10, 8, seed=1)
    device = Device(tmp_path / request.param, SimulatedDisk(HDD_PROFILE))
    return GridStore.build(
        edges, make_intervals(edges, 4), device, prefix="g", encoding=request.param
    )


def _outside_ids(store):
    """Ids just past interval 0 and just below interval 1, each read as an
    id of the other interval's blocks; their offset pairs lie inside the
    index file, so only the interval check can reject them."""
    _, hi = store.intervals.bounds(0)
    return [(0, 0, np.array([hi + 3])), (1, 0, np.array([hi - 1]))]


@pytest.mark.parametrize("mode", MODES)
def test_an_id_outside_its_interval_raises_from_that_entry_only(rmat_store, mode):
    store = rmat_store
    ids = np.arange(*store.intervals.bounds(0), dtype=np.int64)
    want = _single_read(store, 0, 0, ids, mode, 64)
    for bad in _outside_ids(store):
        first, outside, last = store.read_selective(
            [(0, 0, ids, mode), (*bad, mode), (0, 0, ids, mode)], 64
        )
        assert outside.block.count == 0  # left unread
        _same_block(first(), want)
        before = store.device.disk.stats.snapshot()
        with pytest.raises(ValueError, match="bad index span"):
            outside()
        assert store.device.disk.stats.to_dict() == before.to_dict()  # nothing charged
        _same_block(last(), want)


def test_read_index_entries_rejects_ids_outside_the_interval(rmat_store):
    store = rmat_store
    size = store.intervals.size(0)
    assert store.read_index_entries(0, 0, np.array([size - 1])).shape == (1, 2)
    for local in ([size], [size + 3], [-1], [0, size]):
        with pytest.raises(ValueError, match="bad index span"):
            store.read_index_entries(0, 0, np.array(local))
