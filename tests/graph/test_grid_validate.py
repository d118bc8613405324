"""GridStore.validate(): accepts sound stores, catches corruption."""

import numpy as np
import pytest

from tests.conftest import build_store, random_edgelist


def test_fresh_store_validates(rng, tmp_path):
    store = build_store(random_edgelist(rng, 150, 1100), tmp_path, P=4)
    store.validate()  # no exception


def test_unindexed_store_validates(rng, tmp_path):
    store = build_store(
        random_edgelist(rng, 80, 500), tmp_path, P=3,
        indexed=False, sort_within_blocks=False, name="ni",
    )
    store.validate()


def test_detects_metadata_count_corruption(rng, tmp_path):
    store = build_store(random_edgelist(rng, 80, 500), tmp_path, P=3, name="c1")
    store.block_counts[0, 0] += 1
    with pytest.raises(ValueError):
        store.validate()


def test_detects_edge_data_corruption(rng, tmp_path):
    store = build_store(random_edgelist(rng, 80, 500), tmp_path, P=3, name="c2")
    # Flip one destination to a vertex outside its interval.
    records = np.fromfile(store._edges_file.path, dtype=store._edges_file.dtype)
    assert records.shape[0] > 0
    lo, hi = store.intervals.bounds(0)
    victim = None
    for k in range(records.shape[0]):
        if lo <= records["dst"][k] < hi:
            victim = k
            break
    records["dst"][victim] = store.num_vertices - 1  # belongs to the last interval
    records.tofile(store._edges_file.path)
    with pytest.raises(ValueError, match="destination id outside"):
        store.validate()


def test_detects_index_corruption(rng, tmp_path):
    store = build_store(random_edgelist(rng, 80, 600), tmp_path, P=2, name="c3")
    idx = np.fromfile(store._idx_file.path, dtype=np.int64)
    # Find a non-trivial interior offset to skew.
    interior = np.flatnonzero((idx > 0) & (idx < idx.max()))
    idx[interior[0]] += 1
    idx.tofile(store._idx_file.path)
    with pytest.raises(ValueError):
        store.validate()


def test_detects_destination_order_corruption(rng, tmp_path):
    store = build_store(random_edgelist(rng, 30, 900), tmp_path, P=2, name="c4")
    records = np.fromfile(store._edges_file.path, dtype=store._edges_file.dtype)
    # Two neighbours of one source run with distinct destinations in the
    # same interval: swapping them keeps every count and offset intact.
    same_run = (records["src"][1:] == records["src"][:-1]) & (
        records["dst"][1:] != records["dst"][:-1]
    )
    same_block = np.diff(store.intervals.interval_of(records["dst"])) == 0
    k = int(np.flatnonzero(same_run & same_block)[0])
    records["dst"][[k, k + 1]] = records["dst"][[k + 1, k]]
    records.tofile(store._edges_file.path)
    with pytest.raises(ValueError, match="not sorted by destination"):
        store.validate()
