"""SubBlockBuffer: budget, priority eviction, accounting — unit + property."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer import SubBlockBuffer
from repro.graph.grid import EDGE_UNWEIGHTED_DTYPE, BlockHandle
from repro.storage.disk import SimulatedDisk


def make_block(i, j, count):
    """A handle over ``count`` raw records; the buffer reads only its
    bytes, so it needs no store behind it."""
    records = np.zeros(count, dtype=EDGE_UNWEIGHTED_DTYPE)
    records["src"] = np.arange(count)
    return BlockHandle(None, i, j, records)


BLOCK_BYTES = make_block(0, 0, 10).nbytes  # 80 bytes


def test_put_get_roundtrip():
    buf = SubBlockBuffer(10 * BLOCK_BYTES)
    b = make_block(0, 1, 10)
    assert buf.put((0, 1), b, priority=5)
    got = buf.get((0, 1))
    # The buffer keeps its own byte copy of the payload, equal in value.
    assert got is not b and not np.shares_memory(got.payload, b.payload)
    assert got.payload.dtype == b.payload.dtype
    assert np.array_equal(got.payload, b.payload)
    assert not got.payload.flags.writeable  # decoded blocks may view it
    assert (got.i, got.j, got.nbytes) == (0, 1, b.nbytes)
    assert buf.peek((0, 1)) is got
    assert (0, 1) in buf
    assert buf.priority_of((0, 1)) == 5
    assert len(buf) == 1


def test_miss_returns_none_and_counts():
    disk = SimulatedDisk()
    buf = SubBlockBuffer(1000, disk=disk)
    assert buf.get((9, 9)) is None
    buf.put((0, 0), make_block(0, 0, 5), 1)
    buf.get((0, 0))
    assert disk.stats.cache_misses == 1
    assert disk.stats.cache_hits == 1
    assert disk.stats.bytes_served_from_cache == make_block(0, 0, 5).nbytes
    assert disk.stats.buffer_hit_bytes == disk.stats.bytes_served_from_cache


def test_admitted_copy_pins_only_its_own_bytes():
    """A handle sliced from a larger read is stored as its own bytes."""
    column = np.zeros(30, dtype=EDGE_UNWEIGHTED_DTYPE)
    buf = SubBlockBuffer(10 * BLOCK_BYTES)
    assert buf.put((1, 0), BlockHandle(None, 1, 0, column[10:20]), priority=1)
    resident = buf.peek((1, 0)).payload
    root = resident
    while isinstance(root.base, np.ndarray):
        root = root.base
    assert root.nbytes == resident.nbytes == buf.used_bytes == BLOCK_BYTES
    assert not np.shares_memory(resident, column)


def test_budget_never_exceeded():
    buf = SubBlockBuffer(2 * BLOCK_BYTES)
    buf.put((0, 0), make_block(0, 0, 10), 1)
    buf.put((0, 1), make_block(0, 1, 10), 2)
    buf.put((0, 2), make_block(0, 2, 10), 3)
    assert buf.used_bytes <= buf.capacity_bytes
    assert len(buf) == 2


def test_lowest_priority_evicted_first():
    buf = SubBlockBuffer(2 * BLOCK_BYTES)
    buf.put((0, 0), make_block(0, 0, 10), priority=1)
    buf.put((0, 1), make_block(0, 1, 10), priority=5)
    assert buf.put((0, 2), make_block(0, 2, 10), priority=3)
    assert (0, 0) not in buf  # priority 1 was the victim
    assert (0, 1) in buf and (0, 2) in buf
    assert buf.evictions == 1


def test_insert_rejected_when_everything_resident_is_better():
    buf = SubBlockBuffer(2 * BLOCK_BYTES)
    buf.put((0, 0), make_block(0, 0, 10), priority=9)
    buf.put((0, 1), make_block(0, 1, 10), priority=8)
    assert not buf.put((0, 2), make_block(0, 2, 10), priority=1)
    assert (0, 2) not in buf
    assert buf.rejections == 1
    assert len(buf) == 2


def test_oversized_block_rejected():
    buf = SubBlockBuffer(BLOCK_BYTES)
    assert not buf.put((0, 0), make_block(0, 0, 100), priority=99)
    assert buf.rejections == 1


def test_zero_capacity_caches_nothing():
    buf = SubBlockBuffer(0)
    assert not buf.put((0, 0), make_block(0, 0, 1), 1)
    assert buf.get((0, 0)) is None


def test_reinsert_replaces_existing():
    buf = SubBlockBuffer(4 * BLOCK_BYTES)
    buf.put((0, 0), make_block(0, 0, 10), 1)
    bigger = make_block(0, 0, 20)
    buf.put((0, 0), bigger, 7)
    assert np.array_equal(buf.get((0, 0)).payload, bigger.payload)
    assert buf.priority_of((0, 0)) == 7
    assert len(buf) == 1
    assert buf.used_bytes == bigger.nbytes


def test_update_priority_changes_eviction_order():
    buf = SubBlockBuffer(2 * BLOCK_BYTES)
    buf.put((0, 0), make_block(0, 0, 10), priority=10)
    buf.put((0, 1), make_block(0, 1, 10), priority=1)
    buf.update_priority((0, 0), 0)  # demote
    buf.update_priority((9, 9), 5)  # absent: no-op
    buf.put((0, 2), make_block(0, 2, 10), priority=5)
    assert (0, 0) not in buf
    assert (0, 1) in buf


def test_invalidate_and_clear():
    buf = SubBlockBuffer(10 * BLOCK_BYTES)
    buf.put((0, 0), make_block(0, 0, 10), 1)
    buf.invalidate((0, 0))
    assert (0, 0) not in buf
    assert buf.evictions == 0  # invalidation is not an eviction
    buf.put((1, 1), make_block(1, 1, 10), 1)
    buf.clear()
    assert len(buf) == 0 and buf.used_bytes == 0


@settings(max_examples=150, deadline=None)
@given(
    capacity_blocks=st.integers(0, 6),
    ops=st.lists(
        st.tuples(
            st.integers(0, 9),  # key
            st.integers(1, 12),  # block count (size)
            st.integers(0, 100),  # priority
        ),
        max_size=40,
    ),
)
def test_buffer_invariants_hold_under_any_sequence(capacity_blocks, ops):
    capacity = capacity_blocks * BLOCK_BYTES
    buf = SubBlockBuffer(capacity)
    for key, count, priority in ops:
        buf.put((key, key), make_block(key, key, count), priority)
        # Invariant 1: never over budget.
        assert buf.used_bytes <= capacity
        # Invariant 2: used_bytes equals the sum of resident block sizes,
        # which are the bytes the buffer holds.
        assert buf.used_bytes == sum(h.payload.nbytes for h in buf._blocks.values())
        # Invariant 3: bookkeeping maps stay aligned.
        assert set(buf._blocks) == set(buf._priority)
