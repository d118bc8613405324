"""Stateful property testing of the two cache structures.

Hypothesis drives arbitrary operation sequences against a trivial
reference model, checking after every step that budgets hold and
contents agree — the class of bugs (stale bookkeeping after eviction
races, size drift on reinserts) that example-based tests miss.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.buffer import SubBlockBuffer
from repro.graph.grid import EDGE_UNWEIGHTED_DTYPE, BlockHandle
from repro.storage.pagecache import PageCache

BLOCK_UNIT = EDGE_UNWEIGHTED_DTYPE.itemsize


def make_block(key: int, units: int) -> BlockHandle:
    """A handle over ``units`` raw records tagged with ``key``; the buffer
    reads only its bytes, so it needs no store behind it."""
    records = np.zeros(units, EDGE_UNWEIGHTED_DTYPE)
    records["src"] = key
    return BlockHandle(None, key, key, records)


class BufferMachine(RuleBasedStateMachine):
    """SubBlockBuffer vs a dict-based reference."""

    def __init__(self):
        super().__init__()
        self.capacity_units = 8
        self.buffer = SubBlockBuffer(self.capacity_units * BLOCK_UNIT)
        self.model = {}  # key -> (units, priority)

    @rule(key=st.integers(0, 5), units=st.integers(1, 12), priority=st.integers(0, 50))
    def put(self, key, units, priority):
        resident = self.buffer.put((key, key), make_block(key, units), priority)
        if resident:
            self.model[key] = (units, priority)
        else:
            self.model.pop(key, None)
        # mirror evictions: drop model entries no longer resident
        self.model = {
            k: v for k, v in self.model.items() if (k, k) in self.buffer
        }

    @rule(key=st.integers(0, 5))
    def get(self, key):
        handle = self.buffer.get((key, key))
        if key in self.model:
            assert handle is not None
            assert handle.nbytes == self.model[key][0] * BLOCK_UNIT
            assert handle.payload.shape == (self.model[key][0],)
            assert (handle.payload["src"] == key).all()
        else:
            assert handle is None

    @rule(key=st.integers(0, 5), priority=st.integers(0, 50))
    def reprioritize(self, key, priority):
        self.buffer.update_priority((key, key), priority)
        if key in self.model:
            self.model[key] = (self.model[key][0], priority)

    @rule(key=st.integers(0, 5))
    def invalidate(self, key):
        self.buffer.invalidate((key, key))
        self.model.pop(key, None)

    @invariant()
    def budget_respected(self):
        assert self.buffer.used_bytes <= self.capacity_units * BLOCK_UNIT

    @invariant()
    def bookkeeping_consistent(self):
        assert self.buffer.used_bytes == sum(
            units * BLOCK_UNIT for units, _ in self.model.values()
        )
        assert len(self.buffer) == len(self.model)
        for key, (units, priority) in self.model.items():
            assert self.buffer.priority_of((key, key)) == priority


class PageCacheMachine(RuleBasedStateMachine):
    """PageCache vs a set-based reference with explicit LRU order."""

    PAGE = 64

    def __init__(self):
        super().__init__()
        self.capacity = 6
        self.cache = PageCache(self.capacity * self.PAGE, page_bytes=self.PAGE)
        self.lru = []  # page keys, least-recent first

    def _touch_model(self, file_key, offset, nbytes):
        if nbytes <= 0:
            return 0
        first = offset // self.PAGE
        last = (offset + nbytes - 1) // self.PAGE
        missed = 0
        for page in range(first, last + 1):
            key = (file_key, page)
            if key in self.lru:
                self.lru.remove(key)
            else:
                missed += 1
            self.lru.append(key)
            if len(self.lru) > self.capacity:
                self.lru.pop(0)
        return missed * self.PAGE

    @rule(
        f=st.sampled_from(["a", "b"]),
        offset=st.integers(0, 600),
        nbytes=st.integers(0, 300),
    )
    def access(self, f, offset, nbytes):
        got = self.cache.access(f, offset, nbytes)
        want = self._touch_model(f, offset, nbytes)
        assert got == want

    @rule(
        f=st.sampled_from(["a", "b"]),
        offset=st.integers(0, 600),
        nbytes=st.integers(0, 300),
    )
    def write(self, f, offset, nbytes):
        self.cache.write(f, offset, nbytes)
        self._touch_model(f, offset, nbytes)

    @rule(f=st.sampled_from(["a", "b"]))
    def invalidate(self, f):
        self.cache.invalidate_file(f)
        self.lru = [k for k in self.lru if k[0] != f]

    @invariant()
    def residency_matches(self):
        assert self.cache.resident_pages == len(self.lru)
        assert self.cache.resident_pages <= self.capacity


TestBufferMachine = BufferMachine.TestCase
TestBufferMachine.settings = settings(max_examples=60, deadline=None)
TestPageCacheMachine = PageCacheMachine.TestCase
TestPageCacheMachine.settings = settings(max_examples=60, deadline=None)
