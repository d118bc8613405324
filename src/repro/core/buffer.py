"""Priority-based buffering of secondary sub-blocks (§4.3).

FCIU reads the *secondary* sub-blocks (lower triangle, ``i > j``) twice
per round: once in the first iteration's full sweep and once in the
second iteration. Their contents never change during computation, so
caching them turns the second read into a memory hit.

The paper's two observations shape the design:

1. memory cannot hold all secondary sub-blocks of a large graph, so the
   buffer has a hard byte budget (the harness sets it to the paper's
   5 %-of-graph-size memory regime);
2. after the first iteration of a round few vertices may remain active,
   so blocks are ranked by their number of *active edges* — a block with
   no active edges is worthless in the second iteration even though it
   was just read. Priorities are inserted provisionally at load time and
   updated "after the processing of this secondary sub-block in the
   first iteration", once the new frontier of the block's source
   interval is known; eviction removes the lowest-priority entry.

Entries are *encoded*: the buffer keeps each admitted block's on-disk
payload (a :class:`~repro.graph.grid.BlockHandle` over its own byte
copy) and a consumer decodes it on a hit, so the bytes the budget
accounts are the bytes the buffer holds.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.graph.grid import BlockHandle
from repro.storage.disk import SimulatedDisk
from repro.utils.validation import check_nonneg

BlockKey = Tuple[int, int]


class SubBlockBuffer:
    """Byte-budgeted cache of encoded sub-blocks with evict-min priority."""

    def __init__(self, capacity_bytes: int, disk: Optional[SimulatedDisk] = None) -> None:
        check_nonneg(capacity_bytes, "capacity_bytes")
        self.capacity_bytes = int(capacity_bytes)
        self.disk = disk
        self._blocks: Dict[BlockKey, BlockHandle] = {}
        self._priority: Dict[BlockKey, float] = {}
        self._used = 0
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0

    # -- introspection -------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._blocks

    def priority_of(self, key: BlockKey) -> Optional[float]:
        return self._priority.get(key)

    def peek(self, key: BlockKey) -> Optional[BlockHandle]:
        """The resident block under ``key`` without recording a hit or miss."""
        return self._blocks.get(key)

    # -- cache operations ----------------------------------------------

    def get(self, key: BlockKey) -> Optional[BlockHandle]:
        """Look up a block; records the hit (and its bytes) or the miss
        on the attached disk stats."""
        handle = self._blocks.get(key)
        if self.disk is not None:
            if handle is not None:
                self.disk.record_cache_hit(handle.nbytes)
            else:
                self.disk.record_cache_miss()
        return handle

    def put(self, key: BlockKey, handle: BlockHandle, priority: float) -> bool:
        """Insert (or refresh) a block.

        The entry is accounted at ``handle.nbytes``, the block's encoded
        size, and an admitted block is stored as its own byte copy
        (:meth:`~repro.graph.grid.BlockHandle.owned`) — never a view
        that pins the column it was read with.

        Evicts lowest-priority entries while the budget is exceeded, but
        never evicts entries with priority strictly greater than the
        incoming one to make room — in that case the insert is rejected.
        Returns whether the block is resident afterwards. Any previous
        entry under the same key is dropped first (a put is a content
        replacement), whether or not the new block ends up resident.
        """
        size = handle.nbytes
        if key in self._blocks:
            self._used -= self._blocks.pop(key).nbytes
            del self._priority[key]
        if size > self.capacity_bytes:
            self.rejections += 1
            return False

        while self._used + size > self.capacity_bytes:
            victim = min(self._priority, key=lambda k: (self._priority[k], k))
            if self._priority[victim] > priority:
                self.rejections += 1
                return False
            self._evict(victim)

        self._blocks[key] = handle.owned()
        self._priority[key] = float(priority)
        self._used += size
        self.insertions += 1
        return True

    def update_priority(self, key: BlockKey, priority: float) -> None:
        """Re-rank a resident block (no-op if absent)."""
        if key in self._priority:
            self._priority[key] = float(priority)

    def invalidate(self, key: BlockKey) -> None:
        if key in self._blocks:
            self._evict(key, count_eviction=False)

    def clear(self) -> None:
        self._blocks.clear()
        self._priority.clear()
        self._used = 0

    def _evict(self, key: BlockKey, count_eviction: bool = True) -> None:
        self._used -= self._blocks.pop(key).nbytes
        del self._priority[key]
        if count_eviction:
            self.evictions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubBlockBuffer({len(self)} blocks, {self._used}/{self.capacity_bytes} bytes, "
            f"{self.insertions} ins / {self.evictions} ev / {self.rejections} rej)"
        )
