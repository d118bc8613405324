"""Simulated OS page cache.

The paper evaluates with the page cache disabled and direct I/O "for
fair comparison and evaluation of the I/O optimizations" (§5.1). This
module makes that methodological choice *testable*: an LRU page cache
can be attached to a :class:`~repro.storage.blockfile.Device`, after
which every file access is filtered through 4 KiB-page hit/miss logic —
only missed pages are charged to the simulated disk, and small reads
pay page-granularity amplification exactly like ``read(2)`` through the
kernel cache.

The accompanying ablation benchmark shows what the paper implies: with
a warm page cache holding a large share of the graph, the I/O-policy
differences between engines compress toward their compute costs, which
is why measuring I/O optimizations requires direct I/O.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Tuple

from repro.utils.validation import check_positive, check_nonneg

DEFAULT_PAGE_BYTES = 4096

PageKey = Tuple[Hashable, int]


@dataclass
class PageCacheStats:
    """Hit/miss accounting of one simulated page cache."""

    page_hits: int = 0
    page_misses: int = 0
    evictions: int = 0
    bytes_requested: int = 0
    bytes_missed: int = 0
    pages_invalidated: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.page_hits + self.page_misses
        return self.page_hits / total if total else 0.0


class PageCache:
    """LRU cache of (file, page-index) entries with a byte budget."""

    def __init__(
        self, capacity_bytes: int, page_bytes: int = DEFAULT_PAGE_BYTES
    ) -> None:
        check_nonneg(capacity_bytes, "capacity_bytes")
        check_positive(page_bytes, "page_bytes")
        self.page_bytes = int(page_bytes)
        self.capacity_pages = int(capacity_bytes) // self.page_bytes
        self._pages: "OrderedDict[PageKey, None]" = OrderedDict()
        self.stats = PageCacheStats()

    # -- core ------------------------------------------------------------

    def _page_range(self, offset: int, nbytes: int) -> range:
        if nbytes <= 0:
            return range(0)
        first = offset // self.page_bytes
        last = (offset + nbytes - 1) // self.page_bytes
        return range(first, last + 1)

    def _touch(self, key: PageKey) -> bool:
        """Mark a page accessed; returns True on hit."""
        if self.capacity_pages == 0:
            return False
        if key in self._pages:
            self._pages.move_to_end(key)
            return True
        self._pages[key] = None
        if len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)
            self.stats.evictions += 1
        return False

    def access(self, file_key: Hashable, offset: int, nbytes: int) -> int:
        """Register a read; returns the bytes that must come from disk.

        Missed pages are charged at full page granularity (kernel-style
        read amplification); hit pages cost nothing. The miss charge is
        never less than the page size per missed page, but is capped at
        page-aligned coverage of the request.
        """
        check_nonneg(offset, "offset")
        check_nonneg(nbytes, "nbytes")
        self.stats.bytes_requested += nbytes
        missed_pages = 0
        for page in self._page_range(offset, nbytes):
            if self._touch((file_key, page)):
                self.stats.page_hits += 1
            else:
                self.stats.page_misses += 1
                missed_pages += 1
        missed_bytes = missed_pages * self.page_bytes
        self.stats.bytes_missed += missed_bytes
        return missed_bytes

    def write(self, file_key: Hashable, offset: int, nbytes: int) -> None:
        """Register a write-through write (write-allocate: pages populate)."""
        for page in self._page_range(offset, nbytes):
            self._touch((file_key, page))

    def invalidate_file(self, file_key: Hashable) -> int:
        """Drop every cached page of one file; returns pages dropped."""
        victims = [k for k in self._pages if k[0] == file_key]
        for k in victims:
            del self._pages[k]
        self.stats.pages_invalidated += len(victims)
        return len(victims)

    def clear(self) -> None:
        self._pages.clear()

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageCache({self.resident_pages}/{self.capacity_pages} pages, "
            f"hit rate {self.stats.hit_rate:.2f})"
        )
