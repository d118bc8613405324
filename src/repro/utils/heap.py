"""The allocator policy of a process that runs an engine: keep freed heap.

An engine's working set is bounded and recycled. Every block push
allocates and frees the same few per-edge arrays (the decoded block,
its sources and destinations widened to ``intp``, the gathered
contributions), and every selective chunk the same few per-id arrays.
With glibc's defaults, a free that leaves more than the *trim threshold*
free at the top of the heap returns it to the kernel, and the next block
faults the same pages back in, zero-filled. The threshold adapts to the
largest array the process has freed, a few MiB here, which is about one
large block's working set. An engine whose resident data no longer leaves
slack below the top of the heap then pays a page fault per 4 KiB of
every large push: ~4 µs each on the two-core benchmark host, 10-15 % of
a ``cc_compact3`` run (docs/PERFORMANCE.md, "Edge data inside the
buffer budget").

:func:`retain_freed_heap` fixes both thresholds once per process: arrays
under 32 MiB come from the heap, and freed heap goes back to the kernel
only past 64 MiB. Trimming never lowered a peak, so peak RSS stays a
high-water mark; serving large arrays from the heap instead of fresh
mappings can fragment it by about a MiB. Elsewhere than glibc it does
nothing.
"""

from __future__ import annotations

import ctypes
import functools
import sys

#: ``mallopt`` parameters (glibc ``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Arrays below this size come from the heap (glibc's dynamic maximum).
MMAP_THRESHOLD = 32 << 20
#: Free heap above this size is returned to the kernel.
TRIM_THRESHOLD = 64 << 20


@functools.lru_cache(maxsize=None)
def retain_freed_heap() -> bool:
    """Set the process's allocator to keep freed heap; once per process.

    Returns whether the policy is in effect (``False`` where the C
    library is not glibc).
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
