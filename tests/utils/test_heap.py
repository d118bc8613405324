"""The engine process's allocator policy: freed heap is reused, not re-faulted."""

import resource
import sys

import numpy as np
import pytest

from repro.utils.heap import MMAP_THRESHOLD, retain_freed_heap

PAGE = 4096


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc only")
def test_freed_heap_is_reused_without_page_faults():
    if not retain_freed_heap():
        pytest.skip("the C library is not glibc")
    assert retain_freed_heap()  # once per process, then a no-op
    size = MMAP_THRESHOLD // 2  # a large block's working set, from the heap
    block = np.full(size, 1, dtype=np.uint8)  # touches every page
    del block
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    block = np.full(size, 2, dtype=np.uint8)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    del block
    # Freed, the pages stayed mapped: the second array faults (almost)
    # none of its 4096 pages back in.
    assert faults < size // PAGE // 16
