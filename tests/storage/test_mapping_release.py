"""ArrayFile.release: a read mapping's resident pages can be dropped."""

import mmap

import numpy as np
import pytest

from repro.storage.blockfile import Device
from repro.storage.disk import SimulatedDisk
from tests.conftest import mapped_rss_bytes

MiB = 1 << 20


def _resident(f) -> int:
    rss = mapped_rss_bytes(f.path)
    if rss is None:
        pytest.skip("no /proc/self/smaps on this platform")
    return rss


@pytest.fixture
def dev(tmp_path):
    return Device(tmp_path / "d", SimulatedDisk())


def test_release_drops_the_pages_and_a_reread_is_identical(dev):
    if not hasattr(mmap, "MADV_DONTNEED"):
        pytest.skip("no madvise on this platform")
    f = dev.array_file("big.bin", np.uint64)
    data = np.arange(1 << 20, dtype=np.uint64) * 2654435761  # 8 MiB
    f.write(data)
    view = f.mapped()
    assert int(view[:: 4096 // 8].sum()) == int(data[:: 4096 // 8].sum())  # fault every page
    assert _resident(f) >= 4 * MiB
    before = f.disk.stats.to_dict()

    f.release()
    assert _resident(f) <= 64 << 10  # about nothing left mapped
    assert np.array_equal(view, data)  # the old view faults its pages back in
    assert np.array_equal(f.mapped(), data)
    assert f.disk.stats.to_dict() == before  # neither the drop nor the refault is charged


def test_release_without_a_mapping_is_a_no_op(dev):
    f = dev.array_file("small.bin", np.int32)
    f.release()  # never mapped
    f.write(np.arange(1000, dtype=np.int32))
    f.mapped()
    f.write(np.arange(1000, 2000, dtype=np.int32))  # invalidates the mapping
    f.release()
    assert np.array_equal(f.mapped(), np.arange(1000, 2000, dtype=np.int32))
    dev.array_file("missing.bin", np.int32).release()
