"""ArrayFile / Device: real file round trips + charging behaviour."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import blockfile
from repro.storage.blockfile import Device
from repro.storage.disk import DiskProfile, SimulatedDisk
from repro.storage.faults import FaultInjector, FaultPlan, FaultSpec, SimulatedCrash


@pytest.fixture
def disk():
    return SimulatedDisk(DiskProfile("t", 100.0, 100.0, 10.0, 10.0))


@pytest.fixture
def dev(tmp_path, disk):
    return Device(tmp_path / "d", disk)


def test_write_read_roundtrip(dev):
    f = dev.array_file("a.bin", np.int32)
    data = np.arange(100, dtype=np.int32)
    f.write(data)
    assert f.item_count == 100
    assert np.array_equal(f.read_all(), data)


def test_append_extends(dev):
    f = dev.array_file("a.bin", np.int32)
    f.write(np.arange(10, dtype=np.int32))
    f.append(np.arange(10, 20, dtype=np.int32))
    assert np.array_equal(f.read_all(), np.arange(20, dtype=np.int32))


def test_read_slice_and_bounds(dev):
    f = dev.array_file("a.bin", np.int64)
    f.write(np.arange(50, dtype=np.int64))
    assert np.array_equal(f.read_slice(10, 5), np.arange(10, 15))
    assert f.read_slice(0, 0).size == 0
    with pytest.raises(ValueError):
        f.read_slice(48, 5)
    with pytest.raises(ValueError):
        f.read_slice(-1, 2)


def test_overwrite_slice(dev):
    f = dev.array_file("a.bin", np.float32)
    f.write(np.zeros(10, dtype=np.float32))
    f.overwrite_slice(3, np.ones(4, dtype=np.float32))
    out = f.read_all()
    assert np.array_equal(out[3:7], np.ones(4, dtype=np.float32))
    assert out[:3].sum() == 0 and out[7:].sum() == 0
    with pytest.raises(ValueError):
        f.overwrite_slice(8, np.ones(4, dtype=np.float32))


def test_structured_dtype_roundtrip(dev):
    dt = np.dtype([("dst", np.uint32), ("wgt", np.float32)])
    f = dev.array_file("s.bin", dt)
    data = np.zeros(5, dtype=dt)
    data["dst"] = np.arange(5)
    data["wgt"] = 0.5
    f.write(data)
    out = f.read_all()
    assert np.array_equal(out["dst"], np.arange(5))
    assert np.allclose(out["wgt"], 0.5)


def test_read_gather_basic(dev):
    f = dev.array_file("g.bin", np.int64)
    f.write(np.arange(100, dtype=np.int64))
    out = f.read_gather(np.array([5, 20, 90]), np.array([3, 0, 2]))
    assert out.tolist() == [5, 6, 7, 90, 91]


def test_read_gather_bounds_checked(dev):
    f = dev.array_file("g.bin", np.int64)
    f.write(np.arange(10, dtype=np.int64))
    with pytest.raises(ValueError):
        f.read_gather(np.array([8]), np.array([4]))
    with pytest.raises(ValueError):
        f.read_gather(np.array([-1]), np.array([1]))


def test_charging_read_classes(dev, disk):
    f = dev.array_file("c.bin", np.int8)
    f.write(np.zeros(1000, dtype=np.int8))
    before = disk.stats.snapshot()
    f.read_all()
    assert (disk.stats - before).bytes_read_seq == 1000
    before = disk.stats.snapshot()
    f.read_slice(0, 100, sequential=False)
    assert (disk.stats - before).bytes_read_ran == 100
    before = disk.stats.snapshot()
    f.read_gather(
        np.array([0, 500]),
        np.array([10, 20]),
        seq_run_mask=np.array([True, False]),
    )
    diff = disk.stats - before
    assert diff.bytes_read_seq == 10
    assert diff.bytes_read_ran == 20
    assert diff.read_requests_seq == 1
    assert diff.read_requests_ran == 1


def test_charging_write_classes(dev, disk):
    f = dev.array_file("w.bin", np.int8)
    before = disk.stats.snapshot()
    f.write(np.zeros(64, dtype=np.int8))
    assert (disk.stats - before).bytes_written_seq == 64
    before = disk.stats.snapshot()
    f.overwrite_slice(0, np.ones(8, dtype=np.int8))
    assert (disk.stats - before).bytes_written_ran == 8


def test_device_dtype_conflict_rejected(dev):
    dev.array_file("x.bin", np.int32)
    with pytest.raises(ValueError):
        dev.array_file("x.bin", np.int64)


def test_device_bad_names_rejected(dev):
    for bad in ("", ".", "..", "a/b"):
        with pytest.raises(ValueError):
            dev.array_file(bad, np.int8)


def test_device_total_bytes_and_purge(dev):
    dev.array_file("a.bin", np.int8).write(np.zeros(10, dtype=np.int8))
    dev.array_file("b.bin", np.int8).write(np.zeros(20, dtype=np.int8))
    assert dev.total_bytes() == 30
    assert sorted(dev.file_names()) == ["a.bin", "b.bin"]
    dev.purge()
    assert dev.total_bytes() == 0


def test_gather_sees_truncation_between_two_gathers(dev, monkeypatch):
    """The mapping an earlier gather left behind must not outlive the
    file's size: every gather measures the file (once) before it reads."""
    f = dev.array_file("t.bin", np.int64)
    f.write(np.arange(100, dtype=np.int64))
    assert f.read_gather(np.array([90]), np.array([5])).tolist() == [90, 91, 92, 93, 94]
    os.truncate(f.path, 50 * 8)  # behind the handle's back
    with pytest.raises(ValueError, match="beyond end of file"):
        f.read_gather(np.array([90]), np.array([5]))

    # A run inside the shorter file is served from a fresh mapping.
    assert f.read_gather(np.array([40]), np.array([3])).tolist() == [40, 41, 42]

    stats = []
    real_stat = os.stat
    monkeypatch.setattr(os, "stat", lambda *a, **k: stats.append(a) or real_stat(*a, **k))
    assert f.read_gather(np.array([47]), np.array([3])).tolist() == [47, 48, 49]
    assert len(stats) == 1  # the bounds check and the staleness check share it


# -- write(): same-size rewrites land in place ---------------------------------


@pytest.fixture
def open_modes(monkeypatch):
    """The modes ``blockfile`` opens files with (``tofile(path)`` truncates
    without going through ``open``)."""
    modes = []

    def spy(path, mode="r", *args, **kwargs):
        modes.append(mode)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(blockfile, "open", spy, raising=False)
    return modes


def test_same_size_rewrite_is_in_place_with_identical_bytes_and_sidecar(
    tmp_path, disk, open_modes
):
    dev = Device(tmp_path / "d", disk, checksums=True)
    f = dev.array_file("s.bin", np.float64)
    f.write(np.zeros(20_000))  # three 64 KiB CRC chunks
    assert "r+b" not in open_modes
    before = disk.stats.snapshot()
    values = np.random.default_rng(0).random(20_000)
    f.write(values)

    assert "r+b" in open_modes
    assert f.path.read_bytes() == values.tobytes()
    assert (disk.stats - before).bytes_written_seq == values.nbytes
    # A fresh handle verifies every chunk against the rewritten sidecar.
    fresh = Device(tmp_path / "d", SimulatedDisk(), checksums=True).array_file("s.bin", np.float64)
    assert np.array_equal(fresh.read_all(), values)


def test_shorter_rewrite_truncates(dev, open_modes):
    f = dev.array_file("s.bin", np.int32)
    f.write(np.arange(100, dtype=np.int32))
    f.write(np.arange(10, dtype=np.int32))
    assert f.nbytes == 40
    assert np.array_equal(f.read_all(), np.arange(10, dtype=np.int32))
    f.write(np.empty(0, dtype=np.int32))
    assert f.nbytes == 0
    f.write(np.arange(3, dtype=np.int32))  # and grows again
    assert np.array_equal(f.read_all(), np.arange(3, dtype=np.int32))
    assert "r+b" not in open_modes


def test_empty_write_creates_a_missing_file(dev):
    f = dev.array_file("new.bin", np.int64)
    f.write(np.empty(0, dtype=np.int64))
    assert f.exists and f.nbytes == 0


def test_torn_same_size_rewrite_leaves_a_prefix_and_crashes(tmp_path, disk):
    disk.injector = FaultInjector(
        FaultPlan(specs=(FaultSpec("torn-write", "s.bin", at_op=2, fraction=0.25),))
    )
    f = Device(tmp_path / "d", disk).array_file("s.bin", np.int64)
    f.write(np.zeros(64, dtype=np.int64))
    with pytest.raises(SimulatedCrash):
        f.write(np.arange(64, dtype=np.int64))
    # The torn write replaces the file with the prefix that reached disk.
    assert np.array_equal(np.fromfile(f.path, dtype=np.int64), np.arange(16))


def test_missing_file_has_zero_bytes(dev):
    f = dev.array_file("never-written.bin", np.int64)
    assert f.nbytes == 0 and f.item_count == 0 and not f.exists


def test_mismatched_file_size_detected(dev):
    f = dev.array_file("m.bin", np.int32)
    f.write(np.arange(4, dtype=np.int32))
    # Corrupt the file to a non-multiple of itemsize.
    with open(f.path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(ValueError):
        _ = f.item_count


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=200),
    seed=st.integers(0, 2**16),
)
def test_gather_matches_fancy_indexing(tmp_path_factory, data, seed):
    rng = np.random.default_rng(seed)
    arr = np.asarray(data, dtype=np.int64)
    dev = Device(tmp_path_factory.mktemp("g"), SimulatedDisk())
    f = dev.array_file("p.bin", np.int64)
    f.write(arr)
    k = int(rng.integers(0, 10))
    starts = rng.integers(0, len(arr), k)
    counts = np.array([int(rng.integers(0, len(arr) - s + 1)) for s in starts])
    out = f.read_gather(starts, counts)
    expected = np.concatenate(
        [arr[s : s + c] for s, c in zip(starts, counts)]
    ) if k else np.empty(0, dtype=np.int64)
    assert np.array_equal(out, expected)
