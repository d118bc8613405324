"""SimClock / WallTimer / TimeBreakdown behaviour."""

import time

import pytest

from repro.utils.timers import (
    COMPUTE,
    CPU,
    DISK,
    IO_READ,
    IO_WRITE,
    SCHEDULING,
    SimClock,
    TimeBreakdown,
    WallTimer,
)


def test_clock_accumulates_per_component():
    c = SimClock()
    c.charge(IO_READ, 1.5)
    c.charge(IO_READ, 0.5)
    c.charge(COMPUTE, 0.25)
    assert c.elapsed(IO_READ) == pytest.approx(2.0)
    assert c.elapsed(COMPUTE) == pytest.approx(0.25)
    assert c.elapsed() == pytest.approx(2.25)
    assert c.elapsed("missing") == 0.0


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        SimClock().charge(IO_READ, -1.0)


def test_snapshot_is_independent():
    c = SimClock()
    c.charge(IO_READ, 1.0)
    snap = c.snapshot()
    c.charge(IO_READ, 1.0)
    assert snap.components[IO_READ] == pytest.approx(1.0)
    assert c.elapsed(IO_READ) == pytest.approx(2.0)


def test_snapshot_subtraction_gives_phase_times():
    c = SimClock()
    c.charge(IO_READ, 1.0)
    before = c.snapshot()
    c.charge(IO_READ, 0.5)
    c.charge(IO_WRITE, 0.25)
    diff = c.snapshot() - before
    assert diff.components[IO_READ] == pytest.approx(0.5)
    assert diff.io == pytest.approx(0.75)
    assert diff.total == pytest.approx(0.75)


def test_breakdown_sum_mirrors_subtraction():
    a = TimeBreakdown({IO_READ: 1.0, COMPUTE: 0.5}, overlap_saved=0.25)
    b = TimeBreakdown({SCHEDULING: 0.125, IO_READ: 2.0}, overlap_saved=0.5)
    total = a + b
    assert list(total.components) == sorted({IO_READ, COMPUTE, SCHEDULING})
    assert total.components == {COMPUTE: 0.5, IO_READ: 3.0, SCHEDULING: 0.125}
    assert total.overlap_saved == 0.75
    assert total.total == a.total + b.total
    assert (total - b).components == {COMPUTE: 0.5, IO_READ: 1.0, SCHEDULING: 0.0}


def test_breakdown_io_compute_scheduling_properties():
    b = TimeBreakdown({IO_READ: 1.0, IO_WRITE: 2.0, COMPUTE: 3.0, SCHEDULING: 0.5})
    assert b.io == pytest.approx(3.0)
    assert b.compute == pytest.approx(3.0)
    assert b.scheduling == pytest.approx(0.5)
    assert b.total == pytest.approx(6.5)


def test_clock_merge_and_reset():
    a, b = SimClock(), SimClock()
    a.charge(IO_READ, 1.0)
    b.charge(IO_READ, 2.0)
    b.charge(COMPUTE, 1.0)
    a.merge(b)
    assert a.elapsed(IO_READ) == pytest.approx(3.0)
    assert a.elapsed() == pytest.approx(4.0)
    a.reset()
    assert a.elapsed() == 0.0


def test_walltimer_measures_elapsed_time():
    with WallTimer() as t:
        time.sleep(0.01)
    assert t.elapsed >= 0.01


def test_walltimer_misuse_raises():
    t = WallTimer()
    with pytest.raises(RuntimeError):
        t.stop()
    t.start()
    with pytest.raises(RuntimeError):
        t.start()


# -- dual timelines and overlap regions ---------------------------------


def test_resource_elapsed_splits_disk_and_cpu():
    c = SimClock()
    c.charge(IO_READ, 1.0)
    c.charge(IO_WRITE, 0.5)
    c.charge(COMPUTE, 2.0)
    c.charge(SCHEDULING, 0.25)
    c.charge("custom-label", 0.25)  # unknown components are CPU
    assert c.resource_elapsed(DISK) == pytest.approx(1.5)
    assert c.resource_elapsed(CPU) == pytest.approx(2.5)


def test_overlap_region_hides_min_of_io_and_compute():
    """io 2s + compute 3s + fill 0.5s -> total 3.5s, saved 1.5s."""
    c = SimClock()
    with c.overlap_region() as region:
        c.charge(IO_READ, 2.0)
        c.charge(COMPUTE, 3.0)
        region.add_fill(0.5)
    assert c.overlap_saved == pytest.approx(1.5)
    assert c.elapsed() == pytest.approx(3.5)
    # Per-component breakdowns stay exact (conservation).
    assert c.elapsed(IO_READ) == pytest.approx(2.0)
    assert c.elapsed(COMPUTE) == pytest.approx(3.0)
    snap = c.snapshot()
    assert snap.serial_total == pytest.approx(5.0)
    assert snap.total == pytest.approx(snap.serial_total - snap.overlap_saved)


def test_overlap_region_never_slower_than_serial():
    """A huge fill is clamped: the region charges at most the serial sum."""
    c = SimClock()
    with c.overlap_region() as region:
        c.charge(IO_READ, 1.0)
        c.charge(COMPUTE, 0.1)
        region.add_fill(10.0)
    assert c.overlap_saved == 0.0
    assert c.elapsed() == pytest.approx(1.1)


def test_overlap_region_with_one_idle_resource_saves_nothing():
    c = SimClock()
    with c.overlap_region():
        c.charge(IO_READ, 2.0)  # no compute to hide
    assert c.overlap_saved == 0.0
    c2 = SimClock()
    with c2.overlap_region():
        c2.charge(COMPUTE, 2.0)  # no I/O to hide behind
    assert c2.overlap_saved == 0.0


def test_charges_outside_region_are_serial():
    c = SimClock()
    c.charge(IO_READ, 1.0)
    with c.overlap_region():
        c.charge(IO_READ, 1.0)
        c.charge(COMPUTE, 1.0)
    c.charge(COMPUTE, 1.0)
    # Only the in-region min(io, compute) is hidden (no fill declared).
    assert c.overlap_saved == pytest.approx(1.0)
    assert c.elapsed() == pytest.approx(3.0)


def test_overlap_regions_do_not_nest():
    c = SimClock()
    with c.overlap_region():
        with pytest.raises(RuntimeError, match="nest"):
            c.overlap_region().__enter__()


def test_measure_fill_records_task_disk_time():
    c = SimClock()
    with c.overlap_region() as region:
        def first_load():
            c.charge(IO_READ, 0.25)
            c.charge(COMPUTE, 0.5)  # decode compute is not fill
            return "block"

        wrapped = region.measure_fill(first_load)
        assert wrapped() == "block"
        c.charge(IO_READ, 1.75)
        c.charge(COMPUTE, 2.5)
    assert region.fill_seconds == pytest.approx(0.25)
    # serial 5.0, pipelined max(2.0, 3.0) + 0.25 = 3.25
    assert c.overlap_saved == pytest.approx(1.75)


def test_retry_backoff_lands_on_disk_timeline_inside_region():
    """Fault-injection retry back-off is disk time: it must overlap."""
    from repro.storage import SimulatedDisk, HDD_PROFILE

    disk = SimulatedDisk(HDD_PROFILE)
    c = disk.clock
    with c.overlap_region() as region:
        disk.charge_retry_backoff(0.05)
        c.charge(COMPUTE, 10.0)
    assert region.disk_seconds > 0.0
    assert c.overlap_saved == pytest.approx(region.disk_seconds)


def test_snapshot_algebra_carries_overlap_saved():
    c = SimClock()
    with c.overlap_region():
        c.charge(IO_READ, 2.0)
        c.charge(COMPUTE, 1.0)
    before = c.snapshot()
    with c.overlap_region():
        c.charge(IO_READ, 4.0)
        c.charge(COMPUTE, 3.0)
    diff = c.snapshot() - before
    assert diff.overlap_saved == pytest.approx(3.0)
    assert diff.total == pytest.approx(7.0 - 3.0)
    assert diff.serial_total == pytest.approx(7.0)


def test_merge_and_reset_carry_overlap_saved():
    a, b = SimClock(), SimClock()
    with b.overlap_region():
        b.charge(IO_READ, 1.0)
        b.charge(COMPUTE, 1.0)
    a.merge(b)
    assert a.overlap_saved == pytest.approx(1.0)
    assert a.elapsed() == pytest.approx(1.0)
    a.reset()
    assert a.overlap_saved == 0.0


def test_concurrent_charging_is_consistent():
    """Worker charges DISK while the consumer charges CPU (smoke)."""
    import threading

    c = SimClock()
    n = 200

    def io_worker():
        for _ in range(n):
            c.charge(IO_READ, 0.001)

    with c.overlap_region():
        t = threading.Thread(target=io_worker)
        t.start()
        for _ in range(n):
            c.charge(COMPUTE, 0.002)
        t.join()
    assert c.elapsed(IO_READ) == pytest.approx(n * 0.001)
    assert c.elapsed(COMPUTE) == pytest.approx(n * 0.002)
    assert c.overlap_saved == pytest.approx(n * 0.001)




def _charge_run(clock):
    """The same sequence of charges, including an overlap region."""
    for seconds in (0.1, 0.2, 0.3, 1e-9, 0.7):
        clock.charge(IO_READ, seconds)
    with clock.overlap_region() as region:
        clock.charge(IO_READ, 2.0)
        clock.charge(COMPUTE, 2.0)
        region.add_fill(0.5)


def test_window_on_the_clocks_reading_tracks_the_clock_bit_for_bit():
    c = SimClock()
    c.charge(IO_READ, 98.7)
    c.open_window(c.snapshot())
    _charge_run(c)
    assert c.read_window() == c.snapshot()
    window = c.close_window()
    c.charge(COMPUTE, 1.0)  # closed: no longer added to
    assert window.components[COMPUTE] == 2.0
    with pytest.raises(AssertionError):
        c.read_window()


def test_window_differences_do_not_depend_on_the_clocks_history():
    """Charges summed onto one base round alike on a fresh clock and on
    one that already accumulated other runs' charges."""
    base = TimeBreakdown({IO_READ: 98.7, IO_WRITE: 1234.5678})
    fresh, reused = SimClock(), SimClock()
    reused.charge(IO_READ, 98.7 + 1 / 3)
    _charge_run(reused)  # an earlier run
    results = []
    for clock in (fresh, reused):
        clock.open_window(base)
        _charge_run(clock)
        results.append(clock.close_window() - base)
    assert results[0] == results[1]
    assert results[0].overlap_saved == 1.5
