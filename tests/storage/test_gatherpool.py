"""GatherPool unit + property tests: serial execution, lane accounting.

The pool's contract (docs/PERFORMANCE.md): tasks execute serially in
plan order, inline where the consumer loads them; lanes exist only in the
accounting, where a greedy argmin assigns each consumed task to the
least-busy lane; ``finish`` credits ``sum(busy) − max(busy)`` exactly
once, to the region when one is open and to the clock otherwise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.gatherpool import GatherPool
from repro.storage.iostats import IOStats
from repro.utils.timers import SimClock


def _charging_task(clock: SimClock, stats: IOStats, seconds: float, value: int):
    """Model one gather: one random read request charging DISK time."""

    def task():
        clock.charge("io_read", seconds)
        stats.read_requests_ran += 1
        return value

    return task


def _run_pool(lanes, durations):
    """Run one task per duration through a fresh pool; return the pool."""
    clock = SimClock()
    stats = IOStats()
    pool = GatherPool(lanes, clock=clock, stats=stats)
    tasks = [
        _charging_task(clock, stats, d, k) for k, d in enumerate(durations)
    ]
    results = [pool.load(k, task) for k, task in enumerate(tasks)]
    assert results == list(range(len(durations)))  # plan order preserved
    return pool, clock, stats


def test_lanes_must_be_positive():
    with pytest.raises(ValueError):
        GatherPool(0, clock=SimClock())


def test_single_lane_saves_nothing():
    pool, clock, stats = _run_pool(1, [0.5, 0.25, 0.125])
    assert pool.saved_seconds == 0.0
    assert pool.finish() == 0.0
    assert clock.overlap_saved == 0.0
    assert stats.gather_runs_issued == 3
    assert stats.gather_queue_peak == 3  # all on the one lane


def test_greedy_argmin_balances_equal_tasks():
    pool, _clock, stats = _run_pool(4, [1.0] * 8)
    assert pool.lane_busy_seconds == [2.0, 2.0, 2.0, 2.0]
    assert stats.gather_queue_peak == 2
    assert pool.saved_seconds == 8.0 - 2.0


def test_finish_credits_clock_outside_region():
    pool, clock, _stats = _run_pool(2, [1.0, 1.0])
    assert pool.finish() == 1.0
    assert clock.overlap_saved == 1.0
    assert clock.elapsed() == pytest.approx(1.0)  # 2s charged, 1s hidden


def test_finish_credits_open_region():
    clock = SimClock()
    stats = IOStats()
    pool = GatherPool(2, clock=clock, stats=stats)
    with clock.overlap_region() as region:
        for k in range(2):
            pool.load(k, _charging_task(clock, stats, 1.0, k))
        assert pool.finish(region) == 1.0
        assert region.disk_credit == 1.0


def test_finish_twice_raises():
    pool, _clock, _stats = _run_pool(2, [1.0])
    pool.finish()
    with pytest.raises(RuntimeError):
        pool.finish()


def test_errors_deliver_at_consumption_point():
    clock = SimClock()
    stats = IOStats()
    pool = GatherPool(2, clock=clock, stats=stats)

    def boom():
        raise OSError("lane fault")

    assert pool.load(0, _charging_task(clock, stats, 1.0, 0)) == 0
    with pytest.raises(OSError, match="lane fault"):
        pool.load(1, boom)
    # The failed load is not accounted to any lane.
    assert stats.gather_runs_issued == 1


def test_unfinished_pool_credits_nothing():
    """A faulted/crashed round never calls finish: charges stay raw."""
    _pool, clock, _stats = _run_pool(4, [1.0, 1.0, 1.0, 1.0])
    assert clock.overlap_saved == 0.0
    assert clock.elapsed() == pytest.approx(4.0)


@settings(max_examples=100, deadline=None)
@given(
    lanes=st.integers(1, 8),
    durations=st.lists(
        st.floats(0.0, 10.0, allow_nan=False), min_size=0, max_size=40
    ),
)
def test_accounting_invariants(lanes, durations):
    """Lane accounting is conservative and order-preserving for any K.

    * results come back in plan order (asserted inside ``_run_pool``);
    * every task lands on exactly one lane: depths sum to the task
      count and the queue peak is the max lane depth, bounded by
      ``ceil(n / lanes)`` (greedy argmin can never beat perfect
      balance) and ``n``;
    * ``saved = sum(busy) − max(busy)`` is nonnegative and zero at K=1;
    * the busy-seconds counter equals the per-lane total exactly (same
      additions in the same order).
    """
    pool, clock, stats = _run_pool(lanes, durations)
    n = len(durations)
    busy = pool.lane_busy_seconds
    assert len(busy) == lanes
    assert stats.gather_runs_issued == n
    if n:
        assert 1 <= stats.gather_queue_peak <= n
        assert stats.gather_queue_peak >= -(-n // lanes)
    else:
        assert stats.gather_queue_peak == 0
    saved = pool.saved_seconds
    assert saved >= 0.0
    if lanes == 1:
        assert saved == 0.0
    else:
        assert saved == sum(busy) - max(busy)
    # Credited saving can never exceed what was actually charged.
    assert pool.finish() <= clock.elapsed() + saved
    assert clock.overlap_saved == saved


@settings(max_examples=60, deadline=None)
@given(
    durations=st.lists(
        st.floats(0.01, 5.0, allow_nan=False), min_size=2, max_size=20
    )
)
def test_more_lanes_never_save_less(durations):
    """Monotonicity: the modeled saving is nondecreasing in K (up to
    float rounding — different lane partitions sum in different orders,
    so allow an ulp-scale slack)."""
    slack = 1e-12 * max(1.0, sum(durations))
    previous = -1.0
    for lanes in (1, 2, 4, 8):
        pool, _clock, _stats = _run_pool(lanes, durations)
        assert pool.saved_seconds >= previous - slack
        previous = pool.saved_seconds
