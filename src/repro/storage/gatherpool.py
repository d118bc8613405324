"""Bounded K-lane pool for SCIU's selective gathers (modeled parallelism).

SCIU's scatter phase issues many *independent* random reads — one merged
run set per active ``(i, j)`` block. The serial pipeline hides them
behind compute one at a time; a real system would keep several in flight
at once (DFOGraph's request-overlap observation). This pool models that:
the plan's load thunks are spread over ``lanes`` concurrent disk lanes
and the simulated time hidden by lane concurrency is credited back to
the dual-timeline clock.

Execution itself stays **serial and in plan order** — the pool delegates
to a single-worker :class:`~repro.storage.prefetch.BlockPrefetcher`, so
the disk-operation stream (charges, page-cache state, injected faults,
:class:`~repro.storage.faults.SimulatedCrash` delivery) is exactly the
serial stream and every existing fault/crash test stays bit-identical.
Only *accounting* is parallel:

* each thunk is instrumented at the worker so its own DISK charge and
  read-request count travel with the result (valid for the same reason
  :meth:`~repro.utils.timers.OverlapRegion.measure_fill` is: the single
  in-order worker is the only thread charging DISK during a scatter);
* at each **consumption point** the task is assigned to the currently
  least-busy lane (greedy argmin, ties to the lowest index) and the
  lane/queue counters are bumped. Consumption-point accounting makes the
  counters a pure function of the consumed plan prefix — deterministic
  even when speculative lookahead is abandoned by a crash;
* :meth:`finish` computes the round's lane saving
  ``sum(lane_busy) - max(lane_busy)`` and credits it to the open
  :class:`~repro.utils.timers.OverlapRegion` (pipelined runs) or
  directly to :meth:`~repro.utils.timers.SimClock.add_overlap_saving`
  (serial runs). Faulted/crashed rounds never reach ``finish`` and get
  no credit. With ``lanes=1`` the saving is identically zero, so K=1 is
  bit-identical to the pre-pool serial gather.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Callable,
    Generator,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.obs.trace import NULL_TRACER
from repro.storage.iostats import IOStats
from repro.storage.prefetch import BlockPrefetcher
from repro.utils.timers import DISK, OverlapRegion, SimClock
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from repro.obs import TracerLike

_T = TypeVar("_T")


class _Instrumented(Generic[_T]):
    """Wrap one load thunk so its I/O footprint travels with its result."""

    __slots__ = ("_task", "_clock", "_stats")

    def __init__(
        self, task: Callable[[], _T], clock: SimClock, stats: Optional[IOStats]
    ) -> None:
        self._task = task
        self._clock = clock
        self._stats = stats

    def _read_requests(self) -> int:
        stats = self._stats
        if stats is None:
            return 0
        return stats.read_requests_seq + stats.read_requests_ran

    def __call__(self) -> "Tuple[_T, float, int]":
        disk0 = self._clock.resource_elapsed(DISK)
        reqs0 = self._read_requests()
        result = self._task()
        disk1 = self._clock.resource_elapsed(DISK)
        reqs1 = self._read_requests()
        return (result, disk1 - disk0, reqs1 - reqs0)


class GatherPool:
    """Run a round's gather thunks with K-lane modeled disk concurrency.

    ``lanes`` is the modeled concurrency (K >= 1); ``depth`` is the
    lookahead of the underlying prefetcher (0 = inline/serial execution,
    as in :meth:`~repro.core.engine_base.EngineBase.make_prefetcher`).
    ``stats`` receives the ``gather_*`` observability counters — pass
    the simulated disk's :class:`IOStats` so they surface in results.
    """

    def __init__(
        self,
        lanes: int,
        depth: int,
        clock: SimClock,
        stats: Optional[IOStats] = None,
        tracer: "Optional[TracerLike]" = None,
    ) -> None:
        check_positive(lanes, "lanes")
        self.lanes = int(lanes)
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._prefetcher = BlockPrefetcher(depth, stats=stats, tracer=self.tracer)
        self._lock = threading.Lock()
        # The stats object is shared with the prefetcher (which guards its
        # own bumps); the gather_* fields are written only at consumption
        # points on the consuming thread, under _lock for the read-modify-
        # write against concurrent snapshot readers.
        self._stats = stats
        self._lane_busy: List[float] = [0.0] * self.lanes  # guarded-by: _lock
        self._lane_depth: List[int] = [0] * self.lanes  # guarded-by: _lock
        self._finished = False

    # -- consumption-point accounting ---------------------------------------

    def _account(self, disk_seconds: float, runs: int) -> int:
        """Assign one consumed task to the least-busy lane; bump counters."""
        with self._lock:
            lane = 0
            for k in range(1, self.lanes):
                if self._lane_busy[k] < self._lane_busy[lane]:
                    lane = k
            self._lane_busy[lane] += disk_seconds
            self._lane_depth[lane] += 1
            depth = self._lane_depth[lane]
            if self._stats is not None:
                self._stats.gather_runs_issued += runs
                self._stats.gather_lane_busy_seconds += disk_seconds
                if depth > self._stats.gather_queue_peak:
                    self._stats.gather_queue_peak = depth
        self.tracer.metrics.inc("gather.runs", runs)
        self.tracer.metrics.observe("gather.queue_depth", depth)
        return lane

    # -- execution ----------------------------------------------------------

    def run(self, tasks: Sequence[Callable[[], _T]]) -> "Generator[_T, None, None]":
        """Yield each task's result in plan order, accounting lanes.

        The returned generator owns the inner prefetcher's worker:
        closing or abandoning it cancels and joins exactly like
        :meth:`BlockPrefetcher.run`.
        """
        wrapped = [_Instrumented(task, self.clock, self._stats) for task in tasks]
        stream = self._prefetcher.run(wrapped)

        def consume() -> "Generator[_T, None, None]":
            try:
                for result, disk_seconds, runs in stream:
                    lane = self._account(disk_seconds, runs)
                    with self.tracer.span(
                        "gather.run",
                        cat="gather",
                        lane=lane,
                        runs=runs,
                        disk_seconds=disk_seconds,
                    ):
                        pass
                    yield result
            finally:
                stream.close()

        return consume()

    # -- round close --------------------------------------------------------

    @property
    def lane_busy_seconds(self) -> "List[float]":
        """Per-lane modeled busy time accumulated so far (a copy)."""
        with self._lock:
            return list(self._lane_busy)

    @property
    def saved_seconds(self) -> float:
        """DISK time hidden by lane concurrency: ``sum(busy) - max(busy)``."""
        with self._lock:
            if self.lanes <= 1:
                return 0.0
            return sum(self._lane_busy) - max(self._lane_busy)

    def finish(self, region: Optional[OverlapRegion] = None) -> float:
        """Credit the round's lane saving to the clock; returns the saving.

        Call once, after the consume loop completed *without* a fault or
        crash — aborted rounds keep their raw serial charges. With an
        open ``region`` the credit shortens the region's effective DISK
        timeline (composing with I/O–compute overlap without double
        counting: ``serial_seconds`` stays raw); without one it is folded
        straight into the clock's ``overlap_saved``.
        """
        with self._lock:
            if self._finished:
                raise RuntimeError("GatherPool.finish() called twice")
            self._finished = True
        saved = self.saved_seconds
        if saved > 0.0:
            if region is not None:
                region.add_disk_credit(saved)
            else:
                self.clock.add_overlap_saving(saved)
        return saved
