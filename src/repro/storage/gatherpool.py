"""Bounded K-lane pool for SCIU's selective gathers (modeled parallelism).

SCIU's scatter phase issues many *independent* random reads — one merged
run set per active ``(i, j)`` block. The serial pipeline hides them
behind compute one at a time; a real system would keep several in flight
at once (DFOGraph's request-overlap observation). This pool models that:
the plan's load thunks are spread over ``lanes`` concurrent disk lanes
and the simulated time hidden by lane concurrency is credited back to
the dual-timeline clock.

Execution itself stays **serial and in plan order** — each thunk runs
inline where the consumer takes its result (:func:`run_load`), so the
disk-operation stream (charges, page-cache state, injected faults,
:class:`~repro.storage.faults.SimulatedCrash` delivery) is exactly the
serial stream and every existing fault/crash test stays bit-identical.
Only *accounting* is parallel:

* each thunk's own DISK charge and read-request count are measured
  around it (valid for the same reason
  :meth:`~repro.utils.timers.OverlapRegion.measure_fill` is: nothing
  else charges DISK while the thunk runs);
* at each **consumption point** the task is assigned to the currently
  least-busy lane (greedy argmin, ties to the lowest index) and the
  lane/queue counters are bumped, so the counters are a pure function
  of the consumed plan prefix;
* :meth:`finish` computes the round's lane saving
  ``sum(lane_busy) - max(lane_busy)`` and credits it to the open
  :class:`~repro.utils.timers.OverlapRegion` (pipelined runs) or
  directly to :meth:`~repro.utils.timers.SimClock.add_overlap_saving`
  (serial runs). Faulted/crashed rounds never reach ``finish`` and get
  no credit. With ``lanes=1`` the saving is identically zero, so K=1 is
  bit-identical to the pre-pool serial gather.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, TypeVar

from repro.obs.trace import NULL_TRACER
from repro.storage.iostats import IOStats
from repro.utils.timers import DISK, OverlapRegion, SimClock
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from repro.obs import TracerLike

_T = TypeVar("_T")


def run_load(tracer: "TracerLike", index: int, task: Callable[[], _T]) -> _T:
    """Run entry ``index`` of a block plan: its load thunk, inline, as a
    ``prefetch.load`` span counted in the ``prefetch.loads`` metric.

    Every plan consumer calls this where it uses the thunk's result, so
    pipelined and serial runs issue the same disk operations in the
    same order; pipelining only changes how the clock sums them.
    """
    with tracer.span("prefetch.load", cat="prefetch", index=index):
        result = task()
    tracer.metrics.inc("prefetch.loads")
    return result


class GatherPool:
    """Run a round's gather thunks with K-lane modeled disk concurrency.

    ``lanes`` is the modeled concurrency (K >= 1). ``stats`` receives
    the ``gather_*`` observability counters — pass the simulated disk's
    :class:`IOStats` so they surface in results.
    """

    def __init__(
        self,
        lanes: int,
        clock: SimClock,
        stats: Optional[IOStats] = None,
        tracer: "Optional[TracerLike]" = None,
    ) -> None:
        check_positive(lanes, "lanes")
        self.lanes = int(lanes)
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # The gather_* fields are written only at consumption points.
        self._stats = stats
        self._lane_busy: List[float] = [0.0] * self.lanes
        self._lane_depth: List[int] = [0] * self.lanes
        self._finished = False

    # -- consumption-point accounting ---------------------------------------

    def _account(self, disk_seconds: float, runs: int) -> int:
        """Assign one consumed task to the least-busy lane; bump counters."""
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

    def load(self, index: int, task: Callable[[], _T]) -> _T:
        """Run plan entry ``index``'s load thunk (:func:`run_load`) and
        assign its DISK time and read requests to a lane."""
        disk0 = self.clock.resource_elapsed(DISK)
        reqs0 = self._read_requests()
        result = run_load(self.tracer, index, task)
        disk_seconds = self.clock.resource_elapsed(DISK) - disk0
        runs = self._read_requests() - reqs0
        lane = self._account(disk_seconds, runs)
        with self.tracer.span(
            "gather.run", cat="gather", lane=lane, runs=runs, disk_seconds=disk_seconds
        ):
            pass
        return result

    def _read_requests(self) -> int:
        stats = self._stats
        if stats is None:
            return 0
        return stats.read_requests_seq + stats.read_requests_ran

    # -- round close --------------------------------------------------------

    @property
    def lane_busy_seconds(self) -> "List[float]":
        """Per-lane modeled busy time accumulated so far (a copy)."""
        return list(self._lane_busy)

    @property
    def saved_seconds(self) -> float:
        """DISK time hidden by lane concurrency: ``sum(busy) - max(busy)``."""
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
