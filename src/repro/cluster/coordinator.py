"""The cluster coordinator: BSP supersteps, recovery, degradation.

:class:`ClusterEngine` drives N :class:`~repro.cluster.worker.ClusterWorker`
shards through the superstep phases (compute → broadcast → absorb →
checkpoint) over a modeled :class:`~repro.cluster.interconnect.Interconnect`,
and owns the three robustness behaviors this package exists for:

**Crash recovery.** A worker dying mid-superstep (an injected
:class:`~repro.storage.faults.SimulatedCrash` at any named crash point)
is rolled back to its last durable checkpoint; its peers replay their
retained outbound logs to rebuild the lost inbox, and the superstep is
re-entered — the phase done-markers make every already-finished worker
skip, so only the recovered shard re-executes. The cut is consistent by
construction (checkpoints carry the message watermarks; logs are only
released once every worker's *later* checkpoint has committed), so the
post-recovery run is bit-identical to a failure-free one.

**Message-fault absorption** lives in the interconnect (retry/backoff on
drop and corruption, seq dedup on duplication); the coordinator just
surfaces the counters in ``RunResult.recovery``.

**Straggler degradation.** After each superstep the coordinator compares
per-worker simulated superstep times; a worker exceeding
``straggler_factor ×`` the median deadline is declared dead, its columns
are dealt deterministically over the survivors, and the survivors adopt
the orphaned slices from the dead shard's (durable) checkpoint — the run
finishes correctly on N−1 workers.

Timeline composition: each barrier contributes ``max`` over the live
workers' superstep times to the cluster's elapsed time; the difference
to the serial sum is folded into ``TimeBreakdown.overlap_saved``, so the
reported breakdown keeps the repo-wide invariant
``total == sum(components) − overlap_saved`` while per-component charges
stay exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.algorithms.base import GraphContext, VertexProgram
from repro.cluster.interconnect import (
    DEFAULT_INTERCONNECT,
    Interconnect,
    InterconnectProfile,
)
from repro.cluster.membership import ColumnAssignment, Membership
from repro.cluster.worker import ClusterWorker
from repro.core.engine_base import open_run, record_iteration, scan_context
from repro.core.result import IterationRecord, RunResult
from repro.obs import NULL_TRACER, Tracer, TracerLike, write_trace_file
from repro.obs.distributed import merge_cluster_trace
from repro.storage.disk import DEFAULT_MACHINE, MachineProfile
from repro.storage.faults import (
    MESSAGE_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
)
from repro.storage.iostats import IOStats
from repro.utils.timers import TimeBreakdown, WallTimer
from repro.utils.validation import require

#: Crash-point (and fault-pattern) names may pin one worker: ``"w2:pre-compute"``
#: fires only on worker 2; an unprefixed name applies to every worker.
_WORKER_PREFIX = re.compile(r"^w(\d+):(.+)$")


def worker_fault_plan(plan: Optional[FaultPlan], wid: int) -> Optional[FaultPlan]:
    """The slice of ``plan`` that worker ``wid``'s own injector consumes.

    Message faults are routed to the interconnect instead
    (:func:`interconnect_fault_plan`); crash points named
    ``"w{wid}:NAME"`` are unwrapped to ``NAME`` for that worker and
    dropped for every other.
    """
    if plan is None:
        return None
    specs = tuple(s for s in plan.specs if s.kind not in MESSAGE_FAULT_KINDS)
    points: Dict[str, int] = {}
    for name, hit in plan.crash_points.items():
        m = _WORKER_PREFIX.match(name)
        if m is None:
            points[name] = int(hit)
        elif int(m.group(1)) == wid:
            points[m.group(2)] = int(hit)
    if not specs and not points:
        return None
    return FaultPlan(specs=specs, crash_points=points, seed=plan.seed)


def interconnect_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """The ``msg-*`` slice of ``plan``, consumed by the interconnect."""
    if plan is None:
        return None
    specs = tuple(s for s in plan.specs if s.kind in MESSAGE_FAULT_KINDS)
    if not specs:
        return None
    return FaultPlan(specs=specs, seed=plan.seed)


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of one simulated cluster."""

    workers: int = 4
    interconnect: InterconnectProfile = DEFAULT_INTERCONNECT
    machine: MachineProfile = DEFAULT_MACHINE
    #: Per-worker disk bandwidth factors (< 1 = slower: the straggler
    #: model). Workers not listed run the unmodified machine profile.
    worker_disk_factors: Mapping[int, float] = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None
    #: A worker whose superstep exceeds ``straggler_factor × median`` is
    #: degraded out of the cluster. ``None`` disables detection.
    straggler_factor: Optional[float] = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.workers >= 1, f"workers must be >= 1, got {self.workers}")
        if self.straggler_factor is not None:
            require(
                self.straggler_factor > 1.0,
                "straggler_factor must exceed 1.0 (the median itself)",
            )

    def machine_for(self, wid: int) -> MachineProfile:
        factor = dict(self.worker_disk_factors).get(wid)
        if factor is None:
            return self.machine
        return self.machine.with_disk(self.machine.disk.scaled(factor))


class ClusterEngine:
    """Sharded multi-worker execution of one vertex program."""

    engine_name = "cluster"

    def __init__(
        self,
        grid_root: Path,
        prefix: str,
        workspace: Path,
        config: ClusterConfig,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        self.grid_root = Path(grid_root)
        self.prefix = prefix
        self.workspace = Path(workspace)
        self.config = config
        self.ctx = ctx
        self.tracer: TracerLike = NULL_TRACER
        self._trace_path: Optional[str] = None

        # Populated per run:
        self.workers: List[ClusterWorker] = []
        self._worker_tracers: Dict[int, Tracer] = {}
        self.membership: Optional[Membership] = None
        self.assignment: Optional[ColumnAssignment] = None
        self.net: Optional[Interconnect] = None
        self._current_worker = -1
        self._records: List[IterationRecord] = []
        self._fault_events: List[str] = []
        self._recovery_counts = {"worker_recoveries": 0, "stragglers_degraded": 0}
        self._cluster_elapsed = 0.0

    # -- observability ------------------------------------------------------

    def attach_tracer(self, tracer: TracerLike, path: Optional[str] = None) -> None:
        """Attach an observability tracer to the whole cluster.

        The coordinator emits barrier folds, iteration records, and
        recovery events on cluster time; at run start every worker gets
        its own child :class:`~repro.obs.trace.Tracer` (sharing this
        tracer's clockless event machinery and metrics registry) for
        phase spans and message sends on its local clock. When ``path``
        is given, the run's end writes the **merged** distributed trace
        (see :mod:`repro.obs.distributed`) there — never a partial
        events-only file.
        """
        self.tracer = tracer
        self._trace_path = path

    def _trace_recovery(self, worker: int, event: str, superstep: int, **detail: Any) -> None:
        if self.tracer.enabled:
            self.tracer.recovery(
                {
                    "worker": worker,
                    "event": event,
                    "superstep": superstep,
                    "detail": dict(detail),
                }
            )

    # -- setup --------------------------------------------------------------

    def _build_workers(self) -> None:
        cfg = self.config
        self.membership = Membership(cfg.workers)
        self.workers = []
        for wid in range(cfg.workers):
            plan = worker_fault_plan(cfg.fault_plan, wid)
            self.workers.append(
                ClusterWorker(
                    wid=wid,
                    grid_root=self.grid_root,
                    prefix=self.prefix,
                    scratch_root=self.workspace,
                    machine=cfg.machine_for(wid),
                    num_workers=cfg.workers,
                    injector=FaultInjector(plan) if plan is not None else None,
                )
            )
        net_plan = interconnect_fault_plan(cfg.fault_plan)
        self.net = Interconnect(
            cfg.interconnect,
            injector=FaultInjector(net_plan) if net_plan is not None else None,
            seed=cfg.seed,
        )
        self._worker_tracers = {}
        if isinstance(self.tracer, Tracer):
            # Child tracers share the coordinator's metrics registry so
            # the final snapshot (and IterationRecord.metrics) covers
            # disk + network counters across every worker.
            for w in self.workers:
                wt = Tracer(clock=w.clock, metrics=self.tracer.metrics)
                self._worker_tracers[w.wid] = wt
                w.tracer = wt
                w.disk.metrics = self.tracer.metrics
            self.net.metrics = self.tracer.metrics
        P = self.workers[0].store.P
        require(
            cfg.workers <= P,
            f"cannot run {cfg.workers} workers on a P={P} grid",
        )
        self.assignment = ColumnAssignment(P, cfg.workers)

    # -- barrier timeline ----------------------------------------------------

    def _live_workers(self) -> List[ClusterWorker]:
        return [self.workers[w] for w in self.membership.live]

    def _barrier_tokens(self) -> Dict[int, Tuple[TimeBreakdown, IOStats]]:
        return {
            w.wid: (w.clock.snapshot(), w.disk.stats.snapshot())
            for w in self._live_workers()
        }

    def _fold_barrier(
        self,
        tokens: Dict[int, Tuple[TimeBreakdown, IOStats]],
        superstep: int,
        kind: str,
    ) -> Tuple[TimeBreakdown, IOStats, Dict[int, float]]:
        """Close one barrier: elapsed = max over workers; rest is overlap.

        Returns the barrier's summed breakdown (with the parallel saving
        folded into ``overlap_saved``), its summed IOStats delta, and the
        per-worker elapsed deltas (the straggler detector's input).
        Workers that died inside the barrier window are skipped: a dead
        machine's clock never ticks the cluster, so post-mortem charges
        (survivors reading the dead shard's checkpoint) stay out of it.

        A traced run also emits one ``barrier`` event carrying, per
        worker, the exact delta with its component charges and the
        worker-local clock reading at the barrier's opening edge — the
        anchors the trace merger and critical-path analyzer replay.
        """
        deltas: Dict[int, float] = {}
        per_worker: Dict[int, TimeBreakdown] = {}
        summed = TimeBreakdown()
        io = IOStats()
        for wid, (clock_before, stats_before) in tokens.items():
            if not self.membership.is_live(wid):
                continue
            w = self.workers[wid]
            d = w.clock.snapshot() - clock_before
            deltas[wid] = d.total
            per_worker[wid] = d
            summed = summed + d
            io = io + (w.disk.stats - stats_before)
        if deltas:
            saved = sum(deltas.values()) - max(deltas.values())
            summed = TimeBreakdown(
                dict(summed.components), overlap_saved=summed.overlap_saved + saved
            )
        sim_start = self._cluster_elapsed
        self._cluster_elapsed += summed.total
        if self.tracer.enabled:
            self.tracer.barrier(
                {
                    "superstep": superstep,
                    "kind": kind,
                    "sim_start": sim_start,
                    "workers": {
                        str(wid): {
                            "delta": d.total,
                            "components": dict(d.components),
                            "saved": d.overlap_saved,
                            "local_start": tokens[wid][0].total,
                        }
                        for wid, d in sorted(per_worker.items())
                    },
                    "sim_seconds": summed.total,
                    "sim": dict(summed.components),
                    "overlap_saved": summed.overlap_saved,
                }
            )
        return summed, io, deltas

    # -- superstep execution -------------------------------------------------

    def _run_superstep_phases(self, superstep: int) -> None:
        """One phase-ordered pass over the live workers (re-enterable)."""
        live = self._live_workers()
        for w in live:
            self._current_worker = w.wid
            w.compute(superstep)
        for w in live:
            self._current_worker = w.wid
            w.broadcast(superstep, live, self.net)
        for w in live:
            self._current_worker = w.wid
            w.absorb(superstep)
        for w in live:
            self._current_worker = w.wid
            w.checkpoint(superstep)
        self._current_worker = -1

    def _recover_worker(self, wid: int, superstep: int) -> None:
        """Roll ``wid`` back to its checkpoint and rebuild its inbox."""
        w = self.workers[wid]
        self._recovery_counts["worker_recoveries"] += 1
        restored = w.restore()
        self._fault_events.append(f"crash-recovery:w{wid}@superstep{superstep}")
        self._trace_recovery(wid, "rollback", superstep, restored_to=restored)
        for peer in self._live_workers():
            if peer.wid == wid:
                continue
            peer.replay_to(w, self.net)
        w.apply_replayed(restored)
        self._trace_recovery(
            wid, "replay", superstep, restored_to=restored, inbox=len(w.inbox)
        )

    def _run_superstep(self, superstep: int) -> int:
        """Execute one superstep, recovering every injected crash.

        Returns the number of crash recoveries performed.
        """
        recoveries = 0
        while True:
            try:
                self._run_superstep_phases(superstep)
                return recoveries
            except SimulatedCrash:
                crashed = self._current_worker
                require(crashed >= 0, "crash outside any worker's phase")
                recoveries += 1
                require(
                    recoveries <= 3 * len(self.workers),
                    "crash-recovery loop did not converge",
                )
                self._recover_worker(crashed, superstep)

    # -- straggler degradation ----------------------------------------------

    def _check_straggler(self, deltas: Dict[int, float], superstep: int) -> bool:
        """Degrade the worst deadline violator; True if one was evicted."""
        factor = self.config.straggler_factor
        if factor is None or len(deltas) < 2:
            return False
        ordered = sorted(deltas.values())
        mid = len(ordered) // 2
        median = (
            ordered[mid]
            if len(ordered) % 2
            else 0.5 * (ordered[mid - 1] + ordered[mid])
        )
        if median <= 0.0:
            return False
        worst = max(sorted(deltas), key=lambda wid: deltas[wid])
        if deltas[worst] <= factor * median:
            return False
        self._degrade_worker(worst, superstep, deltas[worst], median)
        return True

    def _degrade_worker(
        self, dead: int, superstep: int, delta: float, median: float
    ) -> None:
        """Evict ``dead`` and move its columns to the survivors."""
        w = self.workers[dead]
        self.membership.declare_dead(dead)
        adopted = self.assignment.reassign(dead, self.membership.live)
        self._recovery_counts["stragglers_degraded"] += 1
        self._fault_events.append(f"straggler-degraded:w{dead}@superstep{superstep}")
        self._trace_recovery(
            dead,
            "degrade",
            superstep,
            superstep_seconds=delta,
            median_seconds=median,
            adopted={str(k): v for k, v in adopted.items()},
        )
        for heir_wid, cols in sorted(adopted.items()):
            heir = self.workers[heir_wid]
            slices, nbytes = w.checkpoint_slices(cols)
            self.net.transfer_bulk(heir.clock, nbytes)
            heir.adopt_columns(cols, slices, superstep)

    # -- the run loop --------------------------------------------------------

    def run(
        self, program: VertexProgram, max_iterations: Optional[int] = None
    ) -> RunResult:
        """Execute ``program`` across the configured cluster."""
        self._build_workers()
        w0 = self.workers[0]
        if self.ctx is None:
            self.ctx = scan_context(w0.store, w0.machine)
        self._records = []
        self._fault_events = []
        self._recovery_counts = {"worker_recoveries": 0, "stragglers_degraded": 0}
        self._cluster_elapsed = 0.0
        cap = open_run(
            self.tracer,
            self.engine_name,
            program,
            w0.store,
            self.ctx,
            max_iterations,
            workers=self.config.workers,
        )

        wall = WallTimer()
        wall.start()

        # Startup barrier: every worker materializes initial state and
        # its superstep-0 checkpoint in parallel.
        tokens = self._barrier_tokens()
        for w in self._live_workers():
            self._current_worker = w.wid
            w.start(program, self.ctx, self.assignment.columns_of(w.wid))
        self._current_worker = -1
        total_breakdown, total_io, _ = self._fold_barrier(tokens, 0, "init")

        converged = False
        superstep = 0
        while True:
            frontier = self._live_workers()[0].frontier
            if frontier.is_empty():
                converged = True
                break
            if superstep >= cap:
                break
            superstep += 1
            frontier_size = frontier.count
            before = {w.wid: (w.edges_processed, w.blocks_processed) for w in self._live_workers()}
            tokens = self._barrier_tokens()
            sim_start = self._cluster_elapsed
            recoveries = self._run_superstep(superstep)
            breakdown, io, deltas = self._fold_barrier(tokens, superstep, "superstep")
            total_breakdown = total_breakdown + breakdown
            total_io = total_io + io
            edges = blocks = 0
            for w in self._live_workers():
                edges_before, blocks_before = before.get(w.wid, (0, 0))
                edges += w.edges_processed - edges_before
                blocks += w.blocks_processed - blocks_before
            record_iteration(
                self._records,
                self.tracer,
                sim_start,
                {"worker": "all"},
                iteration=superstep,
                model="cluster",
                frontier_size=frontier_size,
                edges_processed=edges,
                breakdown=breakdown,
                io=io,
                activated=self._live_workers()[0].frontier.count,
                subblocks_processed=blocks,
            )
            # A superstep that already absorbed a crash is exempt from the
            # deadline check: recovery time is not straggling.
            if recoveries == 0:
                degr_tokens = self._barrier_tokens()
                if self._check_straggler(deltas, superstep):
                    degr_breakdown, degr_io, _ = self._fold_barrier(
                        degr_tokens, superstep, "degrade"
                    )
                    total_breakdown = total_breakdown + degr_breakdown
                    total_io = total_io + degr_io
            for w in self._live_workers():
                w.release_logs(superstep - 1)

        wall.stop()

        final = self._live_workers()[0]
        recovery: Dict[str, Any] = self.net.counters()
        recovery.update(self._recovery_counts)
        recovery["workers"] = self.config.workers
        recovery["workers_final"] = len(self.membership.live)

        result = RunResult(
            engine=self.engine_name,
            program=program.name,
            num_vertices=self.ctx.num_vertices,
            num_edges=self.ctx.num_edges,
            iterations=superstep,
            converged=converged,
            values=program.result(final.state).copy(),
            state={k: v.copy() for k, v in final.state.items()},
            breakdown=total_breakdown,
            io=total_io,
            wall_seconds=wall.elapsed,
            per_iteration=list(self._records),
            fault_events=list(self._fault_events),
            recovery=recovery,
        )
        if self.tracer.enabled:
            self.tracer.run_summary(result.trace_summary(workers=self.config.workers))
            if self._trace_path is not None:
                # The merged distributed trace is the only artifact a
                # cluster --trace run may produce; a merge failure
                # propagates (ValueError -> CLI exit 2) instead of
                # leaving a partial events-only file behind.
                require(
                    isinstance(self.tracer, Tracer),
                    "cluster tracing requires a real Tracer (got a stub)",
                )
                assert isinstance(self.tracer, Tracer)
                write_trace_file(
                    self._trace_path,
                    merge_cluster_trace(self.tracer, self._worker_tracers),
                )
        return result
