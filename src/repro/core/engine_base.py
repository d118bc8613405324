"""Shared engine plumbing.

Every engine in the repository — GraphSD itself, its ablation variants,
and the baseline I/O-policy models — executes the same vertex programs
over the same on-disk grid representation. This module holds everything
they share:

* context construction (vertex/edge counts, out-degrees — derived from
  the store with one charged scan when not supplied);
* per-iteration state persistence (vertex values are re-read from and
  written back to disk every iteration, the ``|V| x N / B`` terms of the
  paper's cost model);
* vectorized gather / combine / apply helpers;
* the **execution core** — the only two block consumers in the
  repository. :meth:`EngineBase.sweep_columns` streams ordered
  destination columns (one load thunk per column, applied at the end of
  the column); :meth:`EngineBase.consume_plan` streams an ordered plan
  of ``(load thunk, source gate)`` entries. Both sit on
  :meth:`EngineBase.push_block`, the one place ``gather_block`` and
  ``combine_block`` are paired;
* the run loop skeleton and per-iteration metric capture.

Subclasses implement :meth:`EngineBase._run_round`, which executes one
*round* (one iteration for most engines; an FCIU round covers two) and
returns the next frontier.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.core.checkpoint import CheckpointManager

from repro.algorithms.base import (
    GraphContext,
    State,
    VertexProgram,
    add_is_dense,
    scatter_combine,
)
from repro.core.result import IterationRecord, RunResult
from repro.graph.grid import EdgeBlock, GridStore
from repro.graph.vertexdata import VertexArrayStore
from repro.obs import NULL_TRACER, TracerLike
from repro.storage.disk import MachineProfile, DEFAULT_MACHINE
from repro.storage.gatherpool import GatherPool
from repro.storage.iostats import IOStats
from repro.storage.prefetch import BlockPrefetcher
from repro.utils.bitset import VertexSubset
from repro.utils.timers import COMPUTE, OverlapRegion, TimeBreakdown, WallTimer
from repro.utils.validation import require

#: Active share of a source interval above which a gated push gathers the
#: whole block and neutralizes the inactive edges instead of cutting the
#: active ones out (see :meth:`EngineBase.push_block`). Measured once,
#: docs/PERFORMANCE.md "Block-proportional kernels"; not a setting.
DENSE_GATE = 0.5

#: One deferred column load: every block of one destination column.
ColumnTask = Callable[[], List[EdgeBlock]]
#: One plan entry: a deferred block load and the per-vertex source gate
#: its contributions pass through (``None`` = ungated).
PlanEntry = Tuple[Callable[[], EdgeBlock], Optional[np.ndarray]]


class EngineBase:
    """Template for grid-based out-of-core engines."""

    engine_name = "abstract"

    def __init__(
        self,
        store: GridStore,
        machine: MachineProfile = DEFAULT_MACHINE,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        self.store = store
        self.machine = machine
        self.device = store.device
        self.disk = store.device.disk
        self.clock = self.disk.clock
        self.ctx = ctx if ctx is not None else self.build_context()

        # Populated per run:
        self.program: Optional[VertexProgram] = None
        self.state: State = {}
        self.prev: State = {}
        self.frontier: Optional[VertexSubset] = None
        self._value_stores: Dict[str, VertexArrayStore] = {}
        self._records: List[IterationRecord] = []
        self._iterations_done = 0
        self._iteration_cap = 0
        #: Priority sweeps executed (asynchronous engines set this; it
        #: stays ``None`` for synchronous engines and flows into
        #: :attr:`~repro.core.result.RunResult.sweeps`).
        self._sweeps_done: Optional[int] = None
        self._fault_events: List[str] = []
        self.tracer: TracerLike = NULL_TRACER
        self._trace_path: Optional[str] = None

    # -- observability -----------------------------------------------------

    def attach_tracer(self, tracer: TracerLike, path: Optional[str] = None) -> None:
        """Attach an observability tracer (see :mod:`repro.obs`).

        ``path`` (optional) is where :meth:`run` writes the JSONL trace
        when the run completes. The tracer only *reads* the simulated
        clock, so attaching one never changes results or charged time.
        """
        self.tracer = tracer
        if tracer.enabled:
            tracer.bind_clock(self.clock)
        self._trace_path = path

    # -- context ---------------------------------------------------------

    def build_context(self) -> GraphContext:
        """Derive the graph context from the store (one charged scan).

        Reads the source column once to compute out-degrees — engines
        need them for PageRank normalization and the scheduler's
        active-edge sizing.

        This is a *fallback* for stores opened without their provenance:
        callers that preprocessed the graph should pass
        ``ctx=PreprocessResult.context`` (degrees fall out of the
        partition pass), and callers holding the raw edge list can use
        ``GraphContext.from_edges(edges)`` — both avoid re-reading the
        entire source column here.
        """
        src = self.store.read_all_sources()
        degrees = np.bincount(src, minlength=self.store.num_vertices).astype(np.int64)
        self.clock.charge(COMPUTE, self.machine.edge_compute_time(src.shape[0]))
        return GraphContext(
            num_vertices=self.store.num_vertices,
            num_edges=self.store.total_edges,
            out_degrees=degrees,
        )

    # -- state persistence -------------------------------------------------

    def _init_value_stores(self, store_initial: bool = True) -> None:
        self._value_stores = {
            name: VertexArrayStore(
                self.device,
                f"{self.store.prefix}.{self.engine_name}.{self.program.name}.{name}",
                self.ctx.num_vertices,
                arr.dtype,
            )
            for name, arr in self.state.items()
        }
        if store_initial:
            self._store_state()

    def _store_state(self) -> None:
        """Write every state array back to disk (charged sequential write)."""
        with self.tracer.span("store_state", cat="state"):
            for name, arr in self.state.items():
                self._value_stores[name].store_all(arr)

    def _load_state(self) -> None:
        """Re-read every state array from disk (charged sequential read)."""
        with self.tracer.span("load_state", cat="state"):
            for name in self.state:
                self.state[name] = self._value_stores[name].load_all()

    def _cleanup_value_stores(self) -> None:
        for vs in self._value_stores.values():
            vs.delete()
        self._value_stores = {}

    @property
    def state_value_bytes(self) -> int:
        """Per-vertex state footprint (``N`` in the cost model)."""
        return self.program.state_value_bytes(self.state)

    # -- vectorized kernels ------------------------------------------------

    def gather_block(
        self,
        snapshot: State,
        block: EdgeBlock,
        gate_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-edge contributions of ``block`` computed from ``snapshot``.

        :meth:`push_block` hands over the edges worth gathering, so
        ``gate_mask`` is normally ``None``. It is set for a mostly-active
        gate only: every edge is gathered and the contributions whose
        source is outside the mask become the combine identity. Returns
        ``(contributions, edge_mask)``: ``edge_mask`` marks the
        non-neutralized edges (``None`` when ungated) and must be passed
        through to :meth:`combine_block`.
        """
        if self.program.needs_weights:
            require(block.wgt is not None, f"{self.program.name} requires edge weights")
        # Widened once here instead of once per fancy-index in the program.
        src = block.src.astype(np.intp, copy=False)
        contrib = self.program.gather(snapshot, src, block.wgt)
        edge_mask: Optional[np.ndarray] = None
        if gate_mask is not None:
            edge_mask = gate_mask[src]
            contrib = np.where(edge_mask, contrib, self.program.combine.identity)
        return contrib, edge_mask

    def combine_block(
        self,
        acc: np.ndarray,
        touched: np.ndarray,
        block: EdgeBlock,
        contrib: np.ndarray,
        edge_mask: Optional[np.ndarray] = None,
        dense_add: Optional[bool] = None,
    ) -> None:
        """Reduce ``contrib`` into destination interval ``block.j``.

        ``acc``/``touched`` are the global arrays; only interval ``j``'s
        slices are read or written, through ids local to it. Only
        destinations of edges selected by ``edge_mask`` (all edges when
        ``None``) are marked touched — neutralized contributions must
        not create phantom activity or phantom pending work.
        ``dense_add`` is :func:`~repro.algorithms.base.scatter_combine`'s.
        """
        lo, hi = self.store.intervals.bounds(block.j)
        dst = block.dst.astype(np.intp)
        dst -= lo
        scatter_combine(self.program.combine, acc[lo:hi], dst, contrib, dense_add)
        if edge_mask is not None:
            dst = dst[edge_mask]
        touched[lo:hi][dst] = True

    def apply_interval(
        self,
        interval: int,
        acc: np.ndarray,
        touched: np.ndarray,
        activated_mask: np.ndarray,
    ) -> int:
        """Apply one interval's accumulated contributions to the state.

        ``acc``/``touched`` are global arrays; ``activated_mask`` is the
        global activation mask updated in place. Returns the number of
        vertices activated in this interval.
        """
        lo, hi = self.store.intervals.bounds(interval)
        activated = self.program.apply(self.state, lo, hi, acc[lo:hi], touched[lo:hi])
        self.clock.charge(COMPUTE, self.machine.vertex_compute_time(hi - lo))
        activated_mask[lo:hi] = activated
        return int(np.count_nonzero(activated))

    def fresh_accumulator(self) -> Tuple[np.ndarray, np.ndarray]:
        """A (acc, touched) pair filled with the combine identity."""
        n = self.ctx.num_vertices
        return self.program.acc_array(n), np.zeros(n, dtype=bool)

    # -- the execution core: one block step, two consumers -------------------

    @property
    def prefetch_depth(self) -> int:
        """Lookahead of this engine's block plans; 0 runs every load
        thunk inline at its consumption point (serial execution)."""
        return 0

    @property
    def gather_lanes(self) -> int:
        """Modeled disk lanes for :meth:`consume_plan`'s loads."""
        return 1

    def make_prefetcher(self) -> BlockPrefetcher:
        """A prefetcher for one column plan (see :meth:`prefetch_depth`)."""
        return BlockPrefetcher(self.prefetch_depth, stats=self.disk.stats, tracer=self.tracer)

    def overlap_region(self) -> "ContextManager[Optional[OverlapRegion]]":
        """A clock overlap region when pipelining, else a null context."""
        if self.prefetch_depth:
            return self.clock.overlap_region()
        return nullcontext(None)

    def push_block(
        self,
        snapshot: State,
        block: EdgeBlock,
        acc: np.ndarray,
        touched: np.ndarray,
        gate_mask: Optional[np.ndarray] = None,
        active: Optional[np.ndarray] = None,
    ) -> None:
        """Gather ``block`` from ``snapshot`` and combine it into ``acc``.

        Only edges whose source passes the gate contribute: ``gate_mask``
        is a per-vertex bool array, ``active`` the same set as ascending
        ids local to source interval ``block.i`` for a caller that has
        them already; neither = every edge. The gate is applied *before*
        the gather — :meth:`EdgeBlock.select
        <repro.graph.grid.EdgeBlock.select>` cuts the active sources'
        edges out in block order — so the wall work is proportional to
        the edges that contribute, while the modeled COMPUTE charge stays
        that of the whole loaded block. Two gates skip the cut, decided
        per push from the interval's active count: an all-active
        interval is ungated, and one above :data:`DENSE_GATE` gathers
        every edge and neutralizes the inactive ones (:meth:`gather_block`).
        All three produce the same bits.
        """
        self.clock.charge(COMPUTE, self.machine.edge_compute_time(block.count))
        # Keyed on the loaded block so gating never regroups ADD's sums.
        dense_add = add_is_dense(block.count, acc.shape[0])
        if gate_mask is not None or active is not None:
            lo, hi = self.store.intervals.bounds(block.i)
            if active is None and gate_mask is not None:
                gate = gate_mask[lo:hi]
                n_active = int(np.count_nonzero(gate))
                if n_active == hi - lo:
                    gate_mask = None
                elif n_active <= DENSE_GATE * (hi - lo):
                    active = np.flatnonzero(gate)
            if active is not None:
                block, gate_mask = block.select(active, lo, hi), None
                if block.count == 0:
                    return
        contrib, edge_mask = self.gather_block(snapshot, block, gate_mask)
        self.combine_block(acc, touched, block, contrib, edge_mask, dense_add)

    def sweep_columns(
        self,
        columns: Sequence[int],
        load: Callable[[int], List[EdgeBlock]],
        snapshot: State,
        gate_mask: Optional[np.ndarray],
        acc: np.ndarray,
        touched: np.ndarray,
        activated_mask: np.ndarray,
        after_column: Optional[Callable[[int, List[EdgeBlock]], None]] = None,
    ) -> Tuple[int, int]:
        """Consume destination ``columns`` in order; apply each at its end.

        ``load(j)`` reads every block of column ``j``; one such thunk
        per column runs through a :class:`BlockPrefetcher` (inline when
        serial) inside :meth:`overlap_region`. Per block: poll the
        ``mid-scatter`` crash point, then :meth:`push_block` from
        ``snapshot`` through ``gate_mask``. ``after_column(j, blocks)``
        runs after interval ``j``'s apply. Returns ``(edges, blocks)``
        consumed.
        """
        tasks: List[ColumnTask] = [partial(load, j) for j in columns]
        edges = blocks = 0
        with self.overlap_region() as region:
            if region is not None and tasks:
                tasks[0] = region.measure_fill(tasks[0])
            stream = self.make_prefetcher().run(tasks)
            try:
                for j in columns:
                    column = next(stream)
                    for block in column:
                        self._crash_point("mid-scatter")
                        self.push_block(snapshot, block, acc, touched, gate_mask)
                        edges += block.count
                    blocks += len(column)
                    self.apply_interval(j, acc, touched, activated_mask)
                    if after_column is not None:
                        after_column(j, column)
            finally:
                stream.close()
        return edges, blocks

    def consume_plan(
        self,
        plan: Sequence[PlanEntry],
        snapshot: State,
        acc: np.ndarray,
        touched: np.ndarray,
    ) -> List[EdgeBlock]:
        """Consume an ordered plan of gated block loads; no apply.

        The thunks stream through a K-lane :class:`GatherPool` (same
        single in-order worker as :meth:`sweep_columns`, so fault
        ordinals and the disk-op stream are the serial ones) inside
        :meth:`overlap_region`. Per entry: poll ``mid-scatter``, take the
        block, :meth:`push_block` it through the entry's gate. Only a
        cleanly consumed plan earns the pool's lane credit; a fault or
        crash propagates with the raw serial charges. Returns the
        non-empty blocks in plan order.
        """
        tasks = [task for task, _gate in plan]
        pool = GatherPool(
            self.gather_lanes,
            self.prefetch_depth,
            clock=self.clock,
            stats=self.disk.stats,
            tracer=self.tracer,
        )
        consumed: List[EdgeBlock] = []
        with self.overlap_region() as region:
            if region is not None and tasks:
                tasks[0] = region.measure_fill(tasks[0])
            stream = pool.run(tasks)
            try:
                for _task, gate in plan:
                    self._crash_point("mid-scatter")
                    block = next(stream)
                    if block.count:
                        self.push_block(snapshot, block, acc, touched, gate)
                        consumed.append(block)
            finally:
                stream.close()
            pool.finish(region)
        return consumed

    # -- iteration metric capture ----------------------------------------

    def begin_iteration(self) -> "Tuple[TimeBreakdown, IOStats]":
        return (self.clock.snapshot(), self.disk.stats.snapshot())

    def end_iteration(
        self,
        token: "Tuple[TimeBreakdown, IOStats]",
        model: str,
        frontier_size: int,
        edges_processed: int,
        activated: int,
        cross_pushed: int = 0,
        subblocks_processed: int = 0,
    ) -> None:
        clock_before, stats_before = token
        self._iterations_done += 1
        # One delta computation feeds both the record and the trace
        # event, so their simulated fields can never disagree.
        record = IterationRecord(
            iteration=self._iterations_done,
            model=model,
            frontier_size=frontier_size,
            edges_processed=edges_processed,
            breakdown=self.clock.snapshot() - clock_before,
            io=self.disk.stats - stats_before,
            activated=activated,
            cross_pushed=cross_pushed,
            subblocks_processed=subblocks_processed,
            metrics=self.tracer.metrics.snapshot() if self.tracer.enabled else {},
        )
        self._records.append(record)
        if self.tracer.enabled:
            payload = record.to_dict()
            payload["sim_start"] = clock_before.total
            self.tracer.iteration(payload)

    @property
    def iterations_remaining(self) -> int:
        return self._iteration_cap - self._iterations_done

    # -- the run loop ------------------------------------------------------

    def _setup_run(self) -> None:
        """Hook for engine-specific per-run state (buffers, accumulators)."""

    def _has_pending_work(self) -> bool:
        """Hook: contributions pre-pushed for the next iteration.

        Cross-iteration engines override this: when every remaining
        active vertex was cross-pushed, the frontier (``Out``) is empty
        but the pre-pushed contributions (``OutNI``-bound updates) still
        need one more apply — the run is not converged yet.
        """
        return False

    def _run_round(self) -> VertexSubset:
        """Execute one round; return the next frontier. Must call
        :meth:`begin_iteration`/:meth:`end_iteration` once per executed
        iteration and :meth:`_store_state` after each iteration's applies."""
        raise NotImplementedError

    # -- fault handling -----------------------------------------------------

    def _crash_point(self, name: str) -> None:
        """Poll the fault injector's named crash point (no-op without one)."""
        inj = self.disk.injector
        if inj is not None:
            inj.crash_point(name)

    def record_fault_event(self, message: str) -> None:
        """Log a fault the run absorbed (reported in ``RunResult.fault_events``)."""
        self._fault_events.append(message)

    # -- checkpoint hooks (engine-specific control state) --------------------

    def _checkpoint_extra_arrays(self) -> "Dict[str, np.ndarray]":
        """Engine-specific arrays to persist alongside each checkpoint."""
        return {}

    def _restore_extra_arrays(self, manager: "CheckpointManager") -> None:
        """Restore whatever :meth:`_checkpoint_extra_arrays` persisted."""

    def _checkpoint_manager(self, tag: str) -> "CheckpointManager":
        from repro.core.checkpoint import CheckpointManager

        base = f"{self.store.prefix}.{self.engine_name}.{self.program.name}.{tag}"
        manager = CheckpointManager(self.device, base)
        manager.tracer = self.tracer
        return manager

    def _graph_fingerprint(self) -> Tuple[int, int, int]:
        """Identity of the graph a checkpoint belongs to."""
        return (self.ctx.num_vertices, self.ctx.num_edges, self.store.P)

    def run(
        self,
        program: VertexProgram,
        max_iterations: Optional[int] = None,
        keep_value_files: bool = False,
        checkpoint_tag: Optional[str] = None,
        resume: bool = False,
    ) -> RunResult:
        """Execute ``program`` to convergence or the iteration cap.

        With ``checkpoint_tag`` set, control state is checkpointed after
        every round; ``resume=True`` continues from such a checkpoint
        (see :mod:`repro.core.checkpoint`). A resumed result reports
        cumulative ``iterations`` but only post-resume per-iteration
        records and time/traffic.
        """
        if program.needs_weights:
            require(
                self.store.has_weights,
                f"{program.name} requires a weighted graph store",
            )
        require(not (resume and checkpoint_tag is None), "resume requires checkpoint_tag")
        self.program = program
        self.state = program.init_state(self.ctx)
        self.frontier = program.initial_frontier(self.ctx)
        self._records = []
        self._iterations_done = 0
        self._sweeps_done = None
        self._fault_events = []

        caps = [c for c in (program.max_iterations, max_iterations) if c is not None]
        self._iteration_cap = min(caps) if caps else self.ctx.num_vertices + 1

        if self.tracer.enabled:
            self.tracer.bind_clock(self.clock)
            self.tracer.begin_run(
                engine=self.engine_name,
                program=program.name,
                num_vertices=self.ctx.num_vertices,
                num_edges=self.ctx.num_edges,
                partitions=self.store.P,
            )
            # The disk reports read/write-size histograms while attached.
            self.disk.metrics = self.tracer.metrics

        run_clock_before = self.clock.snapshot()
        run_stats_before = self.disk.stats.snapshot()
        wall = WallTimer()
        wall.start()

        manager = self._checkpoint_manager(checkpoint_tag) if checkpoint_tag else None
        resuming = resume and manager is not None and manager.exists
        # On resume the checkpoint snapshot (not the live value files,
        # which may have run ahead before the crash) is authoritative.
        self._init_value_stores(store_initial=not resuming)
        self._setup_run()

        if resuming:
            meta = manager.load_meta(program.name, fingerprint=self._graph_fingerprint())
            self._iterations_done = meta.iterations_done
            if meta.state_arrays:
                for name in self.state:
                    self.state[name] = manager.load_state(
                        name, self.ctx.num_vertices, self.state[name].dtype
                    )
            else:  # pre-snapshot checkpoint layout: trust the live files
                self._load_state()
            self._store_state()  # resync the live value files to the snapshot
            self.frontier = manager.load_frontier(self.ctx.num_vertices)
            self._restore_extra_arrays(manager)

        converged = False
        try:
            while True:
                if self.frontier.is_empty() and not self._has_pending_work():
                    converged = True
                    break
                if self._iterations_done >= self._iteration_cap:
                    break
                if self.tracer.enabled:
                    self.tracer.metrics.observe(
                        "frontier.density",
                        self.frontier.count / max(1, self.ctx.num_vertices),
                    )
                self._load_state()
                self.frontier = self._run_round()
                self._crash_point("post-apply")
                if manager is not None:
                    with self.tracer.span(
                        "checkpoint_write",
                        cat="checkpoint",
                        iteration=self._iterations_done,
                    ):
                        manager.write(
                            program.name,
                            self._iterations_done,
                            self.frontier,
                            state_arrays=dict(self.state),
                            extra_arrays=self._checkpoint_extra_arrays(),
                            fingerprint=self._graph_fingerprint(),
                        )
                    self.tracer.metrics.inc("checkpoint.writes")
                    self._crash_point("after-checkpoint")
        finally:
            # Never leak the metrics hook into later (untraced) runs on
            # the same simulated disk.
            self.disk.metrics = None

        wall.stop()
        values = self.program.result(self.state).copy()
        result = RunResult(
            engine=self.engine_name,
            program=program.name,
            num_vertices=self.ctx.num_vertices,
            num_edges=self.ctx.num_edges,
            iterations=self._iterations_done,
            converged=converged,
            values=values,
            state={k: v.copy() for k, v in self.state.items()},
            breakdown=self.clock.snapshot() - run_clock_before,
            io=self.disk.stats - run_stats_before,
            wall_seconds=wall.elapsed,
            per_iteration=list(self._records),
            fault_events=list(self._fault_events),
            sweeps=self._sweeps_done,
        )
        if manager is not None and converged:
            manager.discard()
        if not keep_value_files:
            if checkpoint_tag is None or converged:
                self._cleanup_value_stores()
            # otherwise the value files back the live checkpoint
        if self.tracer.enabled:
            summary: Dict[str, object] = {}
            if result.sweeps is not None:
                summary["sweeps"] = result.sweeps
            self.tracer.run_summary(
                summary
                | {
                    "engine": result.engine,
                    "program": result.program,
                    "iterations": result.iterations,
                    "converged": result.converged,
                    "sim_seconds": result.breakdown.total,
                    "overlap_saved": result.breakdown.overlap_saved,
                    "sim": dict(result.breakdown.components),
                    "io": result.io.to_dict(),
                    "wall_seconds": result.wall_seconds,
                    "fault_events": list(result.fault_events),
                    "recovery": dict(result.recovery),
                }
            )
            if self._trace_path is not None:
                self.tracer.write(self._trace_path)
        return result
