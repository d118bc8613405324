"""Shared engine plumbing.

Every engine in the repository — GraphSD itself, its ablation variants,
and the baseline I/O-policy models — executes the same vertex programs
over the same on-disk grid representation. This module holds everything
they share:

* the **run frame** shared with the cluster's coordinator:
  :func:`scan_context`, :func:`open_run`, :func:`record_iteration` (and
  ``RunResult.trace_summary`` for the ``run`` event);
* per-iteration state persistence (vertex values are re-read from and
  written back to disk every iteration, the ``|V| x N / B`` terms of the
  paper's cost model);
* vectorized gather / combine / apply helpers;
* the **execution core** — the only two block consumers in the
  repository. :meth:`EngineBase.sweep_columns` streams ordered
  destination columns (one load thunk per column, applied at the end of
  the column); :meth:`EngineBase.consume_plan` streams an ordered plan
  of ``(load thunk, source gate)`` entries. Both sit on
  :meth:`EngineBase.push_block` (:meth:`EngineBase.push_reached` is the
  same step returning the destinations reached) — with
  :meth:`EngineBase._flush`, which pushes a batch of ungated blocks as
  one, the only places ``gather_block`` and ``combine_block`` are paired;
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
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.core.checkpoint import CheckpointManager

from repro.algorithms.base import (
    Combine,
    GraphContext,
    State,
    VertexProgram,
    add_is_dense,
    scatter_combine,
)
from repro.core.result import IterationRecord, RunResult
from repro.graph.edgelist import VERTEX_DTYPE
from repro.graph.grid import BlockHandle, EdgeBlock, GridStore
from repro.graph.vertexdata import VertexArrayStore
from repro.obs import NULL_TRACER, TracerLike
from repro.storage.disk import MachineProfile, DEFAULT_MACHINE
from repro.storage.gatherpool import GatherPool
from repro.storage.iostats import IOStats
from repro.storage.prefetch import BlockPrefetcher
from repro.utils.bitset import VertexSubset, distinct_sorted
from repro.utils.heap import retain_freed_heap
from repro.utils.timers import COMPUTE, OverlapRegion, TimeBreakdown, WallTimer
from repro.utils.validation import require

#: Active share of a source interval above which a gated push gathers the
#: whole block and neutralizes the inactive edges instead of cutting the
#: active ones out (see :meth:`EngineBase.push_block`). Measured once,
#: docs/PERFORMANCE.md "Block-proportional kernels"; not a setting.
DENSE_GATE = 0.5

#: One deferred column load: every block of one destination column, encoded.
ColumnTask = Callable[[], List[BlockHandle]]
#: One plan entry: a deferred block load and the per-vertex source gate
#: its contributions pass through (``None`` = ungated).
PlanEntry = Tuple[Callable[[], EdgeBlock], Optional[np.ndarray]]


# -- the run frame: what every engine's run shares ---------------------------


def scan_context(store: GridStore, machine: MachineProfile) -> GraphContext:
    """Derive the graph context from ``store`` (one charged scan).

    Reads the source column once to compute out-degrees. This is a
    *fallback* for stores opened without their provenance: callers that
    preprocessed the graph pass ``ctx=PreprocessResult.context``, and
    callers holding the edge list ``GraphContext.from_edges(edges)``.
    """
    src = store.read_all_sources()
    degrees = np.bincount(src, minlength=store.num_vertices).astype(np.int64)
    store.device.disk.clock.charge(COMPUTE, machine.edge_compute_time(src.shape[0]))
    return GraphContext(
        num_vertices=store.num_vertices,
        num_edges=store.total_edges,
        out_degrees=degrees,
    )


def open_run(
    tracer: TracerLike,
    engine_name: str,
    program: VertexProgram,
    store: GridStore,
    ctx: GraphContext,
    max_iterations: Optional[int],
    **meta: Any,
) -> int:
    """Check ``program`` against ``store`` and open the trace's run.

    Returns the iteration cap: the tighter of the program's and the
    caller's, else ``|V| + 1``. ``meta`` extends the trace's run
    identity (the cluster adds ``workers``).
    """
    if program.needs_weights:
        require(store.has_weights, f"{program.name} requires a weighted graph store")
    if tracer.enabled:
        tracer.begin_run(
            engine=engine_name,
            program=program.name,
            num_vertices=ctx.num_vertices,
            num_edges=ctx.num_edges,
            partitions=store.P,
            **meta,
        )
    caps = [c for c in (program.max_iterations, max_iterations) if c is not None]
    return min(caps) if caps else ctx.num_vertices + 1


def record_iteration(
    records: List[IterationRecord],
    tracer: TracerLike,
    sim_start: float,
    trace_extra: Optional[Dict[str, Any]] = None,
    **fields: Any,
) -> None:
    """Build an :class:`IterationRecord` from ``fields``, keep it, emit it.

    The trace event is the record itself plus ``sim_start`` and
    ``trace_extra``, so their simulated fields can never disagree.
    """
    record = IterationRecord(
        **fields,
        metrics=tracer.metrics.iteration_snapshot() if tracer.enabled else {},
    )
    records.append(record)
    if tracer.enabled:
        payload = record.to_dict()
        payload["sim_start"] = sim_start
        payload.update(trace_extra or {})
        tracer.iteration(payload)


class EngineBase:
    """Template for grid-based out-of-core engines."""

    engine_name = "abstract"

    def __init__(
        self,
        store: GridStore,
        machine: MachineProfile = DEFAULT_MACHINE,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        # The run recycles its working set block by block (repro.utils.heap).
        retain_freed_heap()
        self.store = store
        self.machine = machine
        self.device = store.device
        self.disk = store.device.disk
        self.clock = self.disk.clock
        self.ctx = ctx if ctx is not None else scan_context(store, machine)

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
        #: The clock reading every run's window sums onto (see run()).
        self._clock_base: Optional[TimeBreakdown] = None

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
        window: Optional[Tuple[int, int]] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-edge contributions of ``block`` computed from ``snapshot``.

        :meth:`push_block` hands over the edges worth gathering, so
        ``gate_mask`` is normally ``None``. It is set for a mostly-active
        gate only: every edge is gathered and the contributions whose
        source is outside the mask become the combine identity. Returns
        ``(contributions, edge_mask)``: ``edge_mask`` marks the
        non-neutralized edges (``None`` when ungated).

        *Interval-local gather:* the program reads source interval
        ``block.i``'s window of ``snapshot`` through ids local to it, in
        the stored unsigned dtype (no widened copy of ``src``). A batch
        of blocks (:meth:`push_blocks`) passes the ``[lo, hi)`` ``window``
        its sources span instead.
        """
        if self.program.needs_weights:
            require(block.wgt is not None, f"{self.program.name} requires edge weights")
        lo, hi = window if window is not None else self.store.intervals.bounds(block.i)
        src = block.src - VERTEX_DTYPE.type(lo) if lo else block.src
        contrib = self.program.gather(snapshot, lo, hi, src, block.wgt)
        edge_mask: Optional[np.ndarray] = None
        if gate_mask is not None:
            edge_mask = gate_mask[lo:hi].take(src)
            contrib = np.where(edge_mask, contrib, self.program.combine.identity)
        return contrib, edge_mask

    def combine_block(
        self,
        acc: np.ndarray,
        block: EdgeBlock,
        contrib: np.ndarray,
        dense_add: Optional[bool] = None,
        window: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Reduce ``contrib`` into destination interval ``block.j``.

        ``acc`` is the global accumulator; only interval ``j``'s slice is
        read or written, through ids local to it (*interval-local
        combine*); a batch passes the ``window`` its destinations span.
        ``dense_add`` is :func:`~repro.algorithms.base.scatter_combine`'s.
        """
        lo, hi = window if window is not None else self.store.intervals.bounds(block.j)
        dst = block.dst - VERTEX_DTYPE.type(lo) if lo else block.dst
        scatter_combine(self.program.combine, acc[lo:hi], dst, contrib, dense_add)

    @overload
    def apply_interval(self, interval: int, acc: np.ndarray, activated_mask: np.ndarray) -> int: ...

    @overload
    def apply_interval(
        self, interval: int, acc: np.ndarray, activated_mask: None, ids: np.ndarray
    ) -> np.ndarray: ...

    def apply_interval(
        self,
        interval: int,
        acc: np.ndarray,
        activated_mask: Optional[np.ndarray],
        ids: Optional[np.ndarray] = None,
    ) -> Union[int, np.ndarray]:
        """Apply one interval's accumulated contributions to the state.

        ``acc`` is the global accumulator; ``activated_mask`` is the
        global activation mask updated in place. Returns the number of
        vertices activated in this interval.

        At ``ids`` — distinct ascending ids local to the interval, off
        which ``acc`` holds nothing the state has not already folded in,
        such as the destinations :meth:`push_reached` returns — only those
        vertices are applied (:meth:`~repro.algorithms.base.VertexProgram.apply_at`):
        ``activated_mask`` is not written, and the activation mask over
        ``ids`` comes back. Either form charges the interval's vertex
        COMPUTE.
        """
        lo, hi = self.store.intervals.bounds(interval)
        if ids is not None:
            moved = self.program.apply_at(self.state, lo, hi, acc[lo:hi], ids)
            self.clock.charge(COMPUTE, self.machine.vertex_compute_time(hi - lo))
            return moved
        assert activated_mask is not None  # the interval form writes it
        activated = self.program.apply(self.state, lo, hi, acc[lo:hi])
        self.clock.charge(COMPUTE, self.machine.vertex_compute_time(hi - lo))
        activated_mask[lo:hi] = activated
        return int(np.count_nonzero(activated))

    def fresh_accumulator(self) -> np.ndarray:
        """A |V| accumulator filled with the combine identity."""
        return self.program.acc_array(self.ctx.num_vertices)

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
        gate_mask: Optional[np.ndarray] = None,
        active: Optional[np.ndarray] = None,
    ) -> bool:
        """Gather ``block`` from ``snapshot`` and combine it into ``acc``.

        Only edges whose source passes the gate contribute: ``gate_mask``
        is a per-vertex bool array, ``active`` the same set as ascending
        ids local to source interval ``block.i`` for a caller that has
        them already; neither = every edge. The gate is applied *before*
        the gather — :meth:`EdgeBlock.select
        <repro.graph.grid.EdgeBlock.select>` cuts the active sources'
        edges out in block order — so the wall work is proportional to
        the edges that contribute, while the modeled COMPUTE charge stays
        that of the whole loaded block. A mask cuts a block without a
        run-length header by one lookup per edge; ids cut through the
        block's source offsets, which a retained block keeps for its next
        cut. Two gates skip the cut, decided
        per push from the interval's active count: an all-active
        interval is ungated, and one above :data:`DENSE_GATE` gathers
        every edge and neutralizes the inactive ones (:meth:`gather_block`).
        All three produce the same bits. Returns whether any
        non-neutralized edge was combined: wherever none landed, ``acc``
        still holds the combine identity.
        """
        return self._push(snapshot, block, acc, gate_mask, active)[0]

    def push_reached(
        self,
        snapshot: State,
        block: EdgeBlock,
        acc: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`push_block` the edges of the ``active`` sources (every
        edge when ``None``); returns the destinations they reached, as
        distinct ascending ids local to interval ``block.j`` — where
        :meth:`apply_interval` may apply at ids alone."""
        pushed = self._push(snapshot, block, acc, None, active)[1]
        lo, hi = self.store.intervals.bounds(block.j)
        return distinct_sorted(pushed.dst - VERTEX_DTYPE.type(lo) if lo else pushed.dst, hi - lo)

    def _push(
        self,
        snapshot: State,
        block: EdgeBlock,
        acc: np.ndarray,
        gate_mask: Optional[np.ndarray],
        active: Optional[np.ndarray],
    ) -> Tuple[bool, EdgeBlock]:
        """:meth:`push_block`; also returns the block of edges gathered
        (the cut, or the whole block)."""
        self.clock.charge(COMPUTE, self.machine.edge_compute_time(block.count))
        # Keyed on the loaded block so gating never regroups ADD's sums.
        dense_add = add_is_dense(block.count, acc.shape[0])
        if gate_mask is not None or active is not None:
            lo, hi = self.store.intervals.bounds(block.i)
            gate: Optional[np.ndarray] = None
            if active is None and gate_mask is not None:
                gate = gate_mask[lo:hi]
                n_active = int(np.count_nonzero(gate))
                if n_active == hi - lo:
                    gate_mask = gate = None
                elif n_active > DENSE_GATE * (hi - lo):
                    gate = None  # gather every edge, neutralize the inactive
            if active is not None or gate is not None:
                block, gate_mask = block.select(active, lo, hi, gate), None
                if block.count == 0:
                    return False, block
        contrib, edge_mask = self.gather_block(snapshot, block, gate_mask)
        self.combine_block(acc, block, contrib, dense_add)
        return bool(block.count) and (edge_mask is None or bool(edge_mask.any())), block

    def sweep_columns(
        self,
        columns: Sequence[int],
        load: Callable[[int], List[BlockHandle]],
        snapshot: State,
        gate_mask: Optional[np.ndarray],
        acc: np.ndarray,
        activated_mask: np.ndarray,
        after_column: Optional[Callable[[int, List[BlockHandle]], None]] = None,
    ) -> Tuple[int, int]:
        """Consume destination ``columns`` in order; apply each at its end.

        ``load(j)`` reads every block of column ``j``, as encoded
        :class:`~repro.graph.grid.BlockHandle` objects; one such thunk per
        column runs through a :class:`BlockPrefetcher` (inline when
        serial) inside :meth:`overlap_region`, so a pipelined worker
        queues encoded columns. Per block: poll the ``mid-scatter``
        crash point, decode, then :meth:`push_block` from ``snapshot``
        through ``gate_mask`` — one decoded block at a time.
        ``after_column(j, handles)`` runs after interval ``j``'s apply.
        Returns ``(edges, blocks)`` consumed.
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
                    for handle in column:
                        self._crash_point("mid-scatter")
                        self.push_block(snapshot, handle.decode(), acc, gate_mask)
                        edges += handle.count
                    blocks += len(column)
                    self.apply_interval(j, acc, activated_mask)
                    if after_column is not None:
                        after_column(j, column)
                    # The handles view the column's payload: release it
                    # before the next column loads.
                    column = handle = None
            finally:
                stream.close()
        return edges, blocks

    def _push_or_defer(
        self,
        snapshot: State,
        block: EdgeBlock,
        acc: np.ndarray,
        gate: Optional[np.ndarray],
        batch: List[EdgeBlock],
    ) -> None:
        """:meth:`push_block` ``block`` through ``gate``, except that an
        ungated block is only charged its COMPUTE and appended to
        ``batch`` for a later :meth:`_flush` — unless it takes ADD's
        dense path, which sums per destination before adding: a batch
        adds edge by edge, in order, as ``np.add.at`` adds each sparse
        block. Any other block flushes ``batch`` first, so edges still
        reach ``acc`` in order."""
        dense = self.program.combine is Combine.ADD and add_is_dense(block.count, acc.shape[0])
        if gate is None and not dense:
            self.clock.charge(COMPUTE, self.machine.edge_compute_time(block.count))
            batch.append(block)
            return
        self._flush(snapshot, batch, acc)
        self.push_block(snapshot, block, acc, gate)

    def _flush(self, snapshot: State, batch: List[EdgeBlock], acc: np.ndarray) -> None:
        """Gather and combine the charged ``batch`` as one block — its
        blocks' edges concatenated in order, through the source and
        destination windows their intervals span — and empty it."""
        if not batch:
            return
        edges = self.store.intervals.boundaries
        rows, cols = [b.i for b in batch], [b.j for b in batch]
        source = (int(edges[min(rows)]), int(edges[max(rows) + 1]))
        target = (int(edges[min(cols)]), int(edges[max(cols) + 1]))
        block = batch[0]
        if len(batch) > 1:
            weights = [b.wgt for b in batch if b.wgt is not None]
            block = EdgeBlock(
                block.i,
                block.j,
                np.concatenate([b.src for b in batch]),
                np.concatenate([b.dst for b in batch]),
                np.concatenate(weights) if weights else None,
            )
        contrib, _ = self.gather_block(snapshot, block, window=source)
        self.combine_block(acc, block, contrib, dense_add=False, window=target)
        batch.clear()

    def push_blocks(self, snapshot: State, blocks: Sequence[EdgeBlock], acc: np.ndarray) -> bool:
        """:meth:`push_block` each of ``blocks``, ungated, in order — the
        same COMPUTE charges and the same bits — with one gather and one
        combine for all of them (split only around dense ADD blocks).
        Returns whether any edge was combined."""
        batch: List[EdgeBlock] = []
        for block in blocks:
            if block.count:
                self._push_or_defer(snapshot, block, acc, None, batch)
        self._flush(snapshot, batch, acc)
        return any(block.count for block in blocks)

    def consume_plan(
        self,
        plan: Sequence[PlanEntry],
        snapshot: State,
        acc: np.ndarray,
    ) -> List[EdgeBlock]:
        """Consume an ordered plan of gated block loads; no apply.

        The thunks stream through a K-lane :class:`GatherPool` (same
        single in-order worker as :meth:`sweep_columns`, so fault
        ordinals and the disk-op stream are the serial ones) inside
        :meth:`overlap_region`. Per entry: poll ``mid-scatter``, take the
        block, charge its COMPUTE. An ungated block's edges then wait, and
        the plan's ungated edges are gathered and combined together, as
        :meth:`push_blocks` does; a gated block is :meth:`push_block`-ed
        through its gate in its place. Only a cleanly consumed plan
        earns the pool's lane credit; a fault or crash propagates with
        the raw serial charges. Returns the non-empty blocks in plan
        order.
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
        batch: List[EdgeBlock] = []
        with self.overlap_region() as region:
            if region is not None and tasks:
                tasks[0] = region.measure_fill(tasks[0])
            stream = pool.run(tasks)
            try:
                for _task, gate in plan:
                    self._crash_point("mid-scatter")
                    block = next(stream)
                    if block.count:
                        self._push_or_defer(snapshot, block, acc, gate, batch)
                        consumed.append(block)
            finally:
                stream.close()
            self._flush(snapshot, batch, acc)
            pool.finish(region)
        return consumed

    # -- iteration metric capture ----------------------------------------

    def begin_iteration(self) -> "Tuple[float, TimeBreakdown, IOStats]":
        return (
            self.clock.elapsed(),
            self.clock.read_window(),
            self.disk.stats.open_window(),
        )

    def abandon_iteration(self, token: "Tuple[float, TimeBreakdown, IOStats]") -> None:
        """Close the window of an iteration a fault aborted; no record.

        Its gather peak still counts toward the run's.
        """
        self.disk.stats.close_window(token[2])

    def end_iteration(
        self,
        token: "Tuple[float, TimeBreakdown, IOStats]",
        model: str,
        frontier_size: int,
        edges_processed: int,
        activated: int,
        cross_pushed: int = 0,
        subblocks_processed: int = 0,
    ) -> None:
        sim_start, clock_before, stats_before = token
        self._iterations_done += 1
        record_iteration(
            self._records,
            self.tracer,
            sim_start,
            iteration=self._iterations_done,
            model=model,
            frontier_size=frontier_size,
            edges_processed=edges_processed,
            breakdown=self.clock.read_window() - clock_before,
            io=self.disk.stats.close_window(stats_before),
            activated=activated,
            cross_pushed=cross_pushed,
            subblocks_processed=subblocks_processed,
        )

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
        require(not (resume and checkpoint_tag is None), "resume requires checkpoint_tag")
        self._iteration_cap = open_run(
            self.tracer, self.engine_name, program, self.store, self.ctx, max_iterations
        )
        self.program = program
        self.state = program.init_state(self.ctx)
        self.frontier = program.initial_frontier(self.ctx)
        self._records = []
        self._iterations_done = 0
        self._sweeps_done = None
        self._fault_events = []

        if self.tracer.enabled:
            self.tracer.bind_clock(self.clock)
            # The disk reports read/write-size histograms while attached.
            self.disk.metrics = self.tracer.metrics

        # Every run sums its charges onto the clock reading of the
        # engine's first run, so a run's breakdowns (differences of
        # those sums) round alike however many runs came before.
        if self._clock_base is None:
            self._clock_base = self.clock.snapshot()
        self.clock.open_window(self._clock_base)
        run_stats_before = self.disk.stats.open_window()
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
            for name in self.state:
                self.state[name] = manager.load_state(
                    name, self.ctx.num_vertices, self.state[name].dtype
                )
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
        result = RunResult(
            engine=self.engine_name,
            program=program.name,
            num_vertices=self.ctx.num_vertices,
            num_edges=self.ctx.num_edges,
            iterations=self._iterations_done,
            converged=converged,
            values=self.program.result(self.state).copy(),
            state={k: v.copy() for k, v in self.state.items()},
            breakdown=self.clock.close_window() - self._clock_base,
            io=self.disk.stats.close_window(run_stats_before),
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
            self.tracer.run_summary(result.trace_summary())
            if self._trace_path is not None:
                self.tracer.write(self._trace_path)
        return result
