"""Full Cross-Iteration Update — Algorithm 3 of the paper.

Executed when the scheduler picks the full I/O model. One FCIU round
covers **two** consecutive BSP iterations:

Phase 1 (iteration ``t``)
    Stream the whole grid destination-major (outer ``j``, inner ``i``).
    Every block contributes to iteration ``t``'s accumulator from the
    previous-iteration snapshot. Additionally, blocks ``(i, j)`` with
    ``i < j`` contribute to iteration ``t+1``'s accumulator from the
    *current* state — their source intervals were applied earlier in
    this very sweep, so their iteration-``t`` values are final (the BSP
    dependency the paper exploits). The diagonal block ``(j, j)`` is
    held in memory until interval ``j`` is applied, then cross-pushed
    the same way. *Secondary* blocks (``i > j``) cannot cross-push; they
    are offered to the priority buffer for phase 2.

Phase 2 (iteration ``t+1``)
    Only the secondary (lower-triangle) blocks are re-read — from the
    buffer when resident, else from disk — gated to the vertices
    activated in phase 1; every interval is then applied using the
    accumulated phase-1 cross contributions plus these reads.

When cross-iteration update is disabled (ablation GraphSD-b1) or only
one iteration remains in the budget, the round degrades to a single
plain full-I/O iteration.

Plan-then-consume execution
---------------------------
Both phases run as a *column plan* (one load thunk per destination
column) through a :class:`~repro.storage.prefetch.BlockPrefetcher`: with
pipelining enabled, column ``j+1`` loads on a background thread while
column ``j`` gathers and applies, inside a clock
:class:`~repro.utils.timers.OverlapRegion`. Phase 2 is exactly
:meth:`~repro.core.engine_base.EngineBase.sweep_columns`. Phase 1 keeps
its own column loop — cross pushes read the state its own applies are
writing, the diagonal is held across the apply, and the buffer is
admitted to and re-ranked around each column — on the same per-block
step (:meth:`~repro.core.engine_base.EngineBase.push_block`). A round
without cross pushes is that same loop: it shares the admissions,
re-ranking and gating, none of which the plain sweep knows about.

A column arrives encoded — one :class:`~repro.graph.grid.BlockHandle`
per block, from disk or from the buffer — and the consumer decodes each
block just before its push. Buffer priorities are counted from the
handles, so beyond the column's payload only the block being pushed and
the held diagonal are ever decoded. Two invariants keep pipelined
execution bit-identical to serial:

* the single worker executes columns strictly in sweep order, so the
  disk-operation stream (charges, page-cache state, injected faults) is
  exactly the serial one;
* buffer admissions for column ``j`` are hoisted to the start of its
  consume step (they depend only on residency and priorities fixed
  before the column's gathers), and the worker's residency check for
  column ``j+1`` waits on a gate set right after those admissions — the
  buffer evolves exactly as in serial execution.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, Dict, List

import numpy as np

if TYPE_CHECKING:  # engine.py imports this module; import only for types
    from repro.core.engine import GraphSDEngine

from repro.core.engine_base import ColumnTask
from repro.graph.grid import BlockHandle
from repro.utils.bitset import VertexSubset
from repro.utils.timers import COMPUTE


def _load_column_buffered(engine: "GraphSDEngine", j: int, i_lo: int) -> List[BlockHandle]:
    """Load blocks ``(i_lo.., j)``, serving from the buffer when possible.

    Uncached blocks are fetched in contiguous runs (one sequential read
    per run per column file). Returns the blocks' encoded handles in
    ascending ``i``; the consumer decodes each as it pushes it.
    """
    store = engine.store
    P = store.P
    cached: Dict[int, BlockHandle] = {}
    if engine.buffer_enabled:
        for i in range(i_lo, P):
            if store.block_edge_count(i, j) == 0:
                continue
            handle = engine.buffer.get((i, j))
            if handle is not None:
                cached[i] = handle

    out: List[BlockHandle] = []
    run_start = None
    for i in range(i_lo, P + 1):
        if i == P or i in cached:
            if run_start is not None:
                out.extend(store.load_block_range(j, run_start, i))
                run_start = None
            if i < P:
                out.append(cached[i])
        elif run_start is None:
            run_start = i
    return out


def _count_active_edges(
    engine: "GraphSDEngine", handle: BlockHandle, mask: np.ndarray
) -> int:
    """Number of edges whose source is in ``mask`` (the buffer priority)."""
    count = handle.count_active(mask, *engine.store.intervals.bounds(handle.i))
    engine.clock.charge(COMPUTE, engine.machine.vertex_compute_time(handle.count))
    return count


def _admit_column(
    engine: "GraphSDEngine", j: int, column: List[BlockHandle], priority_mask: np.ndarray
) -> None:
    """Offer column ``j``'s freshly read secondary blocks to the buffer.

    The buffer keeps and accounts blocks *encoded* (on-disk bytes): what
    buffering saves is the block's re-read, so a compact store's buffer
    fits more secondary blocks per byte of budget.
    """
    buffer = engine.buffer
    # Only admissions change residency and column j's have not started,
    # so "resident now" is exactly "served from the buffer by the load".
    fresh = [h for h in column if h.i > j and (h.i, j) not in buffer]
    for handle in fresh:
        if handle.nbytes <= buffer.capacity_bytes:
            priority = _count_active_edges(engine, handle, priority_mask)
            buffer.put((handle.i, j), handle, priority)
    engine.tracer.metrics.set_gauge("buffer.occupancy_bytes", buffer.used_bytes)


def run_fciu_round(engine: "GraphSDEngine") -> VertexSubset:
    """Execute one FCIU round on a :class:`~repro.core.engine.GraphSDEngine`."""
    program = engine.program
    store = engine.store
    P = store.P
    n = engine.ctx.num_vertices
    frontier = engine.frontier
    do_cross = engine.config.enable_cross_iteration and engine.iterations_remaining >= 2

    # ---- Phase 1: iteration t -------------------------------------------
    token = engine.begin_iteration()
    prev = program.copy_state(engine.state)
    acc, _ = engine.take_carried_accumulator()
    acc_next = engine.acc_next
    gate = None if program.all_active else frontier.mask

    activated_mask = np.zeros(n, dtype=bool)
    edges1 = 0
    blocks1 = 0
    prefetcher = engine.make_prefetcher()
    admit = engine.buffer_enabled
    priority_mask = frontier.mask if gate is not None else np.ones(n, dtype=bool)
    gates = [threading.Event() for _ in range(P)]

    def gated_load(j: int) -> List[BlockHandle]:
        # The residency check for column j must see column j-1's
        # admissions, exactly as a serial sweep would.
        if admit and j > 0:
            prefetcher.wait_gate(gates[j - 1])
        return _load_column_buffered(engine, j, 0)

    tasks: List[ColumnTask] = [partial(gated_load, j) for j in range(P)]
    phase1_span = engine.tracer.span(
        "fciu.phase1", cat="phase", cross=do_cross, columns=P
    )
    with phase1_span, engine.overlap_region() as region:
        if region is not None:
            tasks[0] = region.measure_fill(tasks[0])
        stream = prefetcher.run(tasks)
        try:
            for j in range(P):
                column = next(stream)
                if admit:
                    # Admissions first: residency and priorities at this
                    # point are exactly what a serial sweep would see
                    # (nothing between column start and each put touches
                    # the buffer), and opening the gate here lets the
                    # worker check column j+1's residency safely.
                    _admit_column(engine, j, column, priority_mask)
                    gates[j].set()

                diag_block = None
                for handle in column:
                    engine._crash_point("mid-scatter")
                    # Decoded once: pushed, cross-pushed, then dropped.
                    block = handle.decode()
                    engine.push_block(prev, block, acc, gate)
                    edges1 += block.count
                    if do_cross and block.i < j:
                        # Sources in interval i are final for iteration t:
                        # push their t+1 contributions now (Algorithm 3,
                        # lines 7-11).
                        engine.next_landed |= engine.push_block(
                            engine.state, block, acc_next, activated_mask
                        )
                    if block.i == j:
                        diag_block = block  # held in memory (Algorithm 3, line 13)
                    del block
                blocks1 += len(column)

                engine.apply_interval(j, acc, activated_mask)

                if do_cross and diag_block is not None and diag_block.count:
                    # Interval j just finished updating; its diagonal block
                    # can now cross-push (Algorithm 3, lines 13-16).
                    engine.next_landed |= engine.push_block(
                        engine.state, diag_block, acc_next, activated_mask
                    )
                # The handles (and a raw diagonal) view the column's
                # payload: release it before the next column loads.
                column = handle = diag_block = None

                if admit:
                    # Interval j's activations are now known; re-rank the
                    # cached secondary blocks whose sources live in interval
                    # j (§4.3: "the priority ... automatically updated after
                    # the processing of this secondary sub-block").
                    for jj in range(j):
                        resident = engine.buffer.peek((j, jj))
                        if resident is not None:
                            engine.buffer.update_priority(
                                (j, jj), _count_active_edges(engine, resident, activated_mask)
                            )
        finally:
            stream.close()

    engine._store_state()
    activated1 = int(np.count_nonzero(activated_mask))
    if do_cross:
        upper_diag_bytes = sum(
            store.block_nbytes(i, j) for j in range(P) for i in range(j + 1)
        )
        engine.charge_future_value_overhead(upper_diag_bytes)
    engine.end_iteration(
        token,
        "fciu" if do_cross else "full",
        frontier.count,
        edges1,
        activated1,
        cross_pushed=activated1 if do_cross else 0,
        subblocks_processed=blocks1,
    )

    if not do_cross:
        return VertexSubset(n, activated_mask)
    if activated1 == 0 and not engine.next_landed:
        # Nothing was activated and nothing was pre-pushed: iteration
        # t+1 would be a no-op, so the round ends converged.
        return VertexSubset(n, activated_mask)

    # ---- Phase 2: iteration t+1 (secondary sub-blocks only) ---------------
    token = engine.begin_iteration()
    prev2 = program.copy_state(engine.state)
    gate2 = None if program.all_active else activated_mask
    acc2, _ = engine.take_carried_accumulator()
    new_activated = np.zeros(n, dtype=bool)
    # No gating: phase 2 never mutates the buffer, so lookahead residency
    # checks are race-free.
    with engine.tracer.span("fciu.phase2", cat="phase", columns=P):
        edges2, blocks2 = engine.sweep_columns(
            range(P),
            lambda j: _load_column_buffered(engine, j, j + 1),
            prev2,
            gate2,
            acc2,
            new_activated,
        )

    engine._store_state()
    engine.end_iteration(
        token,
        "fciu2",
        activated1,
        edges2,
        int(np.count_nonzero(new_activated)),
        subblocks_processed=blocks2,
    )
    return VertexSubset(n, new_activated)
