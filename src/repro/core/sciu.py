"""Selective Cross-Iteration Update — Algorithm 2 of the paper.

Executed when the state-aware scheduler picks the on-demand I/O model.
One SCIU round is one BSP iteration:

1. For each source interval ``i`` with active vertices, and each
   destination interval ``j``, locate the active vertices' edges through
   ``index(i, j)`` and gather-load exactly those adjacency records
   (merged into sequential runs where contiguous). Contributions are
   combined into the current iteration's accumulator.
2. Apply every interval: fold accumulated contributions (including any
   carried cross-iteration contributions pushed during the previous
   round) into the state, producing the activation set ``Out``.
3. *Cross-iteration step* (lines 15–23): vertices that were active this
   iteration **and** were re-activated by step 2 already have their
   edges in memory, so their next-iteration contributions are pushed
   immediately into the next accumulator and they are removed from
   ``Out`` — their edges will not be re-read next iteration. Their
   edges are found with one lookup over the round's retained edges and
   pushed as one batch (:meth:`~repro.core.engine_base.EngineBase.push_blocks`).

The push for iteration ``t+1`` reads the *post-apply* state (the
vertex's latest value), exactly as the paper's ``CrossIterUpdate``;
because contributions rest in the carried accumulator until the next
apply, the state trajectory stays per-iteration identical to strict BSP
(tested against the in-memory oracle).

Plan-then-consume execution
---------------------------
The scatter phase first builds a *block plan* on the consuming thread:
every ``(i, j)`` pair with active sources becomes one entry of a single
batched read (:meth:`~repro.core.engine.GraphSDEngine.read_selective`),
which reads all their index entries and edges in one data pass and hands
back one ungated plan thunk per block that charges that block's index
read and selective edge read.
:meth:`~repro.core.engine_base.EngineBase.consume_plan` then streams the
thunks through a :class:`~repro.storage.gatherpool.GatherPool` (which
delegates execution to a single in-order
:class:`~repro.storage.prefetch.BlockPrefetcher` worker) inside a clock
:class:`~repro.utils.timers.OverlapRegion` — with pipelining enabled,
block ``k+1``'s index reads and gather-loads overlap with block ``k``'s
gather/combine compute on the simulated clock, and with
``gather_lanes > 1`` the pool additionally credits the DISK time hidden
by spreading the independent loads over K modeled lanes. The single
in-order worker replays the serial disk-operation stream exactly, so
injected faults fire identically and the existing GatherFault
degradation path (retry budget exhausted → rolled back → full
streaming) works unchanged. The simulated COMPUTE is charged block by
block as each load is consumed; the wall work is one gather and one
combine over the round's concatenated edges once the last load is in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

if TYPE_CHECKING:  # engine.py imports this module; import only for types
    from repro.core.engine import GraphSDEngine

from repro.graph.grid import EdgeBlock, SelectiveEntry
from repro.storage.faults import FaultError, GatherFault
from repro.utils.bitset import VertexSubset


def _candidate_edges(blocks: List[EdgeBlock], candidates: np.ndarray) -> List[EdgeBlock]:
    """Each of the non-empty ``blocks`` cut to its edges whose source is
    a ``candidates`` vertex, with one lookup over all their edges; a
    block that keeps none is left out."""
    if not blocks:
        return []
    src = np.concatenate([block.src for block in blocks])
    keep = candidates[src]
    kept = np.add.reduceat(keep, np.cumsum([0] + [block.count for block in blocks[:-1]]))
    positions = np.flatnonzero(keep)
    src = src[positions]
    dst = np.concatenate([block.dst for block in blocks])[positions]
    weights = [block.wgt for block in blocks if block.wgt is not None]
    wgt = np.concatenate(weights)[positions] if weights else None
    cuts = np.cumsum(kept).tolist()
    return [
        EdgeBlock(block.i, block.j, src[a:b], dst[a:b], None if wgt is None else wgt[a:b])
        for block, a, b in zip(blocks, [0] + cuts[:-1], cuts)
        if b > a
    ]


def run_sciu_round(engine: "GraphSDEngine") -> VertexSubset:
    """Execute one SCIU iteration on a :class:`~repro.core.engine.GraphSDEngine`."""
    program = engine.program
    store = engine.store
    intervals = store.intervals
    n = engine.ctx.num_vertices
    frontier = engine.frontier

    token = engine.begin_iteration()
    prev = program.copy_state(engine.state)
    acc, landed = engine.take_carried_accumulator()

    # The carried accumulator is mutated in place during the scatter
    # loop. If an unrecoverable fault aborts the round mid-scatter, the
    # engine falls back to full streaming for this iteration — which
    # must re-start from the *pre-round* carried contributions, so keep
    # restorable copies (only when faults can actually occur).
    carried_backup = (acc.copy(), landed) if engine.disk.injector is not None else None

    try:
        with engine.tracer.span("sciu.plan", cat="phase"):
            index_plan = engine.scheduler.take_index_plan(frontier)
        active_per_row = index_plan.active_per_row

        # ---- plan: one selective read per active (i, j), one data pass ----
        entries: List[SelectiveEntry] = []
        for i in range(store.P):
            if active_per_row[i] == 0:
                continue
            lo, hi = intervals.bounds(i)
            ids = frontier.interval_indices(lo, hi)
            mode = int(index_plan.mode[i])
            entries += [(i, j, ids, mode) for j in range(store.P) if store.block_edge_count(i, j)]
        plan = [(load, None) for load in engine.read_selective(entries)]

        # ---- consume: gather/combine in plan order ---------------------
        with engine.tracer.span(
            "sciu.scatter", cat="phase", blocks=len(plan), lanes=engine.gather_lanes
        ):
            retained = engine.consume_plan(plan, prev, acc)
        edges_processed = sum(block.count for block in retained)
    except FaultError as exc:
        if carried_backup is not None:
            engine.acc_next, engine.next_landed = carried_backup
        engine.abandon_iteration(token)
        raise GatherFault(f"sciu gather aborted: {exc}") from exc

    activated_mask = np.zeros(n, dtype=bool)
    n_activated = 0
    with engine.tracer.span("sciu.apply", cat="phase"):
        for j in range(store.P):
            n_activated += engine.apply_interval(j, acc, activated_mask)
    engine._store_state()

    cross_pushed = 0
    if engine.config.enable_cross_iteration:
        candidates = activated_mask & frontier.mask
        # A sink (zero out-degree) has nothing to pre-push: removing it
        # from Out would leave no carried contributions behind, so the
        # engine would skip the no-op iteration strict BSP still runs.
        if engine.ctx.out_degrees is not None:
            candidates &= engine.ctx.out_degrees > 0
        cross_pushed = int(np.count_nonzero(candidates))
        if cross_pushed:
            with engine.tracer.span(
                "sciu.cross_push", cat="phase", vertices=cross_pushed
            ):
                engine.next_landed |= engine.push_blocks(
                    engine.state, _candidate_edges(retained, candidates), engine.acc_next
                )
            # Cross-pushed vertices leave Out: their edges need not be
            # loaded next iteration (Algorithm 2, line 17).
            activated_mask &= ~candidates

    engine.end_iteration(
        token,
        "sciu",
        frontier.count,
        edges_processed,
        n_activated,
        cross_pushed,
        subblocks_processed=len(plan),
    )
    return VertexSubset(n, activated_mask)
