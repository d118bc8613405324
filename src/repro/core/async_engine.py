"""Priority-driven asynchronous execution for monotonic algorithms.

Synchronous (BSP) rounds gather every contribution from the *previous*
iteration's snapshot, so a value written early in a sweep waits a full
iteration before its neighbors see it. For **monotonic** programs that
delay is pure overhead: each update only moves vertex values further
down a bounded lattice (MIN relaxations like SSSP/SSWP/CC/BFS, or
residual refinement like PageRank-Delta/PPR), so it is always safe to
consume a value the moment it is written. :class:`AsyncGraphSDEngine`
exploits this with a priority-driven sweep schedule:

* A **pending matrix** tracks, per destination interval ``j``, which
  source vertices have produced an update not yet propagated into ``j``.
* Each *sweep* repeatedly pops the hottest destination interval — the
  one with the largest **pending frontier mass** (sum of the pending
  sources' residuals, i.e. active count x mean residual) — gathers
  exactly those sources' edges, and applies interval ``j`` immediately.
* Gathers read the **live** state, so values applied by earlier pops of
  the same sweep propagate to later pops without waiting: a chain of
  improvements can cross arbitrarily many intervals within one sweep
  (unbounded-hop propagation), while BSP advances one hop per iteration.
* After applying interval ``j``, a pop **chases the diagonal**: sources
  activated inside ``j`` that feed ``j``'s own diagonal sub-block are
  re-gathered and re-applied immediately — each round only at the
  destinations its edges reached — until the interval reaches a local
  fixed point. Power-law graphs concentrate relaxation chains
  around their hub interval, so without the chase those chains would
  cost one sweep per hop — exactly the BSP behavior async exists to
  beat.
* An interval is popped at most once per sweep; updates that re-activate
  an already-popped interval carry over to the next sweep. Vertex state
  is persisted once per sweep (not once per BSP iteration), which is
  where the charged I/O savings come from.

Why the fixed point is *bitwise* identical for MIN programs
-----------------------------------------------------------
``np.minimum`` over float64 is associative, commutative, and idempotent,
and every program update is ``value = min(value, gather(...))`` where
``gather`` is monotone in its inputs (float ``+`` and ``max`` with a
constant preserve the IEEE total order on non-NaN values). The reachable
values form a finite join-free lattice — each vertex's value only ever
decreases, through finitely many representable floats — so chaotic
(asynchronous, any order, any batching) iteration and Jacobi (BSP)
iteration both converge to the *least* fixed point, and that fixed point
is a unique set of bit patterns. The convergence harness
(:mod:`repro.core.convergence`) checks exactly this: async final state
``==`` BSP final state bit-for-bit.

ADD-combine programs are different: float addition is not associative,
and PR-D/PPR's activation threshold (``|delta| > tol``) makes the final
bits depend on merge *grouping and order*. Reordering their merges
cannot preserve the reference bits, so for ADD-combine monotonic
programs this engine keeps the classic generation-disciplined rounds
(bit-exact against :class:`~repro.core.engine.GraphSDEngine` by
construction) and emits the priority ranking as *observational*
:class:`~repro.obs.audit.PriorityDecision` records only. Non-monotonic
programs (plain PageRank's per-iteration averaging has no monotone
fixpoint) are refused outright — see
:func:`~repro.core.convergence.require_async_capable`.

Scheduling and I/O composition
------------------------------
Each pop still runs the §4.1 state-aware discipline at sub-block
granularity: per source interval the index access mode comes from
:meth:`~repro.core.scheduler.StateAwareScheduler.plan_index_access`, and
each sub-block independently chooses a selective gather (only the
pending sources' edges) or a full streamed load (gated to the pending
mask — the MIN identity makes gating an exact no-op) by comparing their
modeled disk costs. A pop's loads are one plan of ``(thunk, gate)``
entries consumed by
:meth:`~repro.core.engine_base.EngineBase.consume_plan` — the same
consumer as an SCIU scatter, its selective gathers read by the same
batched pass — so pipelined overlap and K-lane gather credits compose
with the priority order unchanged.

Faults: transient I/O faults are absorbed by the storage retry layer as
usual. If a pop's gather exhausts its retry budget, the pop is re-planned
as gated full loads of the same rows and consumed again — safe without
rollback because MIN-combining a contribution twice is idempotent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.core.checkpoint import CheckpointManager

from repro.algorithms.base import Combine, VertexProgram
from repro.core.convergence import require_async_capable
from repro.core.engine import GraphSDEngine
from repro.core.engine_base import PlanEntry
from repro.core.result import RunResult
from repro.graph.grid import INDEX_GATHER, EdgeBlock, SelectiveEntry
from repro.obs.audit import PriorityDecision
from repro.storage.faults import FaultError
from repro.utils.bitset import VertexSubset, distinct_sorted
from repro.utils.timers import SCHEDULING


class AsyncGraphSDEngine(GraphSDEngine):
    """Asynchronous priority-driven engine (monotonic programs only)."""

    engine_name = "graphsd-async"

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        #: Pending matrix: ``_pending[j, v]`` means source ``v`` has an
        #: update not yet propagated into destination interval ``j``.
        #: Allocated per run for MIN-combine programs; ``None`` otherwise.
        self._pending: Optional[np.ndarray] = None
        #: Improvement magnitude at each vertex's last activation (the
        #: "mean residual" factor of the priority score); 1.0 for the
        #: initial frontier.
        self._residual: Optional[np.ndarray] = None
        #: ``_feeds[i, j]`` iff sub-block ``(i, j)`` holds edges: source
        #: interval ``i`` feeds destination column ``j``.
        self._feeds: Optional[np.ndarray] = None
        self._out_positive: Optional[np.ndarray] = None
        #: Every priority pop of the run, in pop order (also mirrored to
        #: the tracer as ``priority`` events when tracing is enabled).
        self.priority_decisions: List[PriorityDecision] = []

    # -- capability gate ---------------------------------------------------

    def run(self, program: VertexProgram, *args: object, **kwargs: object) -> RunResult:
        require_async_capable(program)
        return super().run(program, *args, **kwargs)  # type: ignore[arg-type]

    # -- per-run state -----------------------------------------------------

    def _setup_run(self) -> None:
        super()._setup_run()
        self.priority_decisions = []
        self._sweeps_done = 0
        n = self.ctx.num_vertices
        self._feeds = self.store.block_counts > 0
        self._out_positive = self.ctx.require_out_degrees() > 0
        if self.program.combine is Combine.MIN:
            useful = self.frontier.mask & self._out_positive
            self._pending = np.array(
                [self._column_sources(j, useful) for j in range(self.store.P)]
            )
            residual = np.zeros(n, dtype=np.float64)
            residual[self.frontier.mask] = 1.0
            self._residual = residual
        else:
            self._pending = None
            self._residual = None

    def _column_sources(self, j: int, mask: np.ndarray) -> np.ndarray:
        """``mask`` restricted to the source intervals that feed column ``j``."""
        assert self._feeds is not None  # built in _setup_run
        out = np.zeros_like(mask)
        intervals = self.store.intervals
        for i in np.flatnonzero(self._feeds[:, j]).tolist():
            lo, hi = intervals.bounds(i)
            out[lo:hi] = mask[lo:hi]
        return out

    def _has_pending_work(self) -> bool:
        if self._pending is not None and bool(self._pending.any()):
            return True
        return super()._has_pending_work()

    # -- checkpoint hooks --------------------------------------------------

    def _checkpoint_extra_arrays(self) -> Dict[str, np.ndarray]:
        extras = dict(super()._checkpoint_extra_arrays())
        if self._pending is not None and self._residual is not None:
            for j in range(self.store.P):
                extras[f"pending_{j}"] = self._pending[j]
            extras["residual"] = self._residual
        return extras

    def _restore_extra_arrays(self, manager: "CheckpointManager") -> None:
        super()._restore_extra_arrays(manager)
        if self.program.combine is Combine.MIN:
            n = self.ctx.num_vertices
            pending = np.zeros((self.store.P, n), dtype=bool)
            for j in range(self.store.P):
                pending[j] = manager.load_extra(f"pending_{j}", n, bool)
            self._pending = pending
            self._residual = manager.load_extra("residual", n, np.float64)

    # -- round dispatch ----------------------------------------------------

    def _run_round(self) -> VertexSubset:
        if self.program.combine is Combine.MIN:
            return self._run_sweep()
        return self._run_add_round()

    # -- ADD-combine path: classic rounds + observational ranking ----------

    def _run_add_round(self) -> VertexSubset:
        """One classic generation-disciplined round for ADD programs.

        Float addition is order-sensitive, so the merge schedule must
        stay exactly the synchronous engine's to keep the reference
        bits; the priority ranking is recorded for observability only.
        """
        sweep_no = (self._sweeps_done or 0) + 1
        self._emit_add_ranking(sweep_no)
        frontier = GraphSDEngine._run_round(self)
        self._sweeps_done = sweep_no
        return frontier

    def _emit_add_ranking(self, sweep_no: int) -> None:
        delta = self.state.get("delta")
        ranked: List[Tuple[float, int, int]] = []
        for j in range(self.store.P):
            pend = self._column_sources(j, self.frontier.mask)
            count = int(np.count_nonzero(pend))
            if count == 0:
                continue
            if delta is not None:
                score = float(np.abs(delta[pend]).sum())
            else:
                score = float(count)
            ranked.append((score, j, count))
        ranked.sort(key=lambda t: (-t[0], t[1]))
        for rank, (score, j, count) in enumerate(ranked, start=1):
            decision = PriorityDecision(
                sweep=sweep_no,
                rank=rank,
                interval=j,
                score=score,
                candidates=len(ranked),
                pending_vertices=count,
            )
            self.priority_decisions.append(decision)
            self.tracer.priority(decision)

    # -- MIN-combine path: one priority-driven sweep -----------------------

    def _pop_plan(
        self, j: int, subset: VertexSubset, pend_mask: np.ndarray
    ) -> Dict[int, PlanEntry]:
        """Plan one pop: per-row index modes, per-block full-vs-selective.

        Returns one plan entry per source row, in consume order — a full
        streamed load gated to ``pend_mask``, or an ungated selective
        gather of just the pending sources' edges (all of the pop's
        selective gathers read in one pass by :meth:`read_selective`).
        """
        store = self.store
        intervals = store.intervals
        index_plan = self.scheduler.plan_index_access(subset)

        full: Dict[int, bool] = {}  # row -> full load? in consume order
        selective: List[SelectiveEntry] = []
        for i in range(store.P):
            if index_plan.active_per_row[i] == 0 or store.block_edge_count(i, j) == 0:
                continue
            lo, hi = intervals.bounds(i)
            ids = subset.interval_indices(lo, hi)
            full[i] = self._full_load_is_cheaper(i, j, ids)
            if not full[i]:
                selective.append((i, j, ids, int(index_plan.mode[i])))
        loads = iter(self.read_selective(selective))
        return {
            i: (self._make_full_task(i, j), pend_mask) if is_full else (next(loads), None)
            for i, is_full in full.items()
        }

    def _full_load_is_cheaper(self, i: int, j: int, ids: np.ndarray) -> bool:
        """§4.1 at sub-block granularity for block ``(i, j)``.

        Prices the selective gather of the sources ``ids`` (their share
        of row ``i``'s adjacency, read randomly, one request each)
        against streaming the whole block in one extent.
        """
        store = self.store
        disk = self.machine.disk
        out_degrees = self.ctx.require_out_degrees()
        sel_bytes = float(out_degrees[ids].sum()) * store.adjacency_bytes_per_edge / store.P
        sel_cost = disk.ran_read_time(sel_bytes, requests=len(ids))
        return disk.seq_read_time(store.block_nbytes(i, j), requests=1) < sel_cost

    def _make_full_task(self, i: int, j: int) -> Callable[[], EdgeBlock]:
        def task() -> EdgeBlock:
            return self.store.load_block(i, j)

        return task

    def _apply_measured(
        self,
        j: int,
        acc: np.ndarray,
        scratch: Optional[np.ndarray],
        ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply interval ``j`` and refresh the activated vertices'
        residuals: the interval form through ``scratch``, the reusable
        full-length activation buffer, or the form at ``ids`` alone
        (see :meth:`apply_interval`).

        Returns the activated ids, ascending and local to the interval.
        """
        residual = self._residual
        assert residual is not None  # allocated in _setup_run (MIN path)
        lo, hi = self.store.intervals.bounds(j)
        value = self.program.result(self.state)[lo:hi]
        if ids is None:
            assert scratch is not None  # the interval form writes it
            old = value.copy()
            self.apply_interval(j, acc, scratch)
            act = np.flatnonzero(scratch[lo:hi])
            before = old[act]
        else:
            old = value[ids]
            moved = self.apply_interval(j, acc, None, ids=ids)
            act, before = ids[moved], old[moved]
        if act.size:
            improvement = before - value[act]
            residual[lo + act] = np.where(np.isfinite(improvement), improvement, 1.0)
        return act

    def _chase_diagonal(
        self,
        j: int,
        acc: np.ndarray,
        act: np.ndarray,
        diagonal: Optional[EdgeBlock],
    ) -> Tuple[np.ndarray, int, int]:
        """Drain interval ``j``'s internal chains through its diagonal.

        Sources just activated inside ``j`` (``act``: ascending local
        ids) that feed the diagonal sub-block ``(j, j)`` are re-gathered
        from the live state and re-applied until the interval reaches a
        local fixed point. Power-law graphs concentrate relaxation chains
        around the hub interval; without the chase each in-interval hop
        would cost a whole sweep.

        The pop holds the diagonal in memory while chasing: if the pop
        already full-loaded ``(j, j)`` it is passed in as ``diagonal``,
        and otherwise the first chase round makes the §4.1 cost choice —
        a selective gather of just the chase set's edges, or one full
        streamed load that is then retained, so every later round is
        pure in-memory compute proportional to the chase set (its edges
        are cut out of the cached block by source offsets).

        A round costs its chase set: the chase set, the activations and
        their union are sorted local-id arrays, and a round applies only
        at the destinations its push reached — everywhere else ``acc``
        holds what an earlier apply of the pop already folded in.
        Returns ``(activated union, edges, blocks)``.
        """
        edges = 0
        blocks = 0
        store = self.store
        if store.block_edge_count(j, j) == 0:
            return act, edges, blocks
        assert self._out_positive is not None  # built in _setup_run
        lo, hi = store.intervals.bounds(j)
        # Block (j, j) holds edges, so every source of j with out-edges
        # may feed it (the pending masks' test, one interval coarse).
        feeds_self = self._out_positive[lo:hi]
        found = [act]
        chase = act[feeds_self[act]]
        while chase.size:
            blocks += 1
            block: Optional[EdgeBlock] = None
            if diagonal is None:
                ids = chase + lo
                try:
                    if self._full_load_is_cheaper(j, j, ids):
                        diagonal = store.load_block(j, j)
                    else:
                        (load,) = self.read_selective([(j, j, ids, INDEX_GATHER)])
                        block = load()
                except FaultError as exc:
                    self.record_fault_event(
                        f"sweep {(self._sweeps_done or 0) + 1}: diagonal "
                        f"chase for interval {j} failed ({exc}); degraded "
                        "to a gated full load"
                    )
                    diagonal = store.load_block(j, j)
            active: Optional[np.ndarray] = None
            if block is None:
                assert diagonal is not None  # handed in by the pop or loaded above
                block = diagonal  # retained in memory: re-gathers cost no disk
                active = chase  # cut the chase set's edges out of it
            if block.count == 0:
                break
            reached = self.push_reached(self.state, block, acc, active)
            edges += block.count
            act = self._apply_measured(j, acc, None, ids=reached)
            if not act.size:
                break
            found.append(act)
            chase = act[feeds_self[act]]
        return distinct_sorted(np.concatenate(found), hi - lo), edges, blocks

    def _run_sweep(self) -> VertexSubset:
        """One sweep: pop pending intervals hottest-first, apply live."""
        store = self.store
        n = self.ctx.num_vertices
        P = store.P
        pending = self._pending
        residual = self._residual
        feeds, out_positive = self._feeds, self._out_positive
        assert pending is not None and residual is not None  # MIN path only
        assert feeds is not None and out_positive is not None
        sweep_no = (self._sweeps_done or 0) + 1

        token = self.begin_iteration()
        frontier_size = self.frontier.count
        acc = self.fresh_accumulator()
        identity = self.program.combine.identity
        activated_sweep = np.zeros(n, dtype=bool)
        scratch = np.zeros(n, dtype=bool)
        edges_processed = 0
        blocks_processed = 0
        popped: Set[int] = set()
        rank = 0

        with self.tracer.span("async.sweep", cat="phase", sweep=sweep_no):
            while True:
                candidates = [
                    j for j in range(P) if j not in popped and pending[j].any()
                ]
                if not candidates:
                    break
                scores = np.array(
                    [float(residual[pending[j]].sum()) for j in candidates]
                )
                best = int(np.argmax(scores))  # first max -> lowest interval
                j = candidates[best]
                rank += 1

                pend_mask = pending[j].copy()
                pending[j][:] = False
                popped.add(j)
                pend_count = int(np.count_nonzero(pend_mask))
                subset = VertexSubset(n, pend_mask)
                # Scoring + planning is the same O(|A| + P) benefit pass
                # the synchronous scheduler charges per decision.
                self.clock.charge(
                    SCHEDULING, self.machine.sched_eval_time(pend_count + P)
                )

                lo, hi = store.intervals.bounds(j)
                acc[lo:hi] = identity
                plan = self._pop_plan(j, subset, pend_mask)
                full_rows = {i for i, (_task, gate) in plan.items() if gate is not None}
                n_full = len(full_rows)
                chase_blocks = 0
                with self.tracer.span(
                    "async.pop", cat="phase", interval=j, rank=rank,
                    blocks=len(plan),
                ):
                    try:
                        consumed = self.consume_plan(
                            list(plan.values()), self.state, acc
                        )
                    except FaultError as exc:
                        # Re-plan the same rows as gated full loads. No
                        # rollback: MIN-combining is idempotent, so blocks
                        # that already landed may be combined again.
                        self.record_fault_event(
                            f"sweep {sweep_no}: async gather for interval "
                            f"{j} failed ({exc}); degraded pop to gated full streaming"
                        )
                        full_rows = set(plan)
                        consumed = self.consume_plan(
                            [(self._make_full_task(i, j), pend_mask) for i in plan],
                            self.state, acc,
                        )
                    # A full-loaded diagonal stays in memory for the chase.
                    diagonal = (
                        next((b for b in consumed if b.i == j), None)
                        if j in full_rows
                        else None
                    )
                    edges_processed += sum(block.count for block in consumed)
                    blocks_processed += len(plan)
                    act = self._apply_measured(j, acc, scratch)
                    if act.size:
                        act, chase_edges, chase_blocks = self._chase_diagonal(
                            j, acc, act, diagonal
                        )
                        edges_processed += chase_edges
                        blocks_processed += chase_blocks
                n_act = int(act.size)

                if n_act:
                    act = act + lo
                    activated_sweep[act] = True
                    # Propagate live: every destination column fed by a
                    # newly activated source becomes (or stays) pending.
                    # Columns already popped this sweep pick the update
                    # up next sweep; the chase already drained this pop's
                    # own diagonal, so row j stays clear.
                    push = act[out_positive[act]]
                    for c in np.flatnonzero(feeds[j]).tolist():
                        if c != j:
                            pending[c, push] = True

                decision = PriorityDecision(
                    sweep=sweep_no,
                    rank=rank,
                    interval=j,
                    score=float(scores[best]),
                    candidates=len(candidates),
                    pending_vertices=pend_count,
                    new_activations=n_act,
                    selective_blocks=len(plan) - n_full + chase_blocks,
                    full_blocks=n_full,
                )
                self.priority_decisions.append(decision)
                self.tracer.priority(decision)

        self._store_state()
        self._sweeps_done = sweep_no
        self.end_iteration(
            token,
            "async",
            frontier_size,
            edges_processed,
            int(np.count_nonzero(activated_sweep)),
            subblocks_processed=blocks_processed,
        )
        return VertexSubset(n, pending.any(axis=0))
