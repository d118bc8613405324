"""The GraphSD engine — Algorithm 1 of the paper.

Per round, the engine:

1. takes the current frontier (``V_active``),
2. runs the state-aware scheduler's benefit evaluation to pick the I/O
   access model (§4.1), unless the program is all-active (always full)
   or an ablation pins the model,
3. dispatches to :func:`~repro.core.sciu.run_sciu_round` (on-demand
   model) or :func:`~repro.core.fciu.run_fciu_round` (full model).

Cross-iteration contributions ride in a persistent accumulator
(``acc_next``, with the ``next_landed`` flag set once a push combined
an edge into it): pushes made during round ``t`` are folded into the
apply of round ``t+1``, and vertices whose contributions were pre-pushed
are excluded from the next frontier — which is exactly how the paper's
``Out``/``OutNI`` sets behave across Algorithm 1's iterations.

Ablation variants (§5.4) are configuration flags:

=============== =======================================================
GraphSD-b1      ``enable_cross_iteration=False`` — no future-value pushes
GraphSD-b2, -b3 ``force_model=IOModel.FULL`` — scheduler bypassed, every
                round uses the full model (the paper's b2 "no selective
                update" and b3 "full model pinned" are one run here)
GraphSD-b4      ``force_model=IOModel.ON_DEMAND`` — always on-demand I/O
no-buffer       ``buffer_bytes=0`` (Fig. 12)
=============== =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # lazy at runtime to keep layering acyclic
    from repro.core.checkpoint import CheckpointManager

from repro.algorithms.base import GraphContext
from repro.core.buffer import SubBlockBuffer
from repro.core.engine_base import EngineBase
from repro.core.fciu import run_fciu_round
from repro.core.scheduler import CostEstimate, IOModel, StateAwareScheduler
from repro.core.sciu import run_sciu_round
from repro.graph.grid import GridStore, SelectiveEntry, SelectiveLoad
from repro.storage.faults import GatherFault
from repro.storage.disk import MachineProfile, DEFAULT_MACHINE
from repro.utils.bitset import VertexSubset
from repro.utils.timers import SCHEDULING
from repro.utils.validation import check_nonneg, require

#: The paper limits the memory budget to 5 % of the graph data (§5.1);
#: the sub-block buffer gets that share by default.
DEFAULT_BUFFER_FRACTION = 0.05


@dataclass(frozen=True)
class GraphSDConfig:
    """Feature switches of the GraphSD engine (see module docstring)."""

    enable_cross_iteration: bool = True
    force_model: Optional[IOModel] = None
    #: Sub-block buffer capacity; ``None`` sizes it at
    #: ``DEFAULT_BUFFER_FRACTION`` of the graph, 0 disables buffering.
    buffer_bytes: Optional[int] = None
    #: Overlap I/O and compute on the dual-timeline clock: scatter
    #: stretches are charged ``max(io, compute) + fill`` instead of
    #: ``io + compute``. False (default) is serial. The same operations
    #: run in the same order either way, so results and every counter
    #: are bit-identical; only elapsed simulated time changes.
    pipelined: bool = False
    #: Modeled disk lanes for SCIU's selective gathers (see
    #: :mod:`repro.storage.gatherpool`). 1 (default) is the serial
    #: gather, bit-identical to the pre-pool engine; K>1 spreads the
    #: round's independent gather loads over K concurrent lanes and
    #: credits the hidden DISK time — results stay bit-identical, only
    #: elapsed simulated time changes.
    gather_lanes: int = 1

    def __post_init__(self) -> None:
        if self.buffer_bytes is not None:
            check_nonneg(self.buffer_bytes, "buffer_bytes")
        require(self.gather_lanes >= 1, "gather_lanes must be >= 1")

    # Named ablations from §5.4 ------------------------------------------

    @classmethod
    def baseline_b1(cls, **kw: Any) -> "GraphSDConfig":
        """GraphSD-b1: cross-iteration vertex update disabled."""
        return cls(enable_cross_iteration=False, **kw)

    @classmethod
    def baseline_b3(cls, **kw: Any) -> "GraphSDConfig":
        """GraphSD-b3: the full I/O model pinned for all iterations (also
        the paper's b2, selective vertex update disabled)."""
        return cls(force_model=IOModel.FULL, **kw)

    @classmethod
    def baseline_b4(cls, **kw: Any) -> "GraphSDConfig":
        """GraphSD-b4: the on-demand I/O model pinned for all iterations."""
        return cls(force_model=IOModel.ON_DEMAND, **kw)

    @classmethod
    def no_buffering(cls, **kw: Any) -> "GraphSDConfig":
        """Fig. 12's 'without buffering scheme' variant."""
        return cls(buffer_bytes=0, **kw)


class GraphSDEngine(EngineBase):
    """State- and dependency-aware out-of-core engine."""

    engine_name = "graphsd"

    def __init__(
        self,
        store: GridStore,
        machine: MachineProfile = DEFAULT_MACHINE,
        config: Optional[GraphSDConfig] = None,
        ctx: Optional[GraphContext] = None,
        label: Optional[str] = None,
    ) -> None:
        super().__init__(store, machine, ctx)
        self.config = config if config is not None else GraphSDConfig()
        if label is not None:
            self.engine_name = label
        if self.config.force_model is not IOModel.FULL:
            store._require_indexed()

        self.scheduler: Optional[StateAwareScheduler] = None
        self.buffer: Optional[SubBlockBuffer] = None
        self.acc_next: Optional[np.ndarray] = None
        #: Whether a push combined an edge into ``acc_next`` (pending work).
        self.next_landed = False
        self.cost_estimates: List[CostEstimate] = []

    # -- run setup ---------------------------------------------------------

    def _setup_run(self) -> None:
        self.scheduler = StateAwareScheduler(
            self.store,
            self.ctx.require_out_degrees(),
            self.machine,
            value_bytes_per_vertex=self.state_value_bytes,
            pipelined=self.pipelined,
            gather_lanes=self.config.gather_lanes,
        )
        capacity = self.config.buffer_bytes
        if capacity is None:
            # The budget models available RAM, so it is sized from the
            # encoding-independent logical graph size; admission then
            # accounts blocks at their *encoded* size, so a compact
            # store fits more secondary sub-blocks per byte (§4.3).
            capacity = int(DEFAULT_BUFFER_FRACTION * self.store.logical_edge_bytes)
        self.buffer = SubBlockBuffer(capacity, disk=self.disk)
        self.acc_next, self.next_landed = self.fresh_accumulator(), False
        self.cost_estimates = []

    @property
    def buffer_enabled(self) -> bool:
        return self.buffer is not None and self.buffer.capacity_bytes > 0

    # -- I/O configuration ---------------------------------------------------

    @property
    def pipelined(self) -> bool:
        return self.config.pipelined

    @property
    def gather_lanes(self) -> int:
        return self.config.gather_lanes

    def _has_pending_work(self) -> bool:
        return self.next_landed

    def _checkpoint_extra_arrays(self) -> Dict[str, np.ndarray]:
        # The carried cross-iteration accumulator is live control state:
        # contributions pre-pushed for the next apply must survive a
        # crash or they would be silently lost on resume.
        return {"acc_next": self.acc_next, "next_landed": np.array([self.next_landed])}

    def _restore_extra_arrays(self, manager: "CheckpointManager") -> None:
        self.acc_next = manager.load_extra("acc_next", self.ctx.num_vertices, np.float64)
        self.next_landed = bool(manager.load_extra("next_landed", 1, bool)[0])

    # -- accumulator plumbing (cross-iteration contributions) ---------------

    def take_carried_accumulator(self) -> Tuple[np.ndarray, bool]:
        """Swap out the carried next-iteration accumulator for a fresh one.

        Returns ``(acc, landed)``: every contribution pre-pushed for the
        iteration that is about to apply, and whether any landed.
        """
        carried = (self.acc_next, self.next_landed)
        self.acc_next, self.next_landed = self.fresh_accumulator(), False
        return carried

    # -- selective loads ----------------------------------------------------

    def charge_future_value_overhead(self, upper_diag_bytes: int) -> None:
        """Hook: extra I/O a system pays to realize cross-iteration updates.

        GraphSD pays nothing — its source-sorted grid captures the
        cross-eligible edges in the primary representation (§4.2:
        "Unlike previous works [Lumos] that create secondary partitions
        to store these edges, GraphSD can easily capture these edges
        with its graph representation"). The Lumos baseline overrides
        this to charge its secondary-partition traffic.
        """

    def read_selective(self, entries: Sequence[SelectiveEntry]) -> List[SelectiveLoad]:
        """The on-demand model's block reads: one data pass over
        ``entries`` (:meth:`GridStore.read_selective` at the scheduler's
        run threshold, so reads are charged at the threshold they were
        priced at). Each returned load is a plan thunk that charges
        its own index and edge reads when called. Traced, the pass is one
        ``grid.read_selective`` span and ``selective.*`` counters."""
        with self.tracer.span("grid.read_selective", cat="io", entries=len(entries)) as span:
            loads = self.store.read_selective(entries, self.scheduler.seq_run_threshold_bytes)
            if self.tracer.enabled:
                edges = sum(load.block.count for load in loads)
                nbytes = sum(load.nbytes for load in loads)
                span.annotate(edges=edges, bytes=nbytes)
                self.tracer.metrics.inc("selective.entries", len(loads))
                self.tracer.metrics.inc("selective.edges", edges)
                self.tracer.metrics.inc("selective.bytes", nbytes)
        return loads

    # -- model selection + dispatch (Algorithm 1) ---------------------------

    def select_model(self) -> IOModel:
        """Pick this round's I/O access model (charging evaluation time)."""
        if self.config.force_model is not None:
            return self.config.force_model
        if self.program.all_active:
            return IOModel.FULL
        with self.tracer.span("select_model", cat="scheduler"):
            before = self.scheduler.eval_seconds
            estimate = self.scheduler.select(self.frontier)
            self.clock.charge(SCHEDULING, self.scheduler.eval_seconds - before)
        self.cost_estimates.append(estimate)
        # Open a decision audit record; it is closed with the actual
        # simulated cost once the decided iteration has executed.
        self.tracer.audit_open(self._iterations_done + 1, estimate)
        return estimate.chosen

    def _run_round(self) -> VertexSubset:
        first_record = len(self._records)
        model = self.select_model()
        if model is IOModel.ON_DEMAND:
            try:
                frontier = run_sciu_round(self)
            except GatherFault as exc:
                # Graceful degradation: an unrecoverable fault during an
                # on-demand gather (retry budget exhausted) aborts the
                # selective round — the carried accumulator has been
                # rolled back, so the iteration can be re-run with the
                # full streaming model, which re-reads everything and
                # depends on no partial gather state.
                self.record_fault_event(
                    f"iteration {self._iterations_done + 1}: on-demand gather "
                    f"failed ({exc}); degraded to full streaming"
                )
                frontier = run_fciu_round(self)
        else:
            frontier = run_fciu_round(self)
        # Close the pending §4.1 audit with the first iteration the
        # decision produced (an FCIU round runs two; the prediction
        # priced one). ``actual_model`` exposes fault degradation.
        if self.tracer.enabled and len(self._records) > first_record:
            record = self._records[first_record]
            self.tracer.audit_close(
                actual_sim_seconds=record.breakdown.total,
                actual_io_seconds=record.breakdown.io,
                actual_model=record.model,
            )
        return frontier
