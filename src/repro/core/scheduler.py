"""State-aware I/O scheduling strategy (§4.1).

Each iteration, GraphSD chooses between two I/O access models by
comparing their predicted costs:

* **full I/O model** — stream every sub-block sequentially::

      C_s = (|V| N + |E| (M + W)) / B_sr  +  |V| N / B_sw

* **on-demand I/O model** — read only the active vertices' edges::

      C_r = S_ran / B_rr + S_seq / B_sr + (index + values reads) / B_sr
            + |V| N / B_sw

  where ``S_seq``/``S_ran`` split the active-edge bytes into
  sequentially and randomly readable portions. The paper computes the
  split in one ``O(|A|)`` pass exploiting that high-degree vertices and
  runs of contiguous active ids read sequentially; we do the same:
  consecutive active ids are merged into *groups*, a group's estimated
  per-sub-block extent is ``deg(group) / P`` adjacency records, and
  extents at or above ``seq_run_threshold_bytes`` count as sequential.

The cost formulas call the *same* :class:`DiskProfile` methods the
simulated disk charges with, so predictions line up with charged time —
the property behind the paper's Fig. 10 ("GraphSD is able to select the
better I/O access model in all iterations").

One deliberate deviation from the paper's formula: the paper charges a
flat ``2 |V| N / B_sr`` for reading the index plus vertex values. Our
on-disk index is the real per-sub-block CSR offset array, and the engine
can either scan a row's full index or gather just the active entries;
the scheduler prices whichever access the engine will actually perform
(:meth:`StateAwareScheduler.plan_index_access`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.grid import INDEX_GATHER, INDEX_SCAN, INDEX_SPAN, GridStore
from repro.storage.disk import MachineProfile
from repro.tune.profile import TunedProfile
from repro.utils.bitset import VertexSubset
from repro.utils.runs import merge_runs  # noqa: F401  (re-exported; engines import it from here)
from repro.utils.validation import check_positive, require

#: Runs of at least this many bytes are priced (and charged) at
#: sequential bandwidth. 64 KiB is roughly where an HDD's transfer time
#: overtakes its seek time.
DEFAULT_SEQ_RUN_THRESHOLD = 64 * 1024

class IOModel(enum.Enum):
    FULL = "full"
    ON_DEMAND = "on_demand"


@dataclass
class CostEstimate:
    """The scheduler's per-iteration prediction (§4.1 notation)."""

    active_vertices: int
    active_edges: int
    c_full: float
    c_on_demand: float
    s_seq_bytes: float
    s_ran_bytes: float
    index_bytes: float
    chosen: IOModel

    @property
    def predicted_saving(self) -> float:
        """Positive when the chosen model is predicted to be cheaper."""
        return abs(self.c_full - self.c_on_demand)

    def to_dict(self) -> dict:
        """Stable JSON form (used by ``--stats json`` and the audit log)."""
        return {
            "active_vertices": self.active_vertices,
            "active_edges": self.active_edges,
            "c_full": self.c_full,
            "c_on_demand": self.c_on_demand,
            "s_seq_bytes": self.s_seq_bytes,
            "s_ran_bytes": self.s_ran_bytes,
            "index_bytes": self.index_bytes,
            "chosen": self.chosen.value,
        }


@dataclass
class IndexPlan:
    """Per-interval index access decision for the on-demand model.

    All arrays have one entry per source interval. ``mode`` picks the
    cheapest of the three access patterns for that row given where its
    active vertices sit; ``lo_local``/``hi_local`` bound them (valid for
    rows with actives).
    """

    mode: np.ndarray
    active_per_row: np.ndarray
    lo_local: np.ndarray
    hi_local: np.ndarray
    est_cost: float


class StateAwareScheduler:
    """Evaluates C_s vs C_r and picks the I/O access model."""

    def __init__(
        self,
        store: GridStore,
        out_degrees: np.ndarray,
        machine: MachineProfile,
        value_bytes_per_vertex: int,
        seq_run_threshold_bytes: int = DEFAULT_SEQ_RUN_THRESHOLD,
        pipelined: bool = False,
        gather_lanes: int = 1,
        tuned: Optional[TunedProfile] = None,
    ) -> None:
        require(
            out_degrees.shape == (store.num_vertices,),
            "out_degrees length must equal num_vertices",
        )
        check_positive(seq_run_threshold_bytes, "seq_run_threshold_bytes")
        self.store = store
        self.out_degrees = np.asarray(out_degrees, dtype=np.int64)
        self.machine = machine
        self.value_bytes = int(value_bytes_per_vertex)
        self.seq_run_threshold_bytes = int(seq_run_threshold_bytes)
        #: Predict *overlapped* cost (the engine runs its prefetch
        #: pipeline): a round's scatter stretch costs
        #: ``max(io, compute) + fill`` instead of ``io + compute``,
        #: matching the dual-timeline clock's charging exactly.
        self.pipelined = bool(pipelined)
        #: Modeled gather-lane concurrency of the engine's GatherPool;
        #: K>1 divides the on-demand edge-read time by the achievable
        #: parallelism. 1 reproduces the pre-pool arithmetic exactly.
        check_positive(gather_lanes, "gather_lanes")
        self.gather_lanes = int(gather_lanes)
        #: Fitted cost-model scales from ``graphsd tune`` (None = raw
        #: analytic predictions).
        self.tuned = tuned
        self.evaluations = 0
        self.eval_seconds = 0.0  # modeled benefit-evaluation compute (Fig. 11)

    @staticmethod
    def overlapped(io_seconds: float, compute_seconds: float, fill_seconds: float) -> float:
        """Elapsed time of one pipelined region (the SimClock formula)."""
        return min(
            io_seconds + compute_seconds,
            max(io_seconds, compute_seconds) + fill_seconds,
        )

    # -- cost components -------------------------------------------------

    def full_cost(self) -> float:
        """``C_s``: one full-model iteration.

        The paper's formula covers disk time only; we add the modeled
        update-compute term so the comparison predicts *total* iteration
        cost — with the calibrated compute rates (I/O 60-90 % of time,
        the paper's regime) the compute share is small but can tip
        near-crossover decisions the right way.
        """
        disk = self.machine.disk
        store = self.store
        vertex_bytes = store.num_vertices * self.value_bytes
        # A full sweep streams each column as one extent of the records
        # file, plus one request for the vertex values.
        vertex_read = disk.seq_read_time(vertex_bytes, requests=1)
        edges_read = disk.seq_read_time(store.total_edge_bytes, requests=store.P)
        write = disk.seq_write_time(vertex_bytes, requests=1)
        compute = self.machine.edge_compute_time(
            store.total_edges
        ) + self.machine.vertex_compute_time(store.num_vertices)
        if not self.pipelined:
            return vertex_read + edges_read + write + compute
        # Pipelined: the column sweep overlaps with gathers/applies; the
        # fill is the first column's read (the consumer's cold start).
        # Vertex reads/writes bracket the region and stay serial.
        fill = disk.seq_read_time(store.column_nbytes(0), requests=1)
        return vertex_read + write + self.overlapped(edges_read, compute, fill)

    def plan_index_access(self, frontier: VertexSubset) -> IndexPlan:
        """Choose the cheapest index access pattern per source interval.

        Candidates: scan the whole row (sequential), read the contiguous
        span covering the active ids (sequential — wins when the
        frontier is a wave of nearby ids), or gather one entry pair per
        active vertex (random — wins for a handful of scattered ids).
        Returns the plan plus its total estimated disk cost.
        """
        store = self.store
        disk = self.machine.disk
        P = store.P
        sizes = store.intervals.sizes()
        boundaries = store.intervals.boundaries
        active = frontier.indices()
        positions = np.searchsorted(active, boundaries)
        active_per_row = np.diff(positions).astype(np.int64)

        mode = np.zeros(P, dtype=np.int8)
        lo_local = np.zeros(P, dtype=np.int64)
        hi_local = np.zeros(P, dtype=np.int64)
        total_cost = 0.0
        for i in range(P):
            a = int(active_per_row[i])
            if a == 0:
                continue
            # Per-entry index bytes for this row: 8 (INDEX_DTYPE) through
            # format 2, the row's widest narrowest-uint column in the
            # compact3 layout — pricing the bytes the store will read.
            item = store.index_entry_bytes(i)
            lo_local[i] = int(active[positions[i]]) - int(boundaries[i])
            hi_local[i] = int(active[positions[i + 1] - 1]) - int(boundaries[i])
            span = int(hi_local[i] - lo_local[i]) + 1
            scan_cost = disk.seq_read_time((int(sizes[i]) + 1) * item, requests=1) * P
            span_cost = disk.seq_read_time((span + 1) * item, requests=1) * P
            gather_cost = disk.ran_read_time(a * 2 * item, requests=a) * P
            best = min(scan_cost, span_cost, gather_cost)
            if best == span_cost:
                mode[i] = INDEX_SPAN
            elif best == gather_cost:
                mode[i] = INDEX_GATHER
            else:
                mode[i] = INDEX_SCAN
            total_cost += best
        return IndexPlan(
            mode=mode,
            active_per_row=active_per_row,
            lo_local=lo_local,
            hi_local=hi_local,
            est_cost=total_cost,
        )

    def on_demand_cost(self, frontier: VertexSubset) -> Tuple[float, float, float, float]:
        """``C_r`` and its (S_seq, S_ran, index_bytes) components."""
        disk = self.machine.disk
        store = self.store
        P = store.P
        active = frontier.indices()
        # Per-edge adjacency bytes of a selective load under the store's
        # encoding: M + W for raw records, the packed local record for the
        # compact layout (whose run-length headers selective loads skip).
        adj_bytes = store.adjacency_bytes_per_edge

        if active.size:
            degs = self.out_degrees[active]
            # Merge contiguous active ids into groups (one disk extent per
            # group per sub-block, approximately).
            breaks = np.empty(active.shape, dtype=bool)
            breaks[0] = True
            breaks[1:] = np.diff(active) != 1
            group_ids = np.cumsum(breaks) - 1
            group_deg = np.bincount(group_ids, weights=degs)
            extent_bytes = group_deg * adj_bytes / P
            seq_mask = extent_bytes >= self.seq_run_threshold_bytes
            s_seq = float(extent_bytes[seq_mask].sum() * P)
            s_ran = float(extent_bytes[~seq_mask].sum() * P)
            n_groups = int(group_deg.shape[0])
            seq_requests = int(seq_mask.sum()) * P
            ran_requests = (n_groups - int(seq_mask.sum())) * P
        else:
            s_seq = s_ran = 0.0
            seq_requests = ran_requests = 0

        # Index access per source interval that has active vertices: the
        # plan prices the cheapest of scan / span / gather per row.
        plan = self.plan_index_access(frontier)
        index_cost = plan.est_cost
        # Rough byte figure for reporting (cost is what decides).
        index_bytes = index_cost * disk.seq_read_bw

        vertex_bytes = store.num_vertices * self.value_bytes
        active_edges = int(self.out_degrees[active].sum()) if active.size else 0
        edge_io = (
            disk.ran_read_time(s_ran, requests=ran_requests)
            + disk.seq_read_time(s_seq, requests=seq_requests)
            + index_cost
        )
        # SCIU's plan has one load task per nonzero (row, column) pair of
        # a row with active vertices; the gather pool spreads those tasks
        # over K modeled lanes.
        rows = plan.active_per_row > 0
        n_tasks = int(np.count_nonzero(store.block_counts[rows], axis=None))
        if self.gather_lanes > 1:
            # Perfect balance bound: K lanes can hide at most a 1/K'th
            # fraction per lane (never more lanes than tasks). Guarded so
            # K=1 reproduces the pre-pool arithmetic bit-for-bit.
            edge_io /= min(self.gather_lanes, max(1, n_tasks))
        vertex_io = disk.seq_read_time(vertex_bytes, requests=1) + disk.seq_write_time(
            vertex_bytes, requests=1
        )
        scatter_compute = self.machine.edge_compute_time(active_edges)
        apply_compute = self.machine.vertex_compute_time(store.num_vertices)
        if self.pipelined:
            # The scatter stretch (index + adjacency reads vs. gather
            # compute) overlaps; applies and vertex I/O stay serial. The
            # fill is approximated as one average block load.
            fill = edge_io / max(1, n_tasks)
            cost = vertex_io + apply_compute + self.overlapped(
                edge_io, scatter_compute, fill
            )
        else:
            cost = edge_io + vertex_io + scatter_compute + apply_compute
        return cost, s_seq, s_ran, index_bytes

    # -- the decision ------------------------------------------------------

    def select(self, frontier: VertexSubset) -> CostEstimate:
        """Evaluate both models for this frontier and pick the cheaper.

        Also accounts the modeled cost of the evaluation itself (one
        O(|A|) pass), which Fig. 11 compares against the I/O time saved.
        """
        c_full = self.full_cost()
        c_od, s_seq, s_ran, idx_bytes = self.on_demand_cost(frontier)
        if self.tuned is not None:
            # Fitted per-machine multipliers (graphsd tune). The neutral
            # 1.0 scale is float-exact (x * 1.0 == x), so an empty fit
            # cannot perturb decisions.
            c_full *= self.tuned.full_cost_scale
            c_od *= self.tuned.on_demand_cost_scale
        chosen = IOModel.ON_DEMAND if c_od <= c_full else IOModel.FULL
        self.evaluations += 1
        self.eval_seconds += self.machine.sched_eval_time(frontier.count + self.store.P)
        active_edges = int(self.out_degrees[frontier.indices()].sum()) if frontier.count else 0
        return CostEstimate(
            active_vertices=frontier.count,
            active_edges=active_edges,
            c_full=c_full,
            c_on_demand=c_od,
            s_seq_bytes=s_seq,
            s_ran_bytes=s_ran,
            index_bytes=idx_bytes,
            chosen=chosen,
        )
