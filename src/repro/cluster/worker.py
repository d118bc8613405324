"""One simulated worker: a column shard with its own disk, clock, faults.

Each worker owns a set of destination columns of the shared P×P grid.
It opens the (already preprocessed) grid directory through its *own*
:class:`~repro.storage.blockfile.Device` bound to its own
:class:`~repro.storage.disk.SimulatedDisk` — the grid bytes are shared,
but every worker's reads are charged to its private clock, which is what
makes per-worker supersteps overlappable and stragglers detectable. A
private scratch device holds the worker's live value slices and its
generation-numbered checkpoint (the PR 1 double-buffered
:class:`~repro.core.checkpoint.CheckpointManager`, extended here with
the shard's owned slices, the owned-column list, and the per-sender
message watermarks that name the consistent cut).

The BSP superstep is split into four idempotent phases driven by the
coordinator — ``compute``, ``broadcast``, ``absorb``, ``checkpoint`` —
each guarded by a done-marker so a superstep can be *re-entered* after a
crash recovery: workers that already finished a phase skip it, and only
the rolled-back worker re-executes.

Bit-identity invariant: the compute phase is the single-node engines'
own column sweep (:meth:`~repro.core.engine_base.EngineBase.sweep_columns`
on a plain :class:`~repro.core.engine_base.EngineBase` bound to this
worker's store, disk and clock) restricted to the owned columns: blocks
in ascending source-interval order, reduced against a full-length
accumulator. The order and the kernels depend only on the grid — never
on ownership — so any worker computing any column produces the same bits.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import GraphContext, State, VertexProgram
from repro.cluster.interconnect import Interconnect, channel_name
from repro.cluster.messages import Inbox, ValueMessage, apply_messages
from repro.core.checkpoint import CheckpointManager
from repro.core.engine_base import EngineBase
from repro.graph.grid import GridStore
from repro.graph.vertexdata import VertexArrayStore
from repro.obs import NULL_TRACER, TracerLike
from repro.storage.blockfile import Device
from repro.storage.disk import MachineProfile, SimulatedDisk
from repro.storage.faults import FaultInjector
from repro.utils.bitset import VertexSubset
from repro.utils.timers import SimClock
from repro.utils.validation import require

WATERMARK_DTYPE = np.int64
COLUMNS_DTYPE = np.int64


class ClusterWorker:
    """One shard of the cluster: owned columns + private disk/clock."""

    def __init__(
        self,
        wid: int,
        grid_root: Path,
        prefix: str,
        scratch_root: Path,
        machine: MachineProfile,
        num_workers: int,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.wid = wid
        self.num_workers = num_workers
        self.machine = machine
        self.disk = SimulatedDisk(machine.disk)
        self.disk.injector = injector
        self.clock: SimClock = self.disk.clock
        # The shared grid directory through this worker's charged device.
        self.grid_device = Device(grid_root, disk=self.disk)
        self.store = GridStore.open(self.grid_device, prefix)
        # Private scratch volume: live value slices + checkpoints.
        self.scratch_device = Device(Path(scratch_root) / f"w{wid}", disk=self.disk)
        self.inbox = Inbox()
        #: superstep -> broadcast messages, retained for peer replay
        #: until the next global checkpoint commits.
        self.outbound_log: Dict[int, List[ValueMessage]] = {}
        #: Per-worker child tracer (local clock), installed by the
        #: coordinator on traced runs; spans/sends cost nothing here.
        self.tracer: TracerLike = NULL_TRACER

        # Populated by start():
        self.program: Optional[VertexProgram] = None
        self.ctx: Optional[GraphContext] = None
        #: The execution core, bound to this worker's store/disk/clock.
        self.engine: Optional[EngineBase] = None
        self.columns: List[int] = []
        self.state: State = {}
        self.frontier: Optional[VertexSubset] = None
        self._activated: Optional[np.ndarray] = None
        self._value_stores: Dict[str, VertexArrayStore] = {}
        self._manager: Optional[CheckpointManager] = None
        #: Cumulative edges and blocks this worker's compute phases swept.
        self.edges_processed = 0
        self.blocks_processed = 0

        # Phase done-markers (superstep numbers) — the re-entry guards.
        self._computed = 0
        self._broadcast = 0
        self._absorbed = 0
        self._checkpointed = -1

    # -- helpers -----------------------------------------------------------

    def _trace_send(self, msg: ValueMessage, dst: int, status: str) -> None:
        """Emit one causal send edge (ValueMessage identity = sender, seq)."""
        if self.tracer.enabled:
            self.tracer.send(
                {
                    "worker": self.wid,
                    "dst": dst,
                    "seq": msg.seq,
                    "superstep": msg.superstep,
                    "interval": msg.interval,
                    "nbytes": msg.nbytes,
                    "sim_time": self.clock.elapsed(),
                    "status": status,
                }
            )

    def _fingerprint(self) -> Tuple[int, int, int]:
        return (self.ctx.num_vertices, self.ctx.num_edges, self.store.P)

    def _bounds(self, j: int) -> Tuple[int, int]:
        return self.store.intervals.bounds(j)

    def owned_vertex_count(self) -> int:
        return sum(hi - lo for lo, hi in (self._bounds(j) for j in self.columns))

    def _owned_concat(self, arr: np.ndarray) -> np.ndarray:
        """Owned-interval slices concatenated in ascending column order."""
        parts = [arr[lo:hi] for lo, hi in (self._bounds(j) for j in self.columns)]
        return np.concatenate(parts) if parts else arr[:0]

    def _scatter_owned(self, arr: np.ndarray, flat: np.ndarray) -> None:
        pos = 0
        for j in self.columns:
            lo, hi = self._bounds(j)
            arr[lo:hi] = flat[pos : pos + (hi - lo)]
            pos += hi - lo
        require(pos == flat.shape[0], "owned-slice payload length mismatch")

    def _load_owned_state(self) -> None:
        """Charged sequential read of the owned live value slices."""
        for name, vs in self._value_stores.items():
            for j in self.columns:
                lo, hi = self._bounds(j)
                self.state[name][lo:hi] = vs.load_interval(lo, hi, sequential=True)

    def _store_owned_state(self) -> None:
        """Charged interval write-back of the owned live value slices."""
        for name, vs in self._value_stores.items():
            for j in self.columns:
                lo, hi = self._bounds(j)
                vs.store_interval(lo, self.state[name][lo:hi])

    def _build_messages(self, superstep: int) -> List[ValueMessage]:
        """This worker's broadcast for ``superstep`` from its live state."""
        msgs = []
        for j in self.columns:
            lo, hi = self._bounds(j)
            payload = {name: self.state[name][lo:hi] for name in self.state}
            msgs.append(
                ValueMessage.make(
                    sender=self.wid,
                    superstep=superstep,
                    interval=j,
                    P=self.store.P,
                    lo=lo,
                    hi=hi,
                    payload=payload,
                    activated=self._activated[lo:hi],
                )
            )
        return msgs

    # -- lifecycle ---------------------------------------------------------

    def start(self, program: VertexProgram, ctx: GraphContext, columns: List[int]) -> None:
        """Initialize program state and write the superstep-0 checkpoint."""
        with self.tracer.span(
            "init", cat="superstep", superstep=0, worker=self.wid
        ):
            self.program = program
            self.ctx = ctx
            self.engine = EngineBase(self.store, self.machine, ctx)
            self.engine.program = program
            self.columns = sorted(columns)
            self.state = program.init_state(ctx)
            self.frontier = program.initial_frontier(ctx)
            self._activated = self.frontier.mask.copy()
            self.edges_processed = 0
            self.blocks_processed = 0
            self._value_stores = {
                name: VertexArrayStore(
                    self.scratch_device,
                    f"{self.store.prefix}.cluster.{program.name}.{name}",
                    ctx.num_vertices,
                    arr.dtype,
                )
                for name, arr in self.state.items()
            }
            for name, arr in self.state.items():
                self._value_stores[name].store_all(arr)
            self._manager = CheckpointManager(
                self.scratch_device, f"{self.store.prefix}.cluster.{program.name}"
            )
            self.checkpoint(0)

    # -- the four superstep phases ------------------------------------------

    def compute(self, superstep: int) -> None:
        """Phase A: gather/apply every owned column from the t-1 snapshot."""
        if self._computed >= superstep:
            return
        with self.tracer.span(
            "compute", cat="superstep", superstep=superstep, worker=self.wid
        ):
            self.engine._crash_point("pre-compute")
            self._load_owned_state()
            engine = self.engine
            engine.state = self.state  # start()/restore() rebind it
            acc = engine.fresh_accumulator()
            self._activated = np.zeros(self.ctx.num_vertices, dtype=bool)
            edges, blocks = engine.sweep_columns(
                self.columns,
                self.store.load_column,
                self.program.copy_state(self.state),
                None if self.program.all_active else self.frontier.mask,
                acc,
                self._activated,
            )
            self._store_owned_state()
            self.edges_processed += edges
            self.blocks_processed += blocks
            self._computed = superstep
            self.engine._crash_point("post-compute")

    def broadcast(
        self, superstep: int, peers: List["ClusterWorker"], net: Interconnect
    ) -> None:
        """Phase B: send owned slices + activation bits to every live peer."""
        if self._broadcast >= superstep:
            return
        with self.tracer.span(
            "broadcast", cat="superstep", superstep=superstep, worker=self.wid
        ):
            msgs = self._build_messages(superstep)
            self.outbound_log[superstep] = msgs
            for peer in peers:
                if peer.wid == self.wid:
                    continue
                channel = channel_name(self.wid, peer.wid)
                for msg in msgs:
                    status = net.send(self.clock, channel, msg, peer.inbox)
                    self._trace_send(msg, peer.wid, status)
            self._broadcast = superstep
            self.engine._crash_point("post-broadcast")

    def absorb(self, superstep: int) -> None:
        """Phase C: merge peers' slices and build the next frontier."""
        if self._absorbed >= superstep:
            return
        with self.tracer.span(
            "absorb", cat="superstep", superstep=superstep, worker=self.wid
        ):
            msgs = self.inbox.messages_for(superstep)
            covered = {m.interval for m in msgs}
            expected = set(range(self.store.P)) - set(self.columns)
            require(
                covered >= expected,
                f"w{self.wid}: superstep {superstep} inbox covers intervals "
                f"{sorted(covered)}, missing {sorted(expected - covered)}",
            )
            apply_messages(msgs, self.state, self._activated)
            self.frontier = VertexSubset(self.ctx.num_vertices, self._activated)
            self._absorbed = superstep
            self.engine._crash_point("post-absorb")

    def checkpoint(self, superstep: int) -> None:
        """Phase D: persist the consistent cut for ``superstep``."""
        if self._checkpointed >= superstep:
            return
        with self.tracer.span(
            "checkpoint", cat="superstep", superstep=superstep, worker=self.wid
        ):
            self.engine._crash_point("pre-checkpoint")
            watermarks = np.full(self.num_workers, -1, dtype=WATERMARK_DTYPE)
            for sender in range(self.num_workers):
                watermarks[sender] = self.inbox.watermark(sender)
            self._manager.write(
                self.program.name,
                superstep,
                self.frontier,
                state_arrays={
                    name: self._owned_concat(arr) for name, arr in self.state.items()
                },
                extra_arrays={
                    "watermarks": watermarks,
                    "columns": np.asarray(self.columns, dtype=COLUMNS_DTYPE),
                },
                fingerprint=self._fingerprint(),
            )
            self._checkpointed = superstep
            self.engine._crash_point("post-checkpoint")

    def release_logs(self, superstep: int) -> None:
        """Drop outbound logs and inbox copies of supersteps ``<= superstep``
        (called once every worker's later checkpoint has committed)."""
        self.outbound_log = {
            s: msgs for s, msgs in self.outbound_log.items() if s > superstep
        }
        self.inbox.drop_through(superstep)

    # -- recovery -----------------------------------------------------------

    def restore(self) -> int:
        """Roll back to the last durable checkpoint; return its superstep.

        Volatile state (inbox, outbound logs, phase markers) dies with
        the simulated process; owned slices come back from the
        checkpoint, and the non-owned slices are reset to the
        deterministic initial state — the coordinator reconstructs them
        by having peers replay their retained outbound logs
        (:meth:`apply_replayed`).
        """
        self.inbox = Inbox()
        self.outbound_log = {}
        meta = self._manager.load_meta(
            self.program.name, fingerprint=self._fingerprint()
        )
        superstep = meta.iterations_done
        cols = self._manager.load_extra(
            "columns", len(self.columns), COLUMNS_DTYPE
        )
        require(
            [int(c) for c in cols] == self.columns,
            f"w{self.wid}: checkpoint column set {cols.tolist()} does not match "
            f"current ownership {self.columns}",
        )
        self.state = self.program.init_state(self.ctx)
        owned_len = self.owned_vertex_count()
        for name in self.state:
            flat = self._manager.load_state(name, owned_len, self.state[name].dtype)
            self._scatter_owned(self.state[name], flat)
        self.frontier = self._manager.load_frontier(self.ctx.num_vertices)
        watermarks = self._manager.load_extra(
            "watermarks", self.num_workers, WATERMARK_DTYPE
        )
        require(
            int(watermarks.max(initial=-1)) < (superstep + 1) * self.store.P,
            f"w{self.wid}: checkpoint watermark ahead of its superstep",
        )
        self._activated = self.frontier.mask.copy()
        self._store_owned_state()  # resync live slices to the snapshot
        self._computed = superstep
        self._broadcast = superstep
        self._absorbed = superstep
        self._checkpointed = superstep
        # Regenerate this worker's own broadcast of the checkpointed
        # superstep from the restored slices (bit-identical to the lost
        # originals): a *second* failure elsewhere may need it replayed.
        if superstep >= 1:
            self.outbound_log[superstep] = self._build_messages(superstep)
        return superstep

    def replay_to(self, peer: "ClusterWorker", net: Interconnect) -> None:
        """Re-send every retained outbound message to one recovering peer."""
        channel = channel_name(self.wid, peer.wid)
        for superstep in sorted(self.outbound_log):
            for msg in self.outbound_log[superstep]:
                status = net.send(self.clock, channel, msg, peer.inbox)
                self._trace_send(msg, peer.wid, status)

    def apply_replayed(self, superstep: int) -> None:
        """Reconstruct non-owned slices at the checkpointed ``superstep``
        from the peers' replayed messages."""
        if superstep < 1:
            return  # initial state already covers every interval
        msgs = self.inbox.messages_for(superstep)
        covered = {m.interval for m in msgs}
        expected = set(range(self.store.P)) - set(self.columns)
        require(
            covered >= expected,
            f"w{self.wid}: replay covers intervals {sorted(covered)}, "
            f"missing {sorted(expected - covered)}",
        )
        act = self.frontier.mask.copy()
        apply_messages(msgs, self.state, act)
        require(
            bool(np.array_equal(act, self.frontier.mask)),
            f"w{self.wid}: replayed activation bits disagree with the "
            "checkpointed frontier (consistent-cut violation)",
        )

    # -- degradation --------------------------------------------------------

    def checkpoint_slices(
        self, columns: List[int]
    ) -> Tuple[Dict[str, Dict[int, np.ndarray]], int]:
        """Read the given columns' slices from this worker's last
        checkpoint (validated; charged to this worker's disk).

        Used when this worker has been declared dead: its checkpoint is
        on durable storage and survives it. Returns
        ``({array: {column: values}}, payload_bytes)``.
        """
        meta = self._manager.load_meta(
            self.program.name, fingerprint=self._fingerprint()
        )
        cols = self._manager.load_extra("columns", len(self.columns), COLUMNS_DTYPE)
        layout = [int(c) for c in cols]
        require(set(columns) <= set(layout), "requested columns not in checkpoint")
        owned_len = self.owned_vertex_count()
        out: Dict[str, Dict[int, np.ndarray]] = {}
        nbytes = 0
        # order-ok: single-threaded init_state key order; reads must match write layout
        for name in self.state:
            flat = self._manager.load_state(name, owned_len, self.state[name].dtype)
            per_col: Dict[int, np.ndarray] = {}
            pos = 0
            for j in layout:
                lo, hi = self._bounds(j)
                if j in columns:
                    per_col[j] = flat[pos : pos + (hi - lo)].copy()
                    nbytes += per_col[j].nbytes
                pos += hi - lo
            out[name] = per_col
        require(meta.iterations_done == self._checkpointed, "stale checkpoint read")
        return out, nbytes

    def adopt_columns(
        self,
        columns: List[int],
        slices: Dict[str, Dict[int, np.ndarray]],
        superstep: int,
    ) -> None:
        """Take ownership of a dead worker's columns from its checkpoint.

        The fetched slices are assigned into this worker's state (they
        are bit-identical to the values the dead worker broadcast at
        ``superstep`` — assignment is idempotent), the live value stores
        are synced, the outbound log for ``superstep`` is regenerated to
        cover the adopted intervals, and a fresh checkpoint with the new
        ownership is committed so a later crash restores consistently.
        """
        self.columns = sorted(set(self.columns) | set(columns))
        for name, per_col in slices.items():
            for j, values in per_col.items():
                lo, hi = self._bounds(j)
                self.state[name][lo:hi] = values
        self._store_owned_state()
        if superstep >= 1:
            self.outbound_log[superstep] = self._build_messages(superstep)
        self._checkpointed = superstep - 1  # force a re-checkpoint
        self.checkpoint(superstep)
