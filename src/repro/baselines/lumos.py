"""Lumos baseline (Vora, USENIX ATC '19 — reference [20] of the paper).

Lumos performs dependency-driven out-of-order execution: while streaming
iteration ``t`` it proactively computes iteration ``t+1`` values for
vertices whose in-neighborhood is already final — the future-value
column of Table 1. Relative to GraphSD it pays three costs the paper
calls out:

* **no activity tracking** — every sweep reads all (remaining) edges
  whether or not their sources are active ("it has to read many
  inactive edges", §5.2);
* **secondary partitions** — the cross-propagation-eligible edges live
  in a *separate on-disk structure* that is read in addition to the
  primary stream (§4.2 contrasts this with GraphSD's grid, which
  captures those edges in its primary representation). We charge one
  sequential read of the cross-eligible (upper-triangle + diagonal)
  bytes per propagating sweep;
* **extra value versions** — propagating into iteration ``t+1`` while
  computing iteration ``t`` requires maintaining an additional on-disk
  vertex value array per iteration (read + written alongside the
  primary one).

Lumos runs over its own cheaper representation (unsorted, unindexed
grid — :func:`repro.graph.preprocess.preprocess_lumos`), which is why it
wins the preprocessing comparison (Fig. 8) despite losing at runtime.
"""

from __future__ import annotations

from repro.core.engine import GraphSDConfig, GraphSDEngine
from repro.core.scheduler import IOModel
from repro.graph.grid import GridStore
from repro.storage.disk import MachineProfile, DEFAULT_MACHINE


class LumosEngine(GraphSDEngine):
    """Cross-iteration (future-value) computation over full I/O sweeps."""

    engine_name = "lumos"

    def __init__(
        self,
        store: GridStore,
        machine: MachineProfile = DEFAULT_MACHINE,
        ctx=None,
    ) -> None:
        config = GraphSDConfig(force_model=IOModel.FULL, buffer_bytes=0)
        super().__init__(store, machine, config=config, ctx=ctx)
        self.engine_name = "lumos"

    def charge_future_value_overhead(self, upper_diag_bytes: int) -> None:
        # Secondary partitions: the cross-eligible edges are re-read
        # from their dedicated on-disk structure during propagation.
        self.disk.charge_read_sequential(upper_diag_bytes, requests=self.store.P)

    def _load_state(self) -> None:
        super()._load_state()
        # The extra (next-iteration) value version is read alongside.
        nbytes = self.ctx.num_vertices * self.state_value_bytes
        self.disk.charge_read_sequential(nbytes, requests=1)

    def _store_state(self) -> None:
        super()._store_state()
        nbytes = self.ctx.num_vertices * self.state_value_bytes
        self.disk.charge_write_sequential(nbytes, requests=1)
