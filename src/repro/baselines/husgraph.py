"""HUS-Graph baseline (Xu et al., TPDS '20 — reference [22] of the paper).

HUS-Graph's hybrid update strategy adaptively selects between a
Row-Oriented Update model (selective: read only active vertices' edges)
and a Column-Oriented Update model (sequential full streams) based on
the number of active vertices — the same two I/O access models GraphSD
schedules between. What HUS-Graph *lacks* (Table 1) is future-value
computation: it never propagates values across the iteration boundary,
so every iteration pays its own full read of the data it touches.

It is therefore exactly GraphSD with cross-iteration update and
sub-block buffering disabled, which is how we instantiate it — on the
same dual-sorted representation its preprocessing pipeline builds
(:func:`repro.graph.preprocess.preprocess_husgraph`).
"""

from __future__ import annotations

from repro.core.engine import GraphSDConfig, GraphSDEngine
from repro.graph.grid import GridStore
from repro.storage.disk import MachineProfile, DEFAULT_MACHINE


class HUSGraphEngine(GraphSDEngine):
    """Hybrid update strategy: active-aware I/O, no cross-iteration work."""

    engine_name = "husgraph"

    def __init__(
        self,
        store: GridStore,
        machine: MachineProfile = DEFAULT_MACHINE,
        ctx=None,
    ) -> None:
        config = GraphSDConfig(enable_cross_iteration=False, buffer_bytes=0)
        super().__init__(store, machine, config=config, ctx=ctx)
        self.engine_name = "husgraph"
