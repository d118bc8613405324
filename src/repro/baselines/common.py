"""Shared machinery for the baseline I/O-policy engines.

Each baseline reproduces the *I/O strategy* of a published system on the
same storage substrate GraphSD runs on, so comparisons isolate exactly
the variable the paper studies (§2's Table 1 taxonomy):

=============  =================  ================  ====================
System         eliminates random  avoids inactive   future-value
               accesses           data              computation
=============  =================  ================  ====================
GraphChi       no                 no                no
X-Stream       yes                no                no
GridGraph      yes                no [1]_           no
HUS-Graph      yes                yes               no
Lumos          yes                no                yes
GraphSD        yes                yes               yes
=============  =================  ================  ====================

.. [1] GridGraph does skip fully-inactive *blocks* via its source-interval
   bitmap, but cannot select individual vertices' edges — Table 1 of the
   paper classifies it as not active-aware for that reason. Our model
   includes the block-grain skip, its actual published behaviour.

:class:`StreamingEngineBase` implements the plain synchronous
full-stream round (no cross-iteration machinery) as one
:meth:`~repro.core.engine_base.EngineBase.sweep_columns` with two hooks:
:meth:`_column_source_ranges` chooses which blocks of a column to read,
and :meth:`_post_column`/:meth:`_post_sweep` let subclasses charge extra
traffic (edge writebacks, update streams).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.engine_base import EngineBase
from repro.graph.grid import EdgeBlock
from repro.utils.bitset import VertexSubset

#: Table 1 of the paper, as data (used by the features bench/test).
SYSTEM_FEATURES: Dict[str, Dict[str, bool]] = {
    "graphchi": {"eliminates_random": False, "avoids_inactive": False, "future_value": False},
    "xstream": {"eliminates_random": True, "avoids_inactive": False, "future_value": False},
    "gridgraph": {"eliminates_random": True, "avoids_inactive": False, "future_value": False},
    "husgraph": {"eliminates_random": True, "avoids_inactive": True, "future_value": False},
    "lumos": {"eliminates_random": True, "avoids_inactive": False, "future_value": True},
    "graphsd": {"eliminates_random": True, "avoids_inactive": True, "future_value": True},
}


class StreamingEngineBase(EngineBase):
    """One synchronous iteration per round, streaming the grid dst-major."""

    model_label = "full"

    def _column_source_ranges(self, j: int) -> List[Tuple[int, int]]:
        """Contiguous ``(i_lo, i_hi)`` block ranges of column ``j`` to read."""
        return [(0, self.store.P)]

    def _post_column(self, j: int, blocks: List[EdgeBlock]) -> None:
        """Hook: extra per-column I/O charges."""

    def _post_sweep(self, edges_processed: int, active_edges: int) -> None:
        """Hook: extra per-iteration I/O charges."""

    def _load_column(self, j: int) -> List[EdgeBlock]:
        blocks: List[EdgeBlock] = []
        for i_lo, i_hi in self._column_source_ranges(j):
            blocks.extend(self.store.load_block_range(j, i_lo, i_hi))
        return blocks

    def _run_round(self) -> VertexSubset:
        program = self.program
        n = self.ctx.num_vertices
        frontier = self.frontier

        token = self.begin_iteration()
        prev = program.copy_state(self.state)
        gate = None if program.all_active else frontier.mask
        acc, touched = self.fresh_accumulator()
        activated_mask = np.zeros(n, dtype=bool)
        active_edges = 0

        def after_column(j: int, blocks: List[EdgeBlock]) -> None:
            nonlocal active_edges
            bounds = self.store.intervals.bounds
            active_edges += sum(
                b.count if gate is None else b.count_active(gate, *bounds(b.i))
                for b in blocks
            )
            self._post_column(j, blocks)

        edges_processed, _blocks = self.sweep_columns(
            range(self.store.P), self._load_column, prev, gate, acc, touched,
            activated_mask, after_column=after_column,
        )
        self._post_sweep(edges_processed, active_edges)
        self._store_state()
        self.end_iteration(
            token,
            self.model_label,
            frontier.count,
            edges_processed,
            int(np.count_nonzero(activated_mask)),
        )
        return VertexSubset(n, activated_mask)
