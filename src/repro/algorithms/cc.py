"""Connected Components via label propagation (§5.1, [28] in the paper).

Every vertex starts with its own id as its label and repeatedly adopts
the minimum label among itself and its in-neighbors; at the fixpoint all
vertices of a (weakly) connected component share the component's minimum
id. Label propagation requires information to flow both ways across
every edge, so CC should be run on a **symmetrized** edge list
(``EdgeList.symmetrized()``; the benchmark harness does this, matching
how out-of-core systems evaluate CC on directed inputs).

Labels are stored as float64 — exact for ids below 2**53 — so the same
min-combine accumulator machinery serves CC, SSSP and BFS.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphContext, MinRelaxation, State
from repro.utils.bitset import VertexSubset


class ConnectedComponents(MinRelaxation):
    name = "cc"
    needs_weights = False
    all_active = False
    monotonic = True  # MIN relaxation: unique bitwise fixpoint under any order

    def init_state(self, ctx: GraphContext) -> State:
        return {"value": np.arange(ctx.num_vertices, dtype=np.float64)}

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        return VertexSubset.full(ctx.num_vertices)

    def gather(self, state: State, lo, hi, src, weights) -> np.ndarray:
        return state["value"][lo:hi].take(src)

    def labels(self, state: State) -> np.ndarray:
        """Integer component labels."""
        return state["value"].astype(np.int64)
