"""Breadth-First Search as a min-plus vertex program.

BFS is the paper's introductory motivating example (§1): "BFS only
visits neighbors of vertices in the current frontier in each iteration,
and the number of unvisited vertices becomes very small at the end of
the search." Expressed as SSSP with unit edge lengths, the level of each
vertex is its hop distance from the root; the synchronous frontier at
iteration ``t`` is exactly the classic BFS frontier.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphContext, MinRelaxation, State
from repro.utils.bitset import VertexSubset
from repro.utils.validation import require


class BFS(MinRelaxation):
    name = "bfs"
    needs_weights = False
    all_active = False
    monotonic = True  # MIN relaxation: unique bitwise fixpoint under any order

    def __init__(self, root: int = 0) -> None:
        require(root >= 0, f"root must be >= 0, got {root}")
        self.root = int(root)

    def init_state(self, ctx: GraphContext) -> State:
        require(self.root < ctx.num_vertices, "BFS root vertex out of range")
        level = np.full(ctx.num_vertices, np.inf, dtype=np.float64)
        level[self.root] = 0.0
        return {"value": level}

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        return VertexSubset.from_indices(ctx.num_vertices, [self.root])

    def gather(self, state: State, lo, hi, src, weights) -> np.ndarray:
        return state["value"][lo:hi].take(src) + 1.0

    def levels(self, state: State) -> np.ndarray:
        """Hop distances; unreachable vertices are ``-1``."""
        v = state["value"]
        out = np.where(np.isinf(v), -1, v).astype(np.int64)
        return out
