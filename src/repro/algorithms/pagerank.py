"""PageRank (PR): the paper's all-active workload.

Formulation (the one used by GridGraph/HUS-Graph-class systems):

.. math:: x_v^{t} = (1 - d) + d \\sum_{(u,v) \\in E} x_u^{t-1} / deg^+(u)

Every vertex is active in every iteration, so the state-aware scheduler
always selects the full I/O model and GraphSD's benefit over baselines
comes purely from FCIU's cross-iteration propagation plus sub-block
buffering (§5.2: "For PR where all vertices are active ... GraphSD still
outperforms Lumos by 1.4× due to the efficient buffering of
sub-blocks"). The paper runs five iterations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import Combine, GraphContext, State, VertexProgram, take_scaled
from repro.utils.bitset import VertexSubset
from repro.utils.validation import check_in_range, check_positive


class PageRank(VertexProgram):
    name = "pagerank"
    combine = Combine.ADD
    needs_weights = False
    all_active = True
    monotonic = False  # power iteration: per-iteration averaging, no fixpoint monotonicity

    def __init__(self, damping: float = 0.85, iterations: int = 5) -> None:
        check_in_range(damping, 0.0, 1.0, "damping")
        check_positive(iterations, "iterations")
        self.damping = float(damping)
        self.max_iterations = int(iterations)
        self._inv_out_deg: Optional[np.ndarray] = None

    def init_state(self, ctx: GraphContext) -> State:
        degrees = ctx.require_out_degrees().astype(np.float64)
        # Sink vertices contribute nothing; guard the division only.
        self._inv_out_deg = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1), 0.0)
        # Initializing at (1 - d) makes the trajectory the exact
        # telescoped sum that PageRank-Delta computes incrementally, so
        # PR(k iterations) == PR-D(tol=0, k iterations) — a cross-check
        # the test suite exploits. The fixpoint is unchanged.
        return {"value": np.full(ctx.num_vertices, 1.0 - self.damping, dtype=np.float64)}

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        return VertexSubset.full(ctx.num_vertices)

    def gather(self, state: State, lo, hi, src, weights) -> np.ndarray:
        return take_scaled(state["value"], self._inv_out_deg, lo, hi, src)

    def apply(self, state, lo, hi, acc) -> np.ndarray:
        state["value"][lo:hi] = (1.0 - self.damping) + self.damping * acc
        return np.ones(hi - lo, dtype=bool)
