"""PageRank-Delta (PR-D): incremental PageRank with activity thresholds.

Instead of recomputing every rank each iteration, vertices propagate only
the *change* in their rank, and a vertex re-activates only when it has
"accumulated enough changes" (§5.1). Decomposing the PR power iteration:

.. math::
    \\Delta_v^{t} = d \\sum_{(u,v)} \\Delta_u^{t-1} / deg^+(u), \\qquad
    x_v^{t} = x_v^{t-1} + \\Delta_v^{t}

with :math:`x^0 = \\Delta^0 = 1 - d`, which telescopes to the same
fixpoint as plain PR. A vertex joins the next frontier iff
:math:`|\\Delta_v| > tol`, so the frontier shrinks geometrically — the
workload regime where GraphSD's selective model shines.

The ``delta`` array is *frontier-gated*: an inactive vertex's delta was
already propagated in the iteration it was produced, so a full scan
must not push it again. Engines guarantee that per edge — the block
step gathers only edges whose source is in the frontier
(:meth:`~repro.core.engine_base.EngineBase.push_block`) — and
push-style selective execution only ever loads frontier vertices' edges.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import Combine, GraphContext, State, VertexProgram, take_scaled
from repro.utils.bitset import VertexSubset
from repro.utils.validation import check_in_range, check_nonneg


class PageRankDelta(VertexProgram):
    name = "pagerank_delta"
    combine = Combine.ADD
    needs_weights = False
    all_active = False
    monotonic = True  # residual deltas only refine the result toward the fixpoint

    def __init__(self, damping: float = 0.85, tol: float = 2e-2, iterations: int = 20) -> None:
        check_in_range(damping, 0.0, 1.0, "damping")
        check_nonneg(tol, "tol")
        self.damping = float(damping)
        self.tol = float(tol)
        self.max_iterations = int(iterations)
        self._inv_out_deg: Optional[np.ndarray] = None

    def init_state(self, ctx: GraphContext) -> State:
        degrees = ctx.require_out_degrees().astype(np.float64)
        self._inv_out_deg = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1), 0.0)
        base = 1.0 - self.damping
        return {
            "value": np.full(ctx.num_vertices, base, dtype=np.float64),
            "delta": np.full(ctx.num_vertices, base, dtype=np.float64),
        }

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        return VertexSubset.full(ctx.num_vertices)

    def gather(self, state: State, lo, hi, src, weights) -> np.ndarray:
        return take_scaled(state["delta"], self._inv_out_deg, lo, hi, src)

    def apply(self, state, lo, hi, acc) -> np.ndarray:
        increment = self.damping * acc
        state["value"][lo:hi] += increment
        state["delta"][lo:hi] = increment
        return np.abs(increment) > self.tol
