"""Personalized PageRank (PPR) via delta propagation.

Random-walk-with-restart importance relative to a *seed set*: restarts
teleport to the seeds instead of uniformly. The fixpoint solves

.. math:: x = (1 - d)\\, e_S + d\\, A^T D^{-1} x

where :math:`e_S` spreads unit mass over the seeds. Implemented exactly
like :class:`~repro.algorithms.pagerank_delta.PageRankDelta` — delta
propagation with an activity threshold — but with mass injected only at
the seeds, so activity starts concentrated and *spreads outward*: the
mirror image of PR-D's globally-shrinking frontier, and a useful extra
stress for the state-aware scheduler (frontier grows, then decays).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.algorithms.base import Combine, GraphContext, State, VertexProgram
from repro.utils.bitset import VertexSubset
from repro.utils.validation import check_in_range, check_nonneg, require


class PersonalizedPageRank(VertexProgram):
    name = "ppr"
    combine = Combine.ADD
    needs_weights = False
    all_active = False
    monotonic = True  # residual deltas only refine the result toward the fixpoint

    def __init__(
        self,
        seeds: Iterable[int],
        damping: float = 0.85,
        tol: float = 1e-6,
        iterations: int = 30,
    ) -> None:
        check_in_range(damping, 0.0, 1.0, "damping")
        check_nonneg(tol, "tol")
        self.seeds = sorted(set(int(s) for s in seeds))
        require(len(self.seeds) > 0, "PPR needs at least one seed vertex")
        require(min(self.seeds) >= 0, "seed ids must be non-negative")
        self.damping = float(damping)
        self.tol = float(tol)
        self.max_iterations = int(iterations)
        self._inv_out_deg: Optional[np.ndarray] = None

    def init_state(self, ctx: GraphContext) -> State:
        require(max(self.seeds) < ctx.num_vertices, "PPR seed vertex out of range")
        degrees = ctx.require_out_degrees().astype(np.float64)
        self._inv_out_deg = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1), 0.0)
        value = np.zeros(ctx.num_vertices, dtype=np.float64)
        delta = np.zeros(ctx.num_vertices, dtype=np.float64)
        mass = (1.0 - self.damping) / len(self.seeds)
        value[self.seeds] = mass
        delta[self.seeds] = mass
        return {"value": value, "delta": delta}

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        return VertexSubset.from_indices(ctx.num_vertices, self.seeds)

    def gather(self, state: State, src_ids: np.ndarray, weights) -> np.ndarray:
        return state["delta"][src_ids] * self._inv_out_deg[src_ids]

    def apply(self, state, lo, hi, acc, touched) -> np.ndarray:
        increment = np.where(touched, self.damping * acc, 0.0)
        state["value"][lo:hi] += increment
        state["delta"][lo:hi] = increment
        return np.abs(increment) > self.tol
