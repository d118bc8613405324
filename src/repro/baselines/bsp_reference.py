"""In-memory strict-BSP oracle.

Runs a vertex program over an in-memory edge list with textbook
synchronous semantics: iteration ``t`` gathers exclusively from the
previous iteration's state at frontier sources, applies once per vertex,
and advances the frontier. No I/O model, no cross-iteration machinery —
this is the semantic ground truth every engine is tested against
(GraphSD's update models are BSP-preserving, §4.2, so engine state must
match this oracle iteration for iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.algorithms.base import GraphContext, State, VertexProgram, scatter_combine
from repro.graph.degree import out_degrees
from repro.graph.edgelist import EdgeList
from repro.utils.bitset import VertexSubset


@dataclass
class ReferenceResult:
    """Oracle output: final state plus the full per-iteration trace."""

    program: str
    iterations: int
    converged: bool
    values: np.ndarray
    state: State
    frontier_history: List[int] = field(default_factory=list)
    state_history: List[State] = field(default_factory=list)


class BSPReference:
    """Strict synchronous executor over an in-memory :class:`EdgeList`."""

    def __init__(self, edges: EdgeList) -> None:
        self.edges = edges
        self.ctx = GraphContext(
            num_vertices=edges.num_vertices,
            num_edges=edges.num_edges,
            out_degrees=out_degrees(edges),
        )

    def run(
        self,
        program: VertexProgram,
        max_iterations: Optional[int] = None,
        record_history: bool = False,
    ) -> ReferenceResult:
        """Execute ``program`` to convergence or the iteration cap.

        ``record_history=True`` additionally snapshots the full state
        after every iteration (used by per-iteration equivalence tests).
        """
        n = self.ctx.num_vertices
        if program.needs_weights and not self.edges.has_weights:
            raise ValueError(f"{program.name} requires a weighted graph")
        state = program.init_state(self.ctx)
        frontier = program.initial_frontier(self.ctx)
        weights = self.edges.weights

        caps = [c for c in (program.max_iterations, max_iterations) if c is not None]
        cap = min(caps) if caps else n + 1

        history: List[State] = []
        frontier_history: List[int] = []
        iterations = 0
        converged = False
        while True:
            if frontier.is_empty():
                converged = True
                break
            if iterations >= cap:
                break
            frontier_history.append(frontier.count)
            prev = program.copy_state(state)

            active_edge = frontier.mask[self.edges.src]
            src = self.edges.src[active_edge]
            dst = self.edges.dst[active_edge]
            w = weights[active_edge] if weights is not None else None

            acc = program.acc_array(n)
            if src.size:
                contrib = program.gather(prev, 0, n, src, w)
                scatter_combine(program.combine, acc, dst, contrib)

            activated = program.apply(state, 0, n, acc)
            frontier = VertexSubset(n, activated)
            iterations += 1
            if record_history:
                history.append(program.copy_state(state))

        return ReferenceResult(
            program=program.name,
            iterations=iterations,
            converged=converged,
            values=program.result(state).copy(),
            state=state,
            frontier_history=frontier_history,
            state_history=history,
        )
