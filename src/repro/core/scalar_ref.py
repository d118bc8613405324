"""Scalar (loop-level) transliteration of Algorithms 1, 2 and 3.

The vectorized engine in :mod:`repro.core` is organized around global
accumulators for performance; this module instead follows the paper's
pseudocode line by line — explicit ``Out``/``OutNI`` sets, per-vertex
edge loads, per-edge ``UserFunction``/``CrossIterUpdate`` calls — using
plain Python loops over an in-memory grid. It exists purely as a
*fidelity oracle*: tests assert that the production engine's results and
its iteration/frontier trajectories match this direct transliteration,
and that the access patterns (which sub-blocks / whose edges are read)
are exactly what the pseudocode prescribes.

Only practical for small graphs (thousands of edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.algorithms.base import Combine, GraphContext, State, VertexProgram
from repro.graph.degree import out_degrees
from repro.graph.edgelist import EdgeList
from repro.graph.partition import VertexIntervals, make_intervals


@dataclass
class AccessTrace:
    """What the scalar engine touched, for access-pattern tests."""

    #: per iteration: "sciu" or "fciu"/"fciu2"/"full"
    models: List[str] = field(default_factory=list)
    #: per iteration: set of (i, j) sub-blocks fully loaded
    full_blocks: List[Set[Tuple[int, int]]] = field(default_factory=list)
    #: per iteration: set of vertices whose edges were selectively loaded
    selective_vertices: List[Set[int]] = field(default_factory=list)
    #: per iteration: frontier size at entry
    frontiers: List[int] = field(default_factory=list)


class ScalarGraphSD:
    """Algorithms 1–3 with scalar bookkeeping.

    The update semantics are driven by the same :class:`VertexProgram`
    hooks as the production engine (called on length-1 arrays), so any
    registered algorithm can be cross-checked.
    """

    def __init__(
        self,
        edges: EdgeList,
        P: int = 2,
        intervals: Optional[VertexIntervals] = None,
    ) -> None:
        self.edges = edges
        self.intervals = intervals if intervals is not None else make_intervals(edges, P)
        self.P = self.intervals.P
        self.ctx = GraphContext(
            num_vertices=edges.num_vertices,
            num_edges=edges.num_edges,
            out_degrees=out_degrees(edges),
        )
        # sub_blocks[(i, j)] = list of (src, dst, weight), sorted by (src, dst).
        self.sub_blocks: Dict[Tuple[int, int], List[Tuple[int, int, float]]] = {
            (i, j): [] for i in range(self.P) for j in range(self.P)
        }
        weights = edges.effective_weights()
        i_of = self.intervals.interval_of(edges.src)
        j_of = self.intervals.interval_of(edges.dst)
        for k in range(edges.num_edges):
            self.sub_blocks[(int(i_of[k]), int(j_of[k]))].append(
                (int(edges.src[k]), int(edges.dst[k]), float(weights[k]))
            )
        for block in self.sub_blocks.values():
            block.sort()

    # -- scalar wrappers over the vectorized program hooks -------------------

    def _gather_one(
        self, program: VertexProgram, state: "State", u: int, w: float
    ) -> float:
        weights = np.asarray([w], dtype=np.float32) if program.needs_weights else None
        return float(program.gather(state, u, u + 1, np.zeros(1, dtype=np.uint32), weights)[0])

    def _combine(self, program: VertexProgram, a: float, b: float) -> float:
        return a + b if program.combine is Combine.ADD else min(a, b)

    def run(
        self,
        program: VertexProgram,
        max_iterations: Optional[int] = None,
        force_model: Optional[str] = None,
        selective_threshold: float = 0.1,
    ) -> "Tuple[State, AccessTrace, int]":
        """Execute to convergence; returns ``(state, trace)``.

        Model selection is simplified to an active-fraction threshold
        (``selective_threshold``) or pinned with ``force_model``
        ("sciu"/"fciu") — the scalar oracle checks update *semantics*
        and access patterns, not the cost model (the cost model has its
        own unit tests).
        """
        n = self.ctx.num_vertices
        state = program.init_state(self.ctx)
        caps = [c for c in (program.max_iterations, max_iterations) if c is not None]
        cap = min(caps) if caps else n + 1

        out: Set[int] = set(program.initial_frontier(self.ctx).indices().tolist())
        out_ni: Set[int] = set()
        # Pending next-iteration contributions (from CrossIterUpdate).
        pending: Dict[int, float] = {}

        trace = AccessTrace()
        iterations = 0
        while (out or pending) and iterations < cap:
            v_active = out
            trace.frontiers.append(len(v_active))
            if force_model == "sciu":
                use_sciu = True
            elif force_model == "fciu":
                use_sciu = False
            elif program.all_active:
                use_sciu = False
            else:
                use_sciu = len(v_active) <= selective_threshold * n
            if use_sciu:
                out, pending, consumed = self._sciu(
                    program, state, v_active, pending, trace
                )
                iterations += 1
            else:
                out, pending, consumed = self._fciu(
                    program, state, v_active, pending, trace, cap - iterations
                )
                iterations += consumed
        return state, trace, iterations

    # -- Algorithm 2 ---------------------------------------------------------

    def _sciu(
        self,
        program: VertexProgram,
        state: "State",
        v_active: Set[int],
        pending: Dict[int, float],
        trace: AccessTrace,
    ) -> "Tuple[Set[int], Dict[int, float], int]":
        prev = program.copy_state(state)
        acc: Dict[int, float] = dict(pending)
        selective: Set[int] = set()
        loaded_edges: Dict[int, List[Tuple[int, int, float]]] = {}
        for i in range(self.P):
            lo, hi = self.intervals.bounds(i)
            actives_i = sorted(v for v in v_active if lo <= v < hi)
            for j in range(self.P):
                block = self.sub_blocks[(i, j)]
                for v in actives_i:
                    edges_v = [e for e in block if e[0] == v]  # via index(i, j)
                    if edges_v:
                        selective.add(v)
                        loaded_edges.setdefault(v, []).extend(edges_v)
                    for (u, nbr, w) in edges_v:
                        contribution = self._gather_one(program, prev, u, w)
                        acc[nbr] = (
                            self._combine(program, acc[nbr], contribution)
                            if nbr in acc
                            else contribution
                        )
        new_out = self._apply_all(program, state, acc)

        # Lines 15-23: cross-iteration update for re-activated vertices.
        next_pending: Dict[int, float] = {}
        candidates = new_out & v_active
        for v in sorted(candidates):
            for (u, nbr, w) in loaded_edges.get(v, []):
                contribution = self._gather_one(program, state, u, w)
                next_pending[nbr] = (
                    self._combine(program, next_pending[nbr], contribution)
                    if nbr in next_pending
                    else contribution
                )
        new_out -= candidates

        trace.models.append("sciu")
        trace.full_blocks.append(set())
        trace.selective_vertices.append(selective)
        return new_out, next_pending, 1

    # -- Algorithm 3 ---------------------------------------------------------

    def _fciu(
        self,
        program: VertexProgram,
        state: "State",
        v_active: Set[int],
        pending: Dict[int, float],
        trace: AccessTrace,
        remaining: int,
    ) -> "Tuple[Set[int], Dict[int, float], int]":
        do_cross = remaining >= 2 and getattr(self, "enable_cross", True)
        prev = program.copy_state(state)
        acc: Dict[int, float] = dict(pending)
        next_pending: Dict[int, float] = {}
        loaded: Set[Tuple[int, int]] = set()
        activated: Set[int] = set()
        gate = None if program.all_active else v_active

        def push(
            target: Dict[int, float],
            snapshot: "State",
            u: int,
            nbr: int,
            w: float,
            source_gate: Optional[Set[int]],
        ) -> None:
            if source_gate is not None and u not in source_gate:
                return
            contribution = self._gather_one(program, snapshot, u, w)
            target[nbr] = (
                self._combine(program, target[nbr], contribution)
                if nbr in target
                else contribution
            )

        # First iteration: all sub-blocks, destination-major.
        for j in range(self.P):
            for i in range(self.P):
                block = self.sub_blocks[(i, j)]
                loaded.add((i, j))
                for (u, nbr, w) in block:
                    push(acc, prev, u, nbr, w, gate)
                if do_cross and i < j:
                    for (u, nbr, w) in block:
                        push(next_pending, state, u, nbr, w, activated)
            lo, hi = self.intervals.bounds(j)
            interval_acc = {v: acc[v] for v in acc if lo <= v < hi}
            activated |= self._apply_all(program, state, interval_acc, lo, hi)
            if do_cross:
                for (u, nbr, w) in self.sub_blocks[(j, j)]:  # diagonal, held in memory
                    push(next_pending, state, u, nbr, w, activated)

        trace.models.append("fciu" if do_cross else "full")
        trace.full_blocks.append(loaded)
        trace.selective_vertices.append(set())
        trace.frontiers.append(len(activated))
        if not do_cross:
            return activated, {}, 1
        if not activated and not next_pending:
            trace.frontiers.pop()
            return activated, {}, 1

        # Second iteration: secondary sub-blocks only (i > j).
        prev2 = program.copy_state(state)
        gate2 = None if program.all_active else activated
        acc2 = dict(next_pending)
        loaded2: Set[Tuple[int, int]] = set()
        new_activated: Set[int] = set()
        for j in range(self.P):
            for i in range(j + 1, self.P):
                loaded2.add((i, j))
                for (u, nbr, w) in self.sub_blocks[(i, j)]:
                    push(acc2, prev2, u, nbr, w, gate2)
            lo, hi = self.intervals.bounds(j)
            interval_acc = {v: acc2[v] for v in acc2 if lo <= v < hi}
            new_activated |= self._apply_all(program, state, interval_acc, lo, hi)

        trace.models.append("fciu2")
        trace.full_blocks.append(loaded2)
        trace.selective_vertices.append(set())
        return new_activated, {}, 2

    # -- shared apply ---------------------------------------------------

    def _apply_all(
        self,
        program: VertexProgram,
        state: "State",
        acc: Dict[int, float],
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> Set[int]:
        n = self.ctx.num_vertices
        hi = n if hi is None else hi
        full_acc = program.acc_array(n)
        for v, a in acc.items():
            full_acc[v] = a
        activated_mask = program.apply(state, lo, hi, full_acc[lo:hi])
        return set((np.flatnonzero(activated_mask) + lo).tolist())
