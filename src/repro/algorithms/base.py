"""Vertex-program abstraction shared by every engine in the repository.

The paper's programming model (§4.2) exposes two user hooks:
``UserFunction`` — applied to edges to produce the current iteration's
updates — and ``CrossIterUpdate`` — the same computation used to update
*next*-iteration values in advance. In BSP terms both are the same
edge-wise *gather* followed by a vertex-wise *apply*; they differ only in
which snapshot of vertex state they read (previous-iteration values vs
the freshly applied current values) and which accumulator they feed.

We therefore factor programs into three vectorized pieces:

``gather(state, lo, hi, src, weights) -> per-edge contributions``
    computed from the supplied state snapshot (engines pass the
    previous-iteration snapshot for in-iteration updates and the live
    state for cross-iteration updates), through source ids local to
    the block's source interval ``[lo, hi)``;
``combine``
    a commutative, associative reduction over contributions per
    destination (``ADD`` or ``MIN`` — sufficient for the paper's four
    algorithms and most vertex-centric workloads);
``apply(state, lo, hi, acc) -> activated``
    folds an interval's accumulated contributions into the live state
    and reports which vertices changed enough to join the next frontier;
    ``acc`` holds the combine identity wherever no contribution landed.
    ``apply_at(state, lo, hi, acc, ids)`` is the same fold where only
    ``ids`` can move: a MIN relaxation (:class:`MinRelaxation`) touches
    just those, any other program applies the whole window.

Monotone ``MIN`` programs (CC, SSSP, BFS) and delta-accumulating ``ADD``
programs (PR-Delta) are safe under cross-iteration re-ordering: extra or
early relaxations never violate the fixpoint. Full PageRank is exact
under FCIU's ordering because sources are always final for the iteration
whose accumulator they feed (see §4.2 and `repro.core.fciu`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.utils.bitset import VertexSubset
from repro.utils.validation import require

State = Dict[str, np.ndarray]


class Combine(enum.Enum):
    """Edge-contribution reduction operator."""

    ADD = "add"
    MIN = "min"

    @property
    def identity(self) -> float:
        return 0.0 if self is Combine.ADD else np.inf


#: ADD blocks with fewer than ``|V| / SPARSE_ADD_RATIO`` edges take the
#: ``np.add.at`` path, which adds straight into the accumulator; denser
#: blocks sum per destination with one ``np.bincount`` pass first. The
#: two group the float additions differently, so which one a block takes
#: is part of every recorded ADD result (see :func:`add_is_dense`).
SPARSE_ADD_RATIO = 8


def add_is_dense(num_edges: int, num_vertices: int) -> bool:
    """Whether an ADD block of ``num_edges`` takes the bincount path."""
    return num_edges * SPARSE_ADD_RATIO >= num_vertices


def take_scaled(
    values: np.ndarray, scale: np.ndarray, lo: int, hi: int, src: np.ndarray
) -> np.ndarray:
    """``values[lo + s] * scale[lo + s]`` for each local id ``s`` in ``src``:
    one product per window vertex, taken per edge, unless the block has
    fewer edges than its window (then both factors per edge). The IEEE
    products are the same either way."""
    if src.shape[0] < hi - lo:
        return values[lo:hi].take(src) * scale[lo:hi].take(src)
    return (values[lo:hi] * scale[lo:hi]).take(src)


def scatter_combine(
    combine: Combine,
    acc: np.ndarray,
    dst_local: np.ndarray,
    contributions: np.ndarray,
    dense_add: Optional[bool] = None,
) -> None:
    """Reduce per-edge ``contributions`` into ``acc`` at ``dst_local``.

    ``dst_local`` indexes ``acc``: engines pass one destination
    interval's slice of the accumulator and ids local to it, so the work
    is proportional to the edges and (on the dense ADD path) the
    interval, never to ``|V|``; an oracle may equally pass the whole
    accumulator and global ids. All paths tolerate repeated
    destinations.

    ``MIN`` always uses the ufunc ``at`` reduction. ``ADD`` uses
    :func:`numpy.bincount` when ``dense_add`` and ``np.add.at``
    otherwise; left ``None`` the choice is :func:`add_is_dense` of the
    sizes passed. Engines decide it from the *loaded* block and ``|V|``
    instead, so that neither gating a block nor slicing the accumulator
    changes how a block's additions are grouped.
    """
    if dst_local.size == 0:
        return
    if combine is Combine.ADD:
        if dense_add is None:
            dense_add = add_is_dense(dst_local.size, acc.shape[0])
        if dense_add:
            acc += np.bincount(dst_local, weights=contributions, minlength=acc.shape[0])
        else:
            np.add.at(acc, dst_local, contributions)
    else:
        np.minimum.at(acc, dst_local, contributions)


@dataclass
class GraphContext:
    """Static graph facts a program may need at initialization.

    ``out_degrees`` is required by degree-normalizing programs
    (PageRank); engines that lack it can derive it from the grid store
    with one charged scan.
    """

    num_vertices: int
    num_edges: int
    out_degrees: Optional[np.ndarray] = None
    params: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_edges(cls, edges) -> "GraphContext":
        """Build a context from an in-memory edge list (no charged I/O).

        Callers that still hold the raw :class:`~repro.graph.edgelist.EdgeList`
        should pass ``ctx=GraphContext.from_edges(edges)`` to the engine so
        it skips the fallback charged degree scan in ``scan_context``.
        """
        degrees = np.bincount(edges.src, minlength=edges.num_vertices).astype(np.int64)
        return cls(
            num_vertices=edges.num_vertices,
            num_edges=edges.num_edges,
            out_degrees=degrees,
        )

    def require_out_degrees(self) -> np.ndarray:
        require(self.out_degrees is not None, "this program requires out_degrees in the context")
        return self.out_degrees


class VertexProgram:
    """Base class for vertex programs. Subclasses override the hooks below.

    Class attributes:

    ``name``
        registry key and display name.
    ``combine``
        the contribution reduction (:class:`Combine`).
    ``needs_weights``
        whether the program reads edge weights (SSSP does).
    ``all_active``
        ``True`` for programs where every vertex participates every
        iteration (plain PageRank); such programs are scheduled with the
        full I/O model unconditionally.
    ``max_iterations``
        hard iteration cap (``None`` = run to an empty frontier).
    ``monotonic``
        ``True`` when the program is a monotone fixpoint computation —
        extra, early, or re-ordered relaxations never move the final
        state past its fixpoint (MIN relaxations like SSSP/CC, and
        delta-accumulating ADD programs whose contributions only refine
        the result). Only monotonic programs are admitted to the
        asynchronous execution mode (:mod:`repro.core.async_engine`);
        power-iteration PageRank is the canonical non-monotonic case.
        Every concrete program must declare this explicitly (asserted by
        the registry test suite).
    """

    name: str = "abstract"
    combine: Combine = Combine.MIN
    needs_weights: bool = False
    all_active: bool = False
    max_iterations: Optional[int] = None
    monotonic: bool = False

    # -- lifecycle hooks ---------------------------------------------------

    def init_state(self, ctx: GraphContext) -> State:
        """Allocate and initialize the per-vertex state arrays."""
        raise NotImplementedError

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        """The vertices active in the first iteration."""
        raise NotImplementedError

    def gather(
        self,
        state: State,
        lo: int,
        hi: int,
        src: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        """Per-edge contribution computed from ``state`` at the sources.

        ``src`` holds the sources' ids local to interval ``[lo, hi)``
        (vertex ``lo + s``) in the stored unsigned dtype: read the
        window with ``state[...][lo:hi].take(src)``.
        """
        raise NotImplementedError

    def apply(self, state: State, lo: int, hi: int, acc: np.ndarray) -> np.ndarray:
        """Fold interval ``[lo, hi)``'s accumulator into ``state`` in place.

        ``acc`` has length ``hi - lo`` and holds the combine identity
        (``+0.0`` for ADD, ``inf`` for MIN) wherever no contribution
        landed. Returns a boolean array (length ``hi - lo``) of vertices
        activated for the next iteration.
        """
        raise NotImplementedError

    def apply_at(
        self, state: State, lo: int, hi: int, acc: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """:meth:`apply` where only ``ids`` can move: ``acc`` differs, off
        the distinct ascending local ``ids``, from the identity at most by
        entries an earlier apply of the interval already folded in.
        Returns the activation mask over ``ids``.

        This default applies the whole window. A program whose apply
        leaves such entries' vertices as they are touches only ``ids``
        (:class:`MinRelaxation`).
        """
        return self.apply(state, lo, hi, acc)[ids]

    # -- derived helpers -----------------------------------------------

    def state_value_bytes(self, state: State) -> int:
        """Bytes of state per vertex — ``N`` in the paper's Table 2."""
        return int(sum(a.dtype.itemsize for a in state.values()))

    def copy_state(self, state: State) -> State:
        """Snapshot the state (engines snapshot at each iteration boundary)."""
        return {k: v.copy() for k, v in state.items()}

    def acc_array(self, length: int) -> np.ndarray:
        """A fresh accumulator filled with the combine identity."""
        return np.full(length, self.combine.identity, dtype=np.float64)

    def result(self, state: State) -> np.ndarray:
        """The program's primary output array (default: ``state['value']``)."""
        return state["value"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VertexProgram {self.name}>"


def min_relax(value: np.ndarray, acc: np.ndarray, ids: Optional[np.ndarray] = None) -> np.ndarray:
    """``value = min(value, acc)`` in place, over one interval's window
    or only at its distinct local ``ids``; returns the activation mask
    (``new < old``) over what it relaxed. Where ``acc`` holds ``inf``, or
    a value already folded in, the minimum leaves the old bits, so both
    forms leave the same state."""
    if ids is None:
        new = np.minimum(value, acc)
        activated = new < value
        value[:] = new
        return activated
    current = value[ids]
    new = np.minimum(current, acc[ids])
    value[ids] = new
    return new < current


class MinRelaxation(VertexProgram):
    """A program whose apply is :func:`min_relax` of ``state["value"]``
    (SSSP, SSWP, BFS, CC): it can apply at just the ids a push reached."""

    combine = Combine.MIN

    def apply(self, state: State, lo: int, hi: int, acc: np.ndarray) -> np.ndarray:
        return min_relax(state["value"][lo:hi], acc)

    def apply_at(
        self, state: State, lo: int, hi: int, acc: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        return min_relax(state["value"][lo:hi], acc, ids)
