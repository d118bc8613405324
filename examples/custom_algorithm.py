#!/usr/bin/env python
"""Writing your own vertex program: weighted reachability ("influence").

The engine runs any program built from three vectorized hooks —
``gather`` (per-edge contribution), a ``combine`` reduction (ADD or
MIN), and ``apply`` (per-vertex fold + activation). This example
implements *decaying influence*: seed vertices start with influence 1.0,
every hop multiplies it by a decay factor, and each vertex keeps the
strongest influence path reaching it (a max-product propagation,
expressed as MIN over negative logs would also work — here we keep it
direct by negating). Useful shape: viral-marketing reach, trust
propagation, percolation.

Run:  python examples/custom_algorithm.py
"""

import tempfile

import numpy as np

from repro import Device, GridStore, make_intervals
from repro.algorithms import Combine, GraphContext, VertexProgram
from repro.core import GraphSDEngine
from repro.datasets import rmat_edges
from repro.utils.bitset import VertexSubset


class DecayingInfluence(VertexProgram):
    """Strongest decayed influence from a seed set.

    State is ``-influence`` so the MIN combiner implements max:
    ``influence(v) = max over in-edges (u, v) of influence(u) * decay``.
    Monotone, frontier-driven — exactly the program class SCIU's
    cross-iteration pushes accelerate.
    """

    name = "influence"
    combine = Combine.MIN
    needs_weights = False
    all_active = False

    def __init__(self, seeds, decay=0.5, floor=1e-3):
        self.seeds = list(seeds)
        self.decay = float(decay)
        self.floor = float(floor)  # stop propagating below this influence

    def init_state(self, ctx: GraphContext):
        value = np.zeros(ctx.num_vertices, dtype=np.float64)  # -influence
        value[self.seeds] = -1.0
        return {"value": value}

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        return VertexSubset.from_indices(ctx.num_vertices, self.seeds)

    def gather(self, state, lo, hi, src, weights):
        # ``src`` holds ids local to the block's source interval [lo, hi).
        return state["value"][lo:hi].take(src) * self.decay

    def apply(self, state, lo, hi, acc):
        # ``acc`` is +inf (the MIN identity) where nothing arrived.
        current = state["value"][lo:hi]
        new = np.minimum(current, acc)  # min of negatives = max influence
        activated = (new < current) & (new < -self.floor)
        state["value"][lo:hi] = new
        return activated

    def influence(self, result_values: np.ndarray) -> np.ndarray:
        return -result_values


def main() -> None:
    edges = rmat_edges(scale=14, edge_factor=12, seed=3)
    device = Device(tempfile.mkdtemp(prefix="graphsd-influence-"))
    store = GridStore.build(edges, make_intervals(edges, P=6), device, prefix="inf")

    seeds = [0, 1, 2]
    program = DecayingInfluence(seeds, decay=0.5)
    result = GraphSDEngine(store, ctx=GraphContext.from_edges(edges)).run(program)

    influence = program.influence(result.values)
    reached = int(np.count_nonzero(influence > 0))
    print(result.summary())
    print(
        f"seeds {seeds} reach {reached:,} of {edges.num_vertices:,} vertices "
        f"with influence > 0 (decay 0.5/hop, floor {program.floor})"
    )
    hist, bin_edges = np.histogram(
        influence[influence > 0], bins=[1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0001]
    )
    for count, lo, hi in zip(hist[::-1], bin_edges[-2::-1], bin_edges[:0:-1]):
        print(f"  influence in [{lo:.3g}, {hi:.3g}): {count:,} vertices")
    print(f"I/O models: {result.model_history} — a frontier workload, mostly on-demand")


if __name__ == "__main__":
    main()
