"""PageRank-Delta: telescopes to the plain PageRank fixpoint."""

import numpy as np

from repro.algorithms import PageRank, PageRankDelta
from repro.baselines import BSPReference
from repro.graph.edgelist import EdgeList
from tests.conftest import random_edgelist


def test_zero_tolerance_tracks_pagerank_exactly(rng):
    """With tol=0 every vertex stays active and the rank trajectory is
    exactly PR's (the telescoping-sum identity)."""
    el = random_edgelist(rng, 100, 600, weighted=False)
    k = 8
    pr = BSPReference(el).run(PageRank(iterations=k))
    prd = BSPReference(el).run(PageRankDelta(tol=0.0, iterations=k))
    assert np.allclose(pr.values, prd.values)


def test_threshold_only_prunes_small_deltas(rng):
    el = random_edgelist(rng, 100, 600, weighted=False)
    exact = BSPReference(el).run(PageRankDelta(tol=0.0, iterations=20))
    approx = BSPReference(el).run(PageRankDelta(tol=1e-3, iterations=20))
    # Thresholding changes ranks by at most a modest multiple of the
    # tolerance per vertex (deltas below tol stop propagating).
    assert np.max(np.abs(exact.values - approx.values)) < 0.1


def test_frontier_shrinks_monotonically_late(rng):
    el = random_edgelist(rng, 200, 1600, weighted=False)
    result = BSPReference(el).run(PageRankDelta(tol=5e-2, iterations=30))
    fh = result.frontier_history
    # after warm-up the active count decays (allow small wiggle)
    late = fh[3:]
    assert late[-1] < late[0]
    assert min(fh) < el.num_vertices


def test_converges_and_stops_before_cap():
    el = EdgeList.from_pairs([(0, 1), (1, 0)], num_vertices=2)
    result = BSPReference(el).run(PageRankDelta(tol=1e-3, iterations=500))
    assert result.converged
    assert result.iterations < 500
    # fixpoint of x = 0.15 + 0.85 x for the 2-cycle => x = 1
    assert np.allclose(result.values, 1.0, atol=1e-2)


def test_initial_state_shape(rng):
    from repro.algorithms import GraphContext
    from repro.graph.degree import out_degrees

    el = random_edgelist(rng, 30, 100, weighted=False)
    prd = PageRankDelta()
    state = prd.init_state(
        GraphContext(30, el.num_edges, out_degrees=out_degrees(el))
    )
    assert np.allclose(state["value"], 0.15)
    assert np.allclose(state["delta"], 0.15)
