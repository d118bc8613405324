"""SSSP vs scipy Dijkstra and closed-form paths."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.algorithms import SSSP, SSWP
from repro.baselines import BSPReference
from repro.core import AsyncGraphSDEngine, GraphSDEngine
from repro.datasets import chain, grid_2d
from repro.graph.edgelist import EdgeList
from tests.conftest import build_store, random_edgelist


def scipy_distances(el: EdgeList, source: int) -> np.ndarray:
    n = el.num_vertices
    # scipy csr drops explicit-zero weights and collapses duplicates by
    # SUM; use min-reduction over duplicates to match shortest-path
    # semantics on multigraphs.
    order = np.lexsort((el.weights, el.dst, el.src))
    s, d, w = el.src[order], el.dst[order], el.weights[order]
    first = np.concatenate(([True], (s[1:] != s[:-1]) | (d[1:] != d[:-1])))
    mat = csr_matrix((w[first].astype(np.float64) + 1e-12, (s[first], d[first])), shape=(n, n))
    return dijkstra(mat, indices=source)


def test_matches_scipy_dijkstra(rng):
    el = random_edgelist(rng, 150, 900, weighted=True)
    result = BSPReference(el).run(SSSP(source=0))
    expected = scipy_distances(el, 0)
    assert np.allclose(result.values, expected, atol=1e-5, equal_nan=False)


def test_unreachable_vertices_stay_infinite():
    el = EdgeList.from_pairs([(0, 1)], num_vertices=3).with_weights(
        np.array([2.0], dtype=np.float32)
    )
    result = BSPReference(el).run(SSSP(source=0))
    assert result.values[1] == pytest.approx(2.0)
    assert np.isinf(result.values[2])


def test_chain_distances_are_prefix_sums():
    el = chain(10)
    w = np.arange(1, 10, dtype=np.float32)
    el = el.with_weights(w)
    result = BSPReference(el).run(SSSP(source=0))
    assert np.allclose(result.values, np.concatenate(([0.0], np.cumsum(w))))


def test_unit_weight_grid_matches_manhattan():
    el = grid_2d(5, 7).with_weights(None) if False else grid_2d(5, 7)
    el = el.with_weights(np.ones(el.num_edges, dtype=np.float32))
    result = BSPReference(el).run(SSSP(source=0))
    for r in range(5):
        for c in range(7):
            assert result.values[r * 7 + c] == r + c


def test_negative_weights_rejected():
    el = EdgeList.from_pairs([(0, 1)], num_vertices=2).with_weights(
        np.array([-1.0], dtype=np.float32)
    )
    with pytest.raises(ValueError, match="non-negative"):
        BSPReference(el).run(SSSP(source=0))


@pytest.mark.parametrize(
    "engine_cls", [GraphSDEngine, AsyncGraphSDEngine], ids=["graphsd", "graphsd-async"]
)
@pytest.mark.parametrize("negative", [(0, 1), (150, 151)], ids=["first-block", "later-block"])
@pytest.mark.parametrize("program", [SSSP, SSWP], ids=["sssp", "sswp"])
def test_negative_weight_in_any_block_rejected(program, negative, engine_cls, tmp_path):
    """A star from 0 plus 150 -> 151: the one negative weight sits either
    in the first gathered batch (0 -> 1) or in a later one (150 -> 151,
    reached only after 0 -> 150 relaxed)."""
    pairs = [(0, v) for v in range(1, 200)] + [(150, 151)]
    weights = np.ones(len(pairs), dtype=np.float32)
    weights[pairs.index(negative)] = -5.0
    el = EdgeList.from_pairs(pairs, num_vertices=200).with_weights(weights)
    engine = engine_cls(build_store(el, tmp_path))
    with pytest.raises(ValueError, match="non-negative"):
        engine.run(program(source=0))


def test_requires_weights():
    el = EdgeList.from_pairs([(0, 1)], num_vertices=2)
    with pytest.raises(ValueError):
        BSPReference(el).run(SSSP(source=0))


def test_source_out_of_range_rejected(rng):
    el = random_edgelist(rng, 10, 20)
    with pytest.raises(ValueError):
        BSPReference(el).run(SSSP(source=10))


def test_alternative_source(rng):
    el = random_edgelist(rng, 80, 600, weighted=True)
    result = BSPReference(el).run(SSSP(source=17))
    assert result.values[17] == 0.0
    assert np.allclose(result.values, scipy_distances(el, 17), atol=1e-5)
