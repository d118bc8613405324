"""Preprocessing runs in bounded memory: the grid build and the generator.

The grid build sorts and encodes one destination column at a time, so
its heap peak is the files it writes plus one column's working set, a
few degree vectors and two bytes per edge — never a per-edge temporary
of the whole graph. The R-MAT generator draws through a cache-sized
buffer and drops self-loops in place. Both are measured with
``tracemalloc``, which sees numpy's data allocations, on an R-MAT
scale-14 graph (≈262 K edges) at P = 8.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets.rmat import SOCIAL, rmat_edges
from repro.graph import GridStore, make_intervals
from repro.graph.grid import ENCODING_RAW
from repro.storage import Device

#: Heap bytes per edge of the largest destination column: its positions,
#: packed keys and decoded destinations (``int64`` each) and the ``uint32``
#: gathers that fill the key.
PER_COLUMN_EDGE = 32
#: Heap bytes per vertex: the column's degree vector and its running sum,
#: the previous column's pair and the out-degree total (``int64`` each),
#: and the interval lookup table.
PER_VERTEX = 48
#: Heap bytes per edge of the whole graph: its column id and the mask
#: that selects a column.
PER_EDGE = 2
#: Interpreter and bookkeeping allocations of one build.
SLACK = 256 << 10

#: The generator: its two ``uint32`` endpoint arrays and one byte of
#: source bits per edge, plus one buffer of draws (512 KiB) and its masks.
GENERATOR_PER_EDGE = 16
GENERATOR_SLACK = 1 << 20


def _traced_peak(fn):
    """``(fn(), peak heap bytes while it ran)``."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def graph():
    return rmat_edges(14, 16, SOCIAL, seed=5)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("encoding", [ENCODING_RAW, "compact3"])
def test_grid_build_peak_is_bounded_by_one_column(tmp_path, graph, encoding, weighted):
    edges = graph
    if weighted:
        weights = np.random.default_rng(0).random(graph.num_edges, dtype=np.float32)
        edges = graph.with_weights(weights)
    intervals = make_intervals(edges, 8)
    n, m = edges.num_vertices, edges.num_edges
    largest = int(np.diff(np.searchsorted(np.sort(edges.dst), intervals.boundaries)).max())
    assert largest < m / 4  # a column is a small share of the graph

    store, peak = _traced_peak(
        lambda: GridStore.build(edges, intervals, Device(tmp_path), encoding=encoding)
    )
    # A compact file is joined from per-block parts, so it is held twice.
    edge_copies = 1 if encoding == ENCODING_RAW else 2
    files = edge_copies * store.total_edge_bytes + store.index_total_bytes
    bound = files + PER_COLUMN_EDGE * largest + PER_VERTEX * n + PER_EDGE * m + SLACK
    assert peak <= bound, (peak, bound)


def test_rmat_generator_peak_is_bounded(graph):
    edges, peak = _traced_peak(lambda: rmat_edges(14, 16, SOCIAL, seed=5))
    assert edges == graph  # the same graph, generated again under the tracer
    bound = GENERATOR_PER_EDGE * edges.num_edges + GENERATOR_SLACK
    assert peak <= bound, (peak, bound)
