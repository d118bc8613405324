"""Graph representation and preprocessing.

Implements §3.2 of the paper: vertex intervals, the 2-D (P × P) grid
partitioning of the edge set into *sub-blocks*, the per-vertex offset
index ``index(i, j)`` enabling selective edge access, and the
preprocessing pipelines whose costs Fig. 8 compares (GraphSD, HUS-Graph,
Lumos).
"""

from repro.graph.edgelist import EdgeList
from repro.graph.degree import in_degrees, out_degrees
from repro.graph.io import (
    load_binary_pairs,
    load_matrix_market,
    save_binary_pairs,
    save_matrix_market,
)
from repro.graph.partition import VertexIntervals, make_intervals
from repro.graph.grid import BlockHandle, EdgeBlock, GridStore
from repro.graph.vertexdata import VertexArrayStore
from repro.graph.preprocess import (
    PreprocessResult,
    preprocess_graphsd,
    preprocess_husgraph,
    preprocess_lumos,
)

__all__ = [
    "EdgeList",
    "in_degrees",
    "out_degrees",
    "load_binary_pairs",
    "load_matrix_market",
    "save_binary_pairs",
    "save_matrix_market",
    "VertexIntervals",
    "make_intervals",
    "BlockHandle",
    "EdgeBlock",
    "GridStore",
    "VertexArrayStore",
    "PreprocessResult",
    "preprocess_graphsd",
    "preprocess_husgraph",
    "preprocess_lumos",
]
