"""The layout a store describes: the figures the scheduler and the cost
model read from it, and the check that its files match its meta.

The figures are pinned exactly, per encoding and weighting, on a graph
whose blocks differ in every width the layout records: header widths (a
hub with an in-block degree past 255), destination widths (a block of a
300-wide column whose destinations all fit one byte) and offset widths
(one block past 255 edges, the rest below).
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.graph import EdgeList, GridStore
from repro.graph.grid import GridFormatError
from repro.graph.partition import VertexIntervals
from repro.storage import Device

BOUNDARIES = [0, 100, 400, 700, 1000]


def layout_graph(weighted):
    rng = np.random.default_rng(11)
    parts = [
        (rng.integers(0, 100, 3000), rng.integers(100, 400, 3000)),  # block (0, 1): dense
        (rng.integers(100, 400, 200), rng.integers(400, 650, 200)),  # block (1, 2): local < 256
        (np.full(300, 5), rng.integers(700, 1000, 300)),  # a hub in block (0, 3)
        (rng.integers(400, 1000, 150), rng.integers(0, 1000, 150)),  # sparse rest
    ]
    src = np.concatenate([s for s, _ in parts])
    dst = np.concatenate([d for _, d in parts])
    weights = rng.random(src.size).astype(np.float32) if weighted else None
    return EdgeList(BOUNDARIES[-1], src, dst, weights)


#: ``(encoding, weighted) -> (adjacency_bytes_per_edge, index_entry_bytes
#: per row, index_total_bytes, total_edge_bytes, logical_edge_bytes,
#: block_nbytes digest)``, recorded at 6d01672.
LAYOUT = {
    ("raw", False): (8.0, (8, 8, 8, 8), 32128, 29200, 29200, "996419f5da70c57d"),
    ("raw", True): (12.0, (8, 8, 8, 8), 32128, 43800, 43800, "4103110a1608d97f"),
    ("compact", False): (1.9956164383561643, (8, 8, 8, 8), 32128, 10284, 29200, "3bfdae191dcf4b6a"),
    ("compact", True): (5.995616438356165, (8, 8, 8, 8), 32128, 24884, 43800, "1c2573781895506d"),
    ("compact3", False): (1.940821917808219, (2, 1, 1, 1), 4218, 10084, 29200, "4fdf9fa1bc020bc9"),
    ("compact3", True): (5.940821917808219, (2, 1, 1, 1), 4218, 24684, 43800, "8a58b8e8666871ae"),
}


@pytest.mark.parametrize("encoding, weighted", sorted(LAYOUT))
def test_layout_figures_are_pinned(tmp_path, encoding, weighted):
    edges = layout_graph(weighted)
    store = GridStore.build(
        edges, VertexIntervals(np.array(BOUNDARIES)), Device(tmp_path), prefix="g",
        encoding=encoding,
    )
    P = store.P
    table = np.array([[store.block_nbytes(i, j) for j in range(P)] for i in range(P)], np.int64)
    assert (
        store.adjacency_bytes_per_edge,
        tuple(store.index_entry_bytes(i) for i in range(P)),
        store.index_total_bytes,
        store.total_edge_bytes,
        store.logical_edge_bytes,
        hashlib.sha256(table.tobytes()).hexdigest()[:16],
    ) == LAYOUT[encoding, weighted]


# -- a meta its files contradict fails to open -------------------------------


def _cell(field, value):
    """An edit setting block ``(0, 1)``'s entry of the P x P meta table
    ``field`` to ``value(old entry)``."""

    def edit(meta, root):
        meta[field][0][1] = value(meta[field][0][1])

    return edit


def _truncate_edges(meta, root):
    os.truncate(root / "g.edges", (root / "g.edges").stat().st_size - 3)


#: ``name -> (encoding, edit(meta dict, grid directory), what the error
#: names)``. At 6d01672 the first three opened cleanly and then read other
#: edges than the ones written.
MALFORMED = {
    "count-code-1-to-2": (
        "compact", _cell("count_dtype_codes", lambda old: 2 * old), "g.edges holds"
    ),
    "dst-code-to-4": ("compact3", _cell("dst_dtype_codes", lambda old: 4), "g.edges holds"),
    "raw-block-count-plus-5": ("raw", _cell("block_counts", lambda old: old + 5), "g.edges holds"),
    "dst-code-off-menu": (
        "compact3", _cell("dst_dtype_codes", lambda old: 8), r"dst_dtype_codes\[0\]\[1\] is 8"
    ),
    "format-not-a-number": ("raw", lambda meta, root: meta.update(format="x"), "'format' is 'x'"),
    "has-weights-missing": (
        "raw", lambda meta, root: meta.pop("has_weights"), "missing has_weights"
    ),
    "edges-truncated": ("compact3", _truncate_edges, "g.edges holds"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_open_rejects_a_meta_its_files_contradict(tmp_path, name):
    encoding, edit, error = MALFORMED[name]
    edges = layout_graph(weighted=True)
    GridStore.build(
        edges, VertexIntervals(np.array(BOUNDARIES)), Device(tmp_path), prefix="g",
        encoding=encoding,
    )
    meta_path = tmp_path / "g.meta.json"
    meta = json.loads(meta_path.read_text())
    edit(meta, tmp_path)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(GridFormatError, match=error):
        GridStore.open(Device(tmp_path), prefix="g")
