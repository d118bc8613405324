"""Bounded grid residency: selective reads keep one column of the grid mapped.

Mapped pages count toward the process's resident set, and one read
fault may map a whole large folio, so sparse selective reads spread over
every column used to leave ``.edges`` and ``.idx`` resident whole. The
invariant: after any selective read, the two files' resident bytes stay
within the largest destination column's window of both files plus two
folios per file (one at each end of the window).
"""

import mmap

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.base import GraphContext
from repro.core import GraphSDEngine
from repro.datasets.rmat import WEB, rmat_edges
from repro.graph.edgelist import EdgeList
from repro.graph.grid import INDEX_GATHER, GridStore
from repro.graph.preprocess import preprocess_graphsd
from repro.storage.blockfile import Device
from tests.conftest import fault_folio_bytes, mapped_rss_bytes

P = 8
CHAIN_SEGMENT = 48


def _tendril_graph(scale: int, seed: int) -> EdgeList:
    """A weighted web-like R-MAT graph with ``v -> v+1`` chains broken every
    ``CHAIN_SEGMENT`` ids: SSSP on it runs ~50 tiny-frontier SCIU rounds."""
    base = rmat_edges(scale, 16, WEB, seed=seed)
    n = base.num_vertices
    chain = np.arange(n - 1, dtype=np.int64)
    chain = chain[(chain + 1) % CHAIN_SEGMENT != 0]
    src = np.concatenate([base.src.astype(np.int64), chain])
    dst = np.concatenate([base.dst.astype(np.int64), chain + 1])
    weights = np.random.default_rng(seed).uniform(0.05, 1.0, src.shape[0]).astype(np.float32)
    return EdgeList(n, src, dst, weights)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    if mapped_rss_bytes(__file__) is None:
        pytest.skip("no /proc/self/smaps on this platform")
    if not hasattr(mmap, "MADV_DONTNEED"):
        pytest.skip("no madvise on this platform")
    edges = _tendril_graph(17, seed=2)
    device = Device(tmp_path_factory.mktemp("residency") / "grid")
    pre = preprocess_graphsd(edges, device, P=P)
    ctx = GraphContext(
        num_vertices=edges.num_vertices, num_edges=edges.num_edges, out_degrees=pre.out_degrees
    )
    return GridStore.open(device, prefix="graphsd"), ctx


def _resident(store: GridStore) -> int:
    return sum(
        mapped_rss_bytes(store.device.root / f"{store.prefix}.{ext}") for ext in ("edges", "idx")
    )


def _bound(store: GridStore) -> int:
    """The largest column's ``.edges`` + ``.idx`` window plus two folios per file."""
    index_bytes = (store.intervals.sizes() + 1).sum() * 8  # raw: int64 offsets per column
    window = max(store.column_nbytes(j) for j in range(store.P)) + int(index_bytes)
    return window + 2 * 2 * fault_folio_bytes()


def test_a_batch_over_every_block_leaves_one_column_resident(grid):
    store, _ = grid
    on_disk = sum(
        (store.device.root / f"{store.prefix}.{ext}").stat().st_size for ext in ("edges", "idx")
    )
    assert on_disk > _bound(store) + (4 << 20)  # whole files would break the bound
    entries = []
    for i in range(P):
        lo, hi = store.intervals.bounds(i)
        ids = np.arange(lo, hi, 16, dtype=np.int64)  # sparse: every column's folios
        entries += [(i, j, ids, INDEX_GATHER) for j in range(P) if store.block_edge_count(i, j)]
    assert len(entries) == P * P
    loads = store.read_selective(entries)
    assert sum(load.block.count for load in loads) > 0
    assert _resident(store) <= _bound(store)


def test_an_sssp_run_leaves_at_most_one_column_resident(grid):
    store, ctx = grid
    result = GraphSDEngine(store, ctx=ctx).run(make_program("sssp", source=0))
    assert result.iterations > 20  # a long selective tail, not a few full sweeps
    assert _resident(store) <= _bound(store)
