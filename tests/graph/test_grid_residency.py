"""Grid residency: selective reads hold what they read, and map nothing.

``ArrayFile.read_runs`` reads every selective byte into a buffer it
allocates, so no page of ``.edges`` or ``.idx`` counts toward the
process's resident set through a mapping. The invariants, on a
scale-17, P = 8 grid:

* after a batch over all 64 blocks and after a whole SSSP run, the
  resident bytes of this process's mappings of ``.edges`` and ``.idx``
  are zero (``/proc/self/smaps``): a mapping that came back would show;
* each ``read_selective`` call grows the heap (``tracemalloc``) by at
  most its largest chunk's joined extents, the arrays it returns, and an
  allowance per id and per edge of that chunk (:func:`_heap_bound`). The
  extents are joined here from the runs each read was asked for, by the
  reader's rule, so a reader that reads more than them fails the bound.
"""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.base import GraphContext
from repro.core import GraphSDEngine
from repro.datasets.rmat import WEB, rmat_edges
from repro.graph.edgelist import EdgeList
from repro.graph.grid import INDEX_GATHER, GridStore
from repro.graph.preprocess import preprocess_graphsd
from repro.storage.blockfile import READ_JOIN_BYTES, Device
from tests.conftest import mapped_rss_bytes

P = 8
CHAIN_SEGMENT = 48

#: Heap a chunk of ``read_selective`` holds per active id besides its
#: reads: the pass's per-id arrays alive at its peak (the edge pass).
#: 8-byte arrays: owner, active ids (plus the concatenation they are cast
#: from), local ids, offset widths, pair positions, the index read's
#: positions, both offsets, per-vertex counts, extent starts, counts and
#: ends, merged-run starts, counts and ids, the taken counts and the edge
#: read's positions — 19 x 8 = 152 B; 1-byte masks: inside, take, the
#: merge's breaks, sequential and non-empty runs — 5 B; and the index
#: read's planning arrays (ends, cut points, positions, a repeat), 32 B.
#: 189 B, rounded up.
PER_ID = 192
#: Heap per edge of the chunk besides the arrays returned: a raw edge
#: pass holds the gather's positions (8 B) with ``run_positions``'
#: repeat (8 B), then the gathered records (12 B) while the returned
#: fields are copied out of them — 28 B at most.
PER_EDGE = 28
#: Interpreter and numpy bookkeeping: per-entry objects (loads, blocks,
#: slices), per-group scalars, small arrays' headers.
SLACK = 256 << 10


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
    edges = _tendril_graph(17, seed=2)
    device = Device(tmp_path_factory.mktemp("residency") / "grid")
    pre = preprocess_graphsd(edges, device, P=P)
    ctx = GraphContext(
        num_vertices=edges.num_vertices, num_edges=edges.num_edges, out_degrees=pre.out_degrees
    )
    return GridStore.open(device, prefix="graphsd"), ctx


def _mapped(store: GridStore) -> int:
    return sum(
        mapped_rss_bytes(store.device.root / f"{store.prefix}.{ext}") for ext in ("edges", "idx")
    )


def _joined_bytes(starts, counts, itemsize: int) -> int:
    """Bytes of the extents that runs ``(starts[k], counts[k])`` join into:
    in file order, a run less than :data:`READ_JOIN_BYTES` past the end of
    the extent before it joins that extent."""
    total, lo, hi = 0, 0, None
    for start, count in sorted(zip(starts.tolist(), counts.tolist())):
        if hi is not None and (start - hi) * itemsize < READ_JOIN_BYTES:
            hi = max(hi, start + count)
            continue
        total += 0 if hi is None else hi - lo
        lo, hi = start, start + count
    return (total + (0 if hi is None else hi - lo)) * itemsize


class _HeapProbe:
    """Wraps ``store.read_selective`` and the two files' ``read_runs``:
    per call, the heap growth and the bound of :func:`_heap_bound`."""

    def __init__(self, store: GridStore, monkeypatch) -> None:
        self.calls = []  # (growth, bound) per read_selective call
        self._chunks = []  # per read_runs call: (joined bytes, runs, items)
        read_selective = store.read_selective
        for f in (store._idx_file, store._edges_file):
            monkeypatch.setattr(f, "read_runs", self._recording(f.read_runs, f.dtype.itemsize))
        monkeypatch.setattr(store, "read_selective", self._measured(read_selective))

    def _recording(self, read_runs, itemsize: int):
        def wrapped(starts, counts):
            counts = np.broadcast_to(counts, np.shape(starts))
            joined = _joined_bytes(np.asarray(starts), counts, itemsize)
            self._chunks.append((joined, len(starts), int(counts.sum())))
            return read_runs(starts, counts)

        return wrapped

    def _measured(self, read_selective):
        def wrapped(*args, **kwargs):
            self._chunks.clear()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loads = read_selective(*args, **kwargs)
            after, peak = tracemalloc.get_traced_memory()
            self.calls.append((peak - before, _heap_bound(self._chunks, after - before)))
            return loads

        return wrapped


def _heap_bound(reads, returned: int) -> int:
    """The heap one ``read_selective`` call may grow by.

    ``reads`` alternate per chunk: the index read (one run per active id),
    then the edge read (one item per edge on a raw grid), each as the
    bytes of its joined extents. A chunk's peak holds both reads'
    buffers, its per-id and per-edge working arrays
    (:data:`PER_ID`, :data:`PER_EDGE`), and what the call returns so far;
    ``returned`` is what the call still holds when it returns (the edge
    blocks, the merged runs and local ids the loads keep), an upper bound
    on the latter. Earlier chunks' buffers are freed when the next starts.
    """
    chunk_peaks = [0]
    for (idx_bytes, ids, _), (edge_bytes, _, edges) in zip(reads[0::2], reads[1::2]):
        chunk_peaks.append(idx_bytes + edge_bytes + PER_ID * ids + PER_EDGE * edges)
    return max(chunk_peaks) + returned + SLACK


def _traced(fn):
    tracemalloc.start()
    try:
        return fn()
    finally:
        tracemalloc.stop()


def test_a_batch_over_every_block_maps_nothing_and_holds_its_reads(grid, monkeypatch):
    store, _ = grid
    on_disk = sum(
        (store.device.root / f"{store.prefix}.{ext}").stat().st_size for ext in ("edges", "idx")
    )
    entries = []
    for i in range(P):
        lo, hi = store.intervals.bounds(i)
        ids = np.arange(lo, hi, 16, dtype=np.int64)  # sparse: every column's pages
        entries += [(i, j, ids, INDEX_GATHER) for j in range(P) if store.block_edge_count(i, j)]
    assert len(entries) == P * P
    probe = _HeapProbe(store, monkeypatch)
    loads = _traced(lambda: store.read_selective(entries))
    assert sum(load.block.count for load in loads) > 0
    assert _mapped(store) == 0
    ((growth, bound),) = probe.calls
    assert growth <= bound < on_disk // 2  # far under reading the files whole


def test_an_sssp_run_maps_nothing_and_each_batch_holds_its_reads(grid, monkeypatch):
    store, ctx = grid
    probe = _HeapProbe(store, monkeypatch)
    engine = GraphSDEngine(store, ctx=ctx)
    result = _traced(lambda: engine.run(make_program("sssp", source=0)))
    assert result.iterations > 20  # a long selective tail, not a few full sweeps
    assert _mapped(store) == 0
    assert len(probe.calls) > 20
    over = [(growth, bound) for growth, bound in probe.calls if growth > bound]
    assert over == []
