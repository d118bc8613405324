"""The §4.3 buffer holds what it accounts, and FCIU decodes one block at a time.

Column loads return encoded block handles and every consumer decodes a
block just before it pushes it; the buffer keeps each admitted block as
its own copy of the encoded payload. One FCIU round (the full I/O model
forced, so the round covers two iterations) of CC on a dense R-MAT
graph, P = 4, checks the three consequences on a raw and a compact3
grid:

* the bytes resident in the buffer are exactly its ``used_bytes``, within
  ``capacity_bytes`` — on compact3 a buffer of decoded blocks held 3-5x
  what it accounted;
* hit bytes are counted once, by the buffer;
* each block is decoded once per visit, and the round's heap peak
  (``tracemalloc``, which sees numpy's data allocations) is bounded by
  the buffer, one encoded column, a few decoded blocks and ``O(|V|)`` —
  not by a decoded column; each push's own temporaries are bounded by
  its block.
"""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.base import GraphContext
from repro.core import GraphSDConfig, GraphSDEngine
from repro.core.engine_base import EngineBase
from repro.datasets.rmat import SOCIAL, rmat_edges
from repro.graph import GridStore
from tests.conftest import build_store

P = 4
ENCODINGS = ["raw", "compact3"]

#: Heap one push allocates beyond what it was handed, in units of its
#: block's 8 bytes per edge (``uint32`` source and destination). The
#: peak is the gather of a dense-gated push: sources re-based to their
#: interval (``uint32``, 1/2), numpy's ``intp`` cast of those indices
#: inside ``take`` (1), the gathered ``float64`` contributions (1), the
#: edge mask (``bool``, 1/8), then ``np.where``'s neutralized copy (1)
#: once the cast is gone. The combine stays at or under it:
#: contributions (1), destinations re-based (1/2) and ``np.minimum.at``'s
#: index cast (at most 1: numpy casts in 8192-index buffers). A push
#: that cuts its active sources out (``EdgeBlock.select``) builds
#: per-source index arrays and a copy of the selected edges instead; in
#: this round those stay under the same bound.
PUSH_BLOCKS = 2.625
#: Decoded blocks alive besides the push's own temporaries: the block
#: being pushed and the diagonal block FCIU holds across its interval's
#: apply. A raw block decodes to views of its column's read (no copy).
DECODED_BLOCKS = {"raw": 0, "compact3": 2}
#: Heap bytes per vertex at the round's peak: six 8-byte arrays held in
#: phase 2 (state, phase 1's snapshot and accumulator, phase 2's
#: snapshot and accumulator — the carried one — and the fresh carried
#: accumulator), three 1-byte masks (frontier, phase 1's and phase 2's
#: activations), and a gated push's cut of at most DENSE_GATE = 1/2 of
#: a P = 4 interval's sources: six 8-byte arrays per active source (ids,
#: edge starts, counts, ends and two ``run_positions`` temporaries;
#: 6 B per vertex) plus the block's cached source offsets (at most 4
#: bytes per interval vertex; 1 B per vertex).
PER_VERTEX = 6 * 8 + 3 + 6 + 1
#: Interpreter and bookkeeping allocations of one round.
SLACK = 64 << 10
#: Fixed allocations of one push: numpy's iterator buffers (about 5 KiB
#: per ``ufunc.at`` call) and the arrays' object headers.
PUSH_SLACK = 16 << 10


@pytest.fixture(scope="module")
def edges():
    return rmat_edges(11, 64, SOCIAL, seed=3).symmetrized()


def _engine(edges, tmp_path, encoding):
    """A CC engine over a fresh grid, and the grid.

    The buffer gets a third of the secondary blocks' encoded bytes, so
    some are admitted and some are not.
    """
    store = build_store(edges, tmp_path, P=P, name=encoding, encoding=encoding)
    secondary = sum(store.block_nbytes(i, j) for j in range(P) for i in range(j + 1, P))
    config = GraphSDConfig.baseline_b3(buffer_bytes=secondary // 3)
    return GraphSDEngine(store, config=config, ctx=GraphContext.from_edges(edges)), store


def _fciu_round(engine):
    """Run one FCIU round: two iterations under the full I/O model."""
    result = engine.run(make_program("cc"), max_iterations=2)
    assert [r.model for r in result.per_iteration] == ["fciu", "fciu2"]
    return result


def _root(array: np.ndarray) -> np.ndarray:
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_buffer_holds_its_budget(edges, tmp_path, encoding):
    engine, store = _engine(edges, tmp_path, encoding)
    _fciu_round(engine)
    buffer = engine.buffer
    resident = [buffer.peek(key) for key in buffer._blocks]
    assert resident, "the round admitted nothing"
    held = sum(h.payload.nbytes for h in resident)
    assert held == buffer.used_bytes <= buffer.capacity_bytes
    for handle in resident:
        assert handle.nbytes == store.block_nbytes(handle.i, handle.j)
        # Its own bytes: no resident block pins the column it was read with.
        assert _root(handle.payload).nbytes == handle.payload.nbytes
        decoded = handle.decode()
        reference = store.load_block(handle.i, handle.j)
        assert np.array_equal(decoded.src, reference.src)
        assert np.array_equal(decoded.dst, reference.dst)


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_buffer_hit_bytes_are_counted_once(edges, tmp_path, encoding):
    engine, _store = _engine(edges, tmp_path, encoding)
    io = _fciu_round(engine).io
    assert io.cache_hits > 0
    assert io.buffer_hit_bytes == io.bytes_served_from_cache > 0


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_fciu_round_decodes_once_in_a_bounded_heap(edges, tmp_path, encoding, monkeypatch):
    decodes = []
    decode = GridStore._decode

    def counting(self, i, j, payload):
        decodes.append((i, j))
        return decode(self, i, j, payload)

    #: Heap peaks of the round's stretches between pushes, and each
    #: push's (own peak over the heap it started from, edges).
    peaks, pushes = [], []
    push = EngineBase.push_block

    def measured(self, snapshot, block, *args, **kwargs):
        before, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()
        landed = push(self, snapshot, block, *args, **kwargs)
        pushes.append((tracemalloc.get_traced_memory()[1] - before, block.count))
        return landed

    engine, store = _engine(edges, tmp_path, encoding)
    monkeypatch.setattr(GridStore, "_decode", counting)
    monkeypatch.setattr(EngineBase, "push_block", measured)
    tracemalloc.start()
    try:
        result = _fciu_round(engine)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()

    # Phase 1 visits every block once (its push and its cross push share
    # one decode); phase 2 visits every secondary block once, from disk
    # or — one decode per hit — from the buffer.
    secondary = P * (P - 1) // 2
    assert result.io.cache_hits > 0
    assert len(decodes) == P * P + secondary
    assert len(set(decodes)) == P * P

    for grown, count in pushes:
        bound = PUSH_BLOCKS * 8 * count + PUSH_SLACK
        assert grown <= bound, f"a push of {count} edges grew the heap {grown} B > {bound} B"

    largest_column = max(store.column_nbytes(j) for j in range(P))
    largest_block = 8 * int(store.block_counts.max())
    bound = (
        engine.buffer.capacity_bytes
        + largest_column
        + (DECODED_BLOCKS[encoding] + PUSH_BLOCKS) * largest_block
        + PER_VERTEX * edges.num_vertices
        + SLACK
    )
    peak = max(peaks)
    assert peak <= bound, f"heap peak {peak} B > bound {bound} B"
