"""Compact sub-block encoding: roundtrips, selective loads, format versioning.

The compact layout (format 2, ``docs/STORAGE.md``) must be invisible
above the decoder: every load path returns :class:`EdgeBlock` objects
bit-identical to the raw layout's, on any graph — including the shapes
the encoder's width selection depends on (empty sub-blocks, single-
vertex intervals, P=1, weighted and unweighted edges).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeList, GridStore
from repro.graph.grid import (
    ENCODING_COMPACT,
    GridFormatError,
    _narrowest_uint,
)
from repro.graph.partition import VertexIntervals
from repro.storage import Device, SimulatedDisk
from tests.conftest import build_store, random_edgelist


def build_pair(edges, tmp_path, P=4, name="c"):
    """The same edge list as a raw and a compact store."""
    raw = build_store(edges, tmp_path, P=P, name=f"{name}-raw")
    compact = build_store(
        edges, tmp_path, P=P, name=f"{name}-compact", encoding="compact"
    )
    return raw, compact


def assert_blocks_equal(a, b):
    assert (a.i, a.j, a.count) == (b.i, b.j, b.count)
    assert np.array_equal(a.src, b.src) and a.src.dtype == b.src.dtype
    assert np.array_equal(a.dst, b.dst) and a.dst.dtype == b.dst.dtype
    assert (a.wgt is None) == (b.wgt is None)
    if a.wgt is not None:
        assert np.array_equal(a.wgt, b.wgt) and a.wgt.dtype == b.wgt.dtype


# -- property test: encode -> decode roundtrips bit-exactly ----------------


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    m=st.integers(min_value=0, max_value=500),
    P=st.integers(min_value=1, max_value=6),
    weighted=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_roundtrip_matches_raw_bit_exactly(tmp_path_factory, n, m, P, weighted, seed):
    """Random graphs (any shape the builder accepts): every full-stream
    load path of the compact store equals the raw store's bit-for-bit."""
    rng = np.random.default_rng(seed)
    P = min(P, n)  # intervals cannot outnumber vertices
    edges = random_edgelist(rng, n, m, weighted=weighted)
    tmp_path = tmp_path_factory.mktemp("roundtrip")
    raw, compact = build_pair(edges, tmp_path, P=P)
    compact.validate()
    # (No size assertion here: on degenerate graphs — near-empty blocks
    # over wide intervals — the run-length header can exceed the raw
    # records. Realistic-size reduction is asserted separately.)
    for (i, j) in raw.iter_blocks_dst_major():
        assert_blocks_equal(raw.load_block(i, j), compact.load_block(i, j))
    for j in range(P):
        for a, b in zip(raw.load_column(j), compact.load_column(j)):
            assert_blocks_equal(a.decode(), b.decode())
    assert np.array_equal(raw.read_all_sources(), compact.read_all_sources())


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=150),
    m=st.integers(min_value=1, max_value=600),
    P=st.integers(min_value=1, max_value=4),
    weighted=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_selective_loads_match_raw(tmp_path_factory, n, m, P, weighted, seed):
    """Index-range (selective) loads return the same edges as raw, for
    random active sets — including single vertices and full intervals."""
    rng = np.random.default_rng(seed)
    P = min(P, n)
    edges = random_edgelist(rng, n, m, weighted=weighted)
    tmp_path = tmp_path_factory.mktemp("selective")
    raw, compact = build_pair(edges, tmp_path, P=P)
    iv = raw.intervals
    actives = np.unique(rng.integers(0, n, max(1, n // 3)))
    for i in range(P):
        lo, hi = iv.bounds(i)
        ids = actives[(actives >= lo) & (actives < hi)].astype(np.int64)
        if ids.size == 0:
            continue
        for j in range(P):
            pairs_raw = raw.read_index_entries(i, j, ids - lo)
            pairs_c = compact.read_index_entries(i, j, ids - lo)
            assert np.array_equal(pairs_raw, pairs_c)
            a = raw.load_active_edges(i, j, ids, pairs_raw, seq_threshold_bytes=64)
            b = compact.load_active_edges(i, j, ids, pairs_c, seq_threshold_bytes=64)
            assert_blocks_equal(a, b)


def test_single_vertex_intervals_and_p1(rng, tmp_path):
    """Degenerate interval shapes: every interval one vertex; P=1."""
    edges = random_edgelist(rng, 4, 40, weighted=True)
    for P in (4, 1):  # P=4 over 4 vertices -> single-vertex intervals
        raw, compact = build_pair(edges, tmp_path, P=P, name=f"deg{P}")
        compact.validate()
        for (i, j) in raw.iter_blocks_dst_major():
            assert_blocks_equal(raw.load_block(i, j), compact.load_block(i, j))


def test_empty_blocks_occupy_zero_bytes(rng, tmp_path):
    """A sub-block with no edges contributes no header and no records."""
    # Fixed uniform intervals + edges confined to vertices 0-9: every
    # block outside cell (0, 0) is empty by construction.
    src = rng.integers(0, 10, 50).astype(np.uint32)
    dst = rng.integers(0, 10, 50).astype(np.uint32)
    edges = EdgeList(100, src, dst)
    intervals = VertexIntervals(np.array([0, 25, 50, 75, 100], dtype=np.int64))
    compact = GridStore.build(
        edges, intervals,
        Device(tmp_path / "sparse", SimulatedDisk()),
        prefix="g", indexed=True, encoding="compact",
    )
    compact.validate()
    seen_empty = False
    for (i, j) in compact.iter_blocks_dst_major():
        if compact.block_edge_count(i, j) == 0:
            assert compact.block_nbytes(i, j) == 0
            assert compact.load_block(i, j).count == 0
            seen_empty = True
    assert seen_empty


# -- byte model ------------------------------------------------------------


def test_narrowest_uint_boundaries():
    assert _narrowest_uint(0).itemsize == 1
    assert _narrowest_uint(255).itemsize == 1
    assert _narrowest_uint(256).itemsize == 2
    assert _narrowest_uint(65535).itemsize == 2
    assert _narrowest_uint(65536).itemsize == 4
    with pytest.raises(ValueError):
        _narrowest_uint(1 << 32)


def test_compact_reduces_unweighted_bytes_substantially(rng, tmp_path):
    """Narrow intervals -> uint8/16 locals: well past the 1.8x target."""
    edges = random_edgelist(rng, 2000, 30000, weighted=False)
    raw, compact = build_pair(edges, tmp_path, P=8, name="ratio")
    assert raw.total_edge_bytes / compact.total_edge_bytes >= 1.8


def test_block_and_column_bytes_sum_to_total(rng, tmp_path):
    edges = random_edgelist(rng, 300, 3000, weighted=True)
    _, compact = build_pair(edges, tmp_path, P=4, name="sum")
    per_block = sum(
        compact.block_nbytes(i, j) for (i, j) in compact.iter_blocks_dst_major()
    )
    per_column = sum(compact.column_nbytes(j) for j in range(4))
    assert per_block == per_column == compact.total_edge_bytes
    # The edges file itself is exactly that many bytes.
    assert compact._edges_file.nbytes == compact.total_edge_bytes


def test_charged_read_bytes_shrink_with_encoding(rng, tmp_path):
    """The simulated disk is charged for encoded, not decoded, bytes."""
    edges = random_edgelist(rng, 500, 6000, weighted=False)
    raw, compact = build_pair(edges, tmp_path, P=4, name="charge")

    def charged_column_read(store):
        stats = store.device.disk.stats
        before = stats.bytes_read_seq + stats.bytes_read_ran
        store.load_column(0)
        return stats.bytes_read_seq + stats.bytes_read_ran - before

    raw_bytes = charged_column_read(raw)
    compact_bytes = charged_column_read(compact)
    assert compact_bytes < raw_bytes
    assert compact_bytes == compact.column_nbytes(0)
    assert raw_bytes == raw.column_nbytes(0)


# -- format versioning -----------------------------------------------------


def test_open_reconstructs_compact_store(rng, tmp_path):
    edges = random_edgelist(rng, 150, 1500, weighted=True)
    compact = build_store(edges, tmp_path, P=3, name="reopen", encoding="compact")
    reopened = GridStore.open(compact.device, "reopen")
    assert reopened.encoding == ENCODING_COMPACT
    assert np.array_equal(reopened._count_codes, compact._count_codes)
    for (i, j) in compact.iter_blocks_dst_major():
        assert_blocks_equal(compact.load_block(i, j), reopened.load_block(i, j))


def test_unknown_format_fails_readably(rng, tmp_path):
    """A future-format grid must be rejected, never garbage-decoded."""
    edges = random_edgelist(rng, 50, 200)
    store = build_store(edges, tmp_path, P=2, name="future")
    meta_path = store.device.root / "future.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format"] = 99
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(GridFormatError, match="format 99.*supported formats"):
        GridStore.open(store.device, "future")


def test_pre_versioning_meta_opens_as_raw(rng, tmp_path):
    """Grids written before the format field existed are format 1."""
    edges = random_edgelist(rng, 50, 200)
    store = build_store(edges, tmp_path, P=2, name="old")
    meta_path = store.device.root / "old.meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["format"]
    del meta["encoding"]
    meta_path.write_text(json.dumps(meta))
    reopened = GridStore.open(store.device, "old")
    assert reopened.encoding == "raw"
    assert reopened.total_edges == store.total_edges


def test_compact_meta_missing_codes_fails_readably(rng, tmp_path):
    edges = random_edgelist(rng, 50, 200)
    store = build_store(edges, tmp_path, P=2, name="nocodes", encoding="compact")
    meta_path = store.device.root / "nocodes.meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["count_dtype_codes"]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="count_dtype_codes"):
        GridStore.open(store.device, "nocodes")


def test_corrupt_header_detected_not_garbage_decoded(rng, tmp_path):
    """Run lengths that disagree with the edge count raise, not decode."""
    edges = random_edgelist(rng, 64, 400, weighted=False)
    store = build_store(edges, tmp_path, P=2, name="corrupt", encoding="compact")
    # Find a nonempty block and flip a header byte on disk.
    target = next(
        (i, j)
        for (i, j) in store.iter_blocks_dst_major()
        if store.block_edge_count(i, j) > 0
    )
    i, j = target
    start = int(store._block_byte_start[i, j])
    path = store.device.root / "corrupt.edges"
    blob = bytearray(path.read_bytes())
    blob[start] = (blob[start] + 100) % 256
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="corrupt compact header"):
        store.load_block(i, j)


def test_compact_requires_sorted_indexed_build(rng, tmp_path):
    edges = random_edgelist(rng, 50, 200)
    with pytest.raises(ValueError, match="compact encoding requires"):
        build_store(
            edges, tmp_path, P=2, name="bad", encoding="compact",
            sort_within_blocks=False,
        )


# -- engines on compact stores --------------------------------------------


@pytest.mark.parametrize("config_name", ["adaptive", "b3", "b4"])
@pytest.mark.parametrize("pipeline", [False, True])
def test_engine_results_identical_across_encodings(
    rng, tmp_path, pipeline, config_name
):
    """Engine runs produce bit-identical values and iteration counts on
    raw vs. compact stores — adaptive plus both pinned ablations.

    Model-choice trajectories must match exactly under the pinned
    configs (the schedule is forced); the adaptive scheduler may
    legitimately choose differently, since the compact byte model moves
    the full-vs-on-demand crossover — but never differently in *values*.
    """
    from repro.algorithms import PageRank, SSSP
    from repro.core import GraphSDConfig, GraphSDEngine

    def make_config():
        if config_name == "b3":
            return GraphSDConfig.baseline_b3()
        if config_name == "b4":
            return GraphSDConfig.baseline_b4()
        return GraphSDConfig()

    from dataclasses import replace

    for algo, weighted, name in (
        (PageRank(iterations=4), False, "epr"),
        (SSSP(source=0), True, "esssp"),
    ):
        edges = random_edgelist(rng, 400, 5000, weighted=weighted)
        results = {}
        for encoding in ("raw", "compact"):
            store = build_store(
                edges, tmp_path, P=4,
                name=f"{name}-{encoding}-{pipeline}-{config_name}",
                encoding=encoding,
            )
            cfg = replace(
                make_config(),
                prefetch_depth=2 if pipeline else 0,
            )
            results[encoding] = GraphSDEngine(store, config=cfg).run(algo)
        raw, comp = results["raw"], results["compact"]
        assert np.array_equal(raw.values, comp.values, equal_nan=True)
        assert raw.iterations == comp.iterations
        if config_name != "adaptive":
            # Pinned schedules must replay exactly; adaptive model
            # choices (and FCIU's merged-iteration frontier accounting
            # that follows from them) may legitimately differ.
            assert raw.model_history == comp.model_history
            assert raw.frontier_history == comp.frontier_history
        assert comp.io_traffic < raw.io_traffic  # the point of the encoding
