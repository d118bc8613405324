"""Format 3 (compact3): per-block dst widths + narrowed index columns.

Compact3 must be invisible above the decoder — every load path returns
blocks bit-identical to both the raw and format-2 compact layouts —
while strictly shrinking the ``.idx`` metadata the selective path reads
(docs/STORAGE.md).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GridStore
from repro.graph.grid import (
    ENCODING_COMPACT3,
    FORMAT_COMPACT3,
    GridFormatError,
    INDEX_DTYPE,
)
from tests.conftest import build_store, random_edgelist
from tests.graph.test_grid_compact import assert_blocks_equal


def build_trio(edges, tmp_path, P=4, name="c3"):
    """The same edge list as raw, compact, and compact3 stores."""
    return tuple(
        build_store(edges, tmp_path, P=P, name=f"{name}-{enc}", encoding=enc)
        for enc in ("raw", "compact", "compact3")
    )


# -- decode equivalence ----------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    m=st.integers(min_value=0, max_value=500),
    P=st.integers(min_value=1, max_value=6),
    weighted=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_roundtrip_matches_raw_bit_exactly(tmp_path_factory, n, m, P, weighted, seed):
    rng = np.random.default_rng(seed)
    P = min(P, n)
    edges = random_edgelist(rng, n, m, weighted=weighted)
    tmp_path = tmp_path_factory.mktemp("c3roundtrip")
    raw = build_store(edges, tmp_path, P=P, name="raw")
    c3 = build_store(edges, tmp_path, P=P, name="c3", encoding="compact3")
    c3.validate()
    for (i, j) in raw.iter_blocks_dst_major():
        assert_blocks_equal(raw.load_block(i, j), c3.load_block(i, j))
    for j in range(P):
        for a, b in zip(raw.load_column(j), c3.load_column(j)):
            assert_blocks_equal(a.decode(), b.decode())
    assert np.array_equal(raw.read_all_sources(), c3.read_all_sources())


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=150),
    m=st.integers(min_value=1, max_value=600),
    P=st.integers(min_value=1, max_value=4),
    weighted=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_selective_loads_match_compact(tmp_path_factory, n, m, P, weighted, seed):
    """Narrowed index columns decode to the exact same int64 offsets, so
    every selective load path agrees with format 2 bit-for-bit."""
    rng = np.random.default_rng(seed)
    P = min(P, n)
    edges = random_edgelist(rng, n, m, weighted=weighted)
    tmp_path = tmp_path_factory.mktemp("c3selective")
    c2 = build_store(edges, tmp_path, P=P, name="c2", encoding="compact")
    c3 = build_store(edges, tmp_path, P=P, name="c3", encoding="compact3")
    iv = c2.intervals
    actives = np.unique(rng.integers(0, n, max(1, n // 3)))
    for i in range(P):
        lo, hi = iv.bounds(i)
        ids = actives[(actives >= lo) & (actives < hi)].astype(np.int64)
        if ids.size == 0:
            continue
        for j in range(P):
            idx2 = c2.read_block_index(i, j)
            idx3 = c3.read_block_index(i, j)
            assert np.array_equal(idx2, idx3)
            assert idx3.dtype == INDEX_DTYPE  # widened on read
            pairs2 = c2.read_index_entries(i, j, ids - lo)
            pairs3 = c3.read_index_entries(i, j, ids - lo)
            assert np.array_equal(pairs2, pairs3)
            a = c2.load_active_edges(i, j, ids, pairs2, seq_threshold_bytes=64)
            b = c3.load_active_edges(i, j, ids, pairs3, seq_threshold_bytes=64)
            assert_blocks_equal(a, b)


def test_index_span_matches_compact(rng, tmp_path):
    edges = random_edgelist(rng, 200, 2000)
    c2 = build_store(edges, tmp_path, P=4, name="sp2", encoding="compact")
    c3 = build_store(edges, tmp_path, P=4, name="sp3", encoding="compact3")
    for (i, j) in c2.iter_blocks_dst_major():
        size = c2.intervals.size(i)
        assert np.array_equal(
            c2.read_index_span(i, j, 0, size),
            c3.read_index_span(i, j, 0, size),
        )


# -- byte model ------------------------------------------------------------


def test_index_bytes_shrink_at_least_2x(rng, tmp_path):
    """The headline: small blocks -> uint8/16 offsets vs flat int64."""
    edges = random_edgelist(rng, 2000, 30000, weighted=False)
    _raw, c2, c3 = build_trio(edges, tmp_path, P=8, name="idx")
    assert c2.index_total_bytes == c2.P * (c2.num_vertices + c2.P) * INDEX_DTYPE.itemsize
    assert c2.index_total_bytes / c3.index_total_bytes >= 2.0
    # Payload also shrinks (per-block dst widths <= per-column widths).
    assert c3.total_edge_bytes <= c2.total_edge_bytes


def test_index_entry_bytes_per_row(rng, tmp_path):
    edges = random_edgelist(rng, 300, 3000)
    raw, c2, c3 = build_trio(edges, tmp_path, P=4, name="rowbytes")
    for i in range(4):
        assert raw.index_entry_bytes(i) == INDEX_DTYPE.itemsize
        assert c2.index_entry_bytes(i) == INDEX_DTYPE.itemsize
        width = c3.index_entry_bytes(i)
        assert 1 <= width <= INDEX_DTYPE.itemsize
        # The row max over the per-block codes, exactly.
        assert width == int(c3._idx_codes[i, :].max())


def test_charged_index_read_bytes_shrink(rng, tmp_path):
    """The simulated disk is charged for the narrowed entries."""
    edges = random_edgelist(rng, 500, 6000, weighted=False)
    _raw, c2, c3 = build_trio(edges, tmp_path, P=4, name="charge")

    def charged(store):
        stats = store.device.disk.stats
        before = stats.bytes_read_seq + stats.bytes_read_ran
        store.read_block_index(0, 0)
        return stats.bytes_read_seq + stats.bytes_read_ran - before

    assert charged(c3) < charged(c2)


# -- format versioning -----------------------------------------------------


def test_open_reconstructs_compact3_store(rng, tmp_path):
    edges = random_edgelist(rng, 150, 1500, weighted=True)
    c3 = build_store(edges, tmp_path, P=3, name="reopen", encoding="compact3")
    meta = json.loads((c3.device.root / "reopen.meta.json").read_text())
    assert meta["format"] == FORMAT_COMPACT3
    reopened = GridStore.open(c3.device, "reopen")
    assert reopened.encoding == ENCODING_COMPACT3
    assert np.array_equal(reopened._dst_codes, c3._dst_codes)
    assert np.array_equal(reopened._idx_codes, c3._idx_codes)
    for (i, j) in c3.iter_blocks_dst_major():
        assert_blocks_equal(c3.load_block(i, j), reopened.load_block(i, j))


def test_compact3_meta_missing_dst_codes_fails_readably(rng, tmp_path):
    edges = random_edgelist(rng, 50, 200)
    store = build_store(edges, tmp_path, P=2, name="nodst", encoding="compact3")
    meta_path = store.device.root / "nodst.meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["dst_dtype_codes"]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="dst_dtype_codes"):
        GridStore.open(store.device, "nodst")


def test_format2_build_rejects_compact3_meta(rng, tmp_path):
    """A compact3 grid is unreadable by a format-2-only reader: the
    format integer alone must gate it (never garbage-decode)."""
    edges = random_edgelist(rng, 50, 200)
    store = build_store(edges, tmp_path, P=2, name="gate", encoding="compact3")
    meta_path = store.device.root / "gate.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format"] = 99  # a reader without compact3 sees exactly this shape
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(GridFormatError, match="format 99.*supported formats"):
        GridStore.open(store.device, "gate")


def test_compact3_requires_sorted_indexed_build(rng, tmp_path):
    edges = random_edgelist(rng, 50, 200)
    with pytest.raises(ValueError, match="compact encoding requires"):
        build_store(
            edges, tmp_path, P=2, name="bad", encoding="compact3",
            sort_within_blocks=False,
        )


# -- engines on compact3 stores --------------------------------------------


@pytest.mark.parametrize("config_name", ["adaptive", "b4"])
def test_engine_results_identical_compact_vs_compact3(rng, tmp_path, config_name):
    """Between the two compact formats even the *decoded byte counts*
    only shrink; values and iteration counts must be identical."""
    from repro.algorithms import PageRankDelta, SSSP
    from repro.core import GraphSDConfig, GraphSDEngine

    make_config = (
        GraphSDConfig.baseline_b4 if config_name == "b4" else GraphSDConfig
    )
    for algo, weighted, name in (
        (PageRankDelta(iterations=8), False, "eprd"),
        (SSSP(source=0), True, "esssp"),
    ):
        edges = random_edgelist(rng, 400, 5000, weighted=weighted)
        results = {}
        for encoding in ("compact", "compact3"):
            store = build_store(
                edges, tmp_path, P=4,
                name=f"{name}-{encoding}-{config_name}", encoding=encoding,
            )
            results[encoding] = GraphSDEngine(store, config=make_config()).run(algo)
        c2, c3 = results["compact"], results["compact3"]
        assert np.array_equal(c2.values, c3.values, equal_nan=True)
        assert c2.iterations == c3.iterations
        assert c3.io_traffic <= c2.io_traffic
        if config_name == "b4":
            assert c2.model_history == c3.model_history
            # SCIU every round -> index entries read every round, and
            # compact3 narrows those from 8 bytes: strictly less traffic.
            assert c3.io_traffic < c2.io_traffic
