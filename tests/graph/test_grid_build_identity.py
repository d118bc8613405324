"""GridStore.build writes the bytes the original multi-pass build wrote.

The reference below keeps the *old* construction — ``np.lexsort`` over
``(block key, src, dst)``, then one ``searchsorted`` / ``bincount`` pass
per sub-block — and every file the build leaves behind (``.edges``,
``.idx``, ``.meta.json``) must match it byte for byte, on the packed-key
fast path and on the lexsort fallback alike.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.grid as grid
from repro.datasets.rmat import SOCIAL, rmat_edges
from repro.graph import EdgeList, GridStore, make_intervals
from repro.graph.partition import VertexIntervals
from repro.storage import Device

PREFIX = "g"
FORMATS = {"raw": 1, "compact": 2, "compact3": 3}


def _uint(max_value):
    return np.dtype("<u1" if max_value < 1 << 8 else "<u2" if max_value < 1 << 16 else "<u4")


def reference_files(edges, intervals, encoding, sort_within_blocks):
    """``{file name: bytes}`` as the pre-sort-once build produced them."""
    P, b = intervals.P, intervals.boundaries
    i_of = np.searchsorted(b, edges.src, side="right") - 1
    j_of = np.searchsorted(b, edges.dst, side="right") - 1
    key = j_of * P + i_of
    if sort_within_blocks:
        perm = np.lexsort((edges.dst, edges.src, key))
    else:
        perm = np.argsort(key, kind="stable")
    src, dst = edges.src[perm].astype(np.int64), edges.dst[perm].astype(np.int64)
    wgt = edges.weights[perm] if edges.has_weights else None
    weight_field = [("wgt", "<f4")] if edges.has_weights else []
    block_counts = np.bincount(key, minlength=P * P).reshape(P, P).T

    count_codes = np.zeros((P, P), dtype=np.int64)
    dst_codes = np.ones((P, P), dtype=np.int64)
    edge_parts, idx_parts = [], []
    pos = 0
    for j in range(P):
        for i in range(P):
            cnt = int(block_counts[i, j])
            block = slice(pos, pos + cnt)
            pos += cnt
            lo_i, hi_i, lo_j, hi_j = b[i], b[i + 1], b[j], b[j + 1]
            if sort_within_blocks:
                offsets = np.searchsorted(src[block], np.arange(lo_i, hi_i + 1))
                idx_dtype = _uint(cnt) if encoding == "compact3" else np.dtype("<i8")
                idx_parts.append(offsets.astype(idx_dtype).tobytes())
            if encoding == "raw":
                records = np.empty(cnt, dtype=[("src", "<u4"), ("dst", "<u4")] + weight_field)
                records["src"] = src[block]
            elif cnt == 0:
                continue
            else:
                runs = np.bincount(src[block] - lo_i, minlength=hi_i - lo_i)
                count_codes[i, j] = _uint(runs.max()).itemsize
                dst_codes[i, j] = _uint(dst[block].max() - lo_j).itemsize
                edge_parts.append(runs.astype(_uint(runs.max())).tobytes())
                dst_dtype = (
                    _uint(dst[block].max() - lo_j)
                    if encoding == "compact3"
                    else _uint(max(0, hi_j - lo_j - 1))
                )
                records = np.empty(cnt, dtype=[("dst", dst_dtype)] + weight_field)
            records["dst"] = dst[block] - (0 if encoding == "raw" else lo_j)
            if edges.has_weights:
                records["wgt"] = wgt[block]
            edge_parts.append(records.tobytes())

    meta = {
        "prefix": PREFIX,
        "format": FORMATS[encoding],
        "encoding": encoding,
        "boundaries": b.tolist(),
        "block_counts": block_counts.tolist(),
        "has_weights": edges.has_weights,
        "indexed": sort_within_blocks,
    }
    if encoding != "raw":
        meta["count_dtype_codes"] = count_codes.tolist()
    if encoding == "compact3":
        meta["dst_dtype_codes"] = dst_codes.tolist()
    files = {f"{PREFIX}.edges": b"".join(edge_parts), f"{PREFIX}.meta.json": json.dumps(meta).encode()}
    if sort_within_blocks:
        files[f"{PREFIX}.idx"] = b"".join(idx_parts)
    return files


def built_files(edges, intervals, root, encoding, sort_within_blocks):
    store = GridStore.build(
        edges, intervals, Device(root), prefix=PREFIX,
        indexed=sort_within_blocks, sort_within_blocks=sort_within_blocks,
        encoding=encoding,
    )
    assert np.array_equal(
        store.out_degrees, np.bincount(edges.src, minlength=edges.num_vertices)
    )
    return {p.name: p.read_bytes() for p in root.iterdir() if p.name.startswith(f"{PREFIX}.")}


def with_duplicates(edges, rng, weighted):
    """``edges`` plus repeats of some of its pairs (under fresh weights)."""
    again = rng.integers(0, edges.num_edges, edges.num_edges // 4)
    src = np.concatenate([edges.src, edges.src[again]])
    dst = np.concatenate([edges.dst, edges.dst[again]])
    weights = rng.random(src.shape[0]).astype(np.float32) if weighted else None
    return EdgeList(edges.num_vertices, src, dst, weights)


def star(weighted):
    """One huge-degree vertex: edge-balanced boundaries repeat (empty intervals)."""
    hub = np.full(400, 3)
    src = np.concatenate([hub, np.arange(40)])
    dst = np.concatenate([np.arange(400) % 40, hub[:40]])
    weights = np.linspace(0.0, 1.0, src.shape[0], dtype=np.float32) if weighted else None
    return EdgeList(40, src, dst, weights)


def graphs(weighted):
    rng = np.random.default_rng(7)
    rmat = with_duplicates(rmat_edges(9, 6, SOCIAL, seed=3), rng, weighted)
    sparse = with_duplicates(rmat_edges(6, 0.5, SOCIAL, seed=4), rng, weighted)
    empty = EdgeList(17, [], [], np.empty(0, dtype=np.float32) if weighted else None)
    hub = star(weighted)
    return [
        ("rmat-P4", rmat, make_intervals(rmat, 4)),
        ("rmat-P1", rmat, make_intervals(rmat, 1)),
        ("rmat-even-P5", rmat, make_intervals(rmat, 5, mode="balanced_vertices")),
        ("empty-blocks-P7", sparse, make_intervals(sparse, 7)),
        ("empty-intervals-P6", hub, make_intervals(hub, 6)),
        ("zero-edges-P3", empty, make_intervals(empty, 3)),
    ]


#: (encoding, sort_within_blocks): compact layouts need the sorted grid.
LAYOUTS = [("raw", True), ("raw", False), ("compact", True), ("compact3", True)]


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("encoding,sort_within_blocks", LAYOUTS)
def test_build_matches_reference_bytes(tmp_path, monkeypatch, encoding, sort_within_blocks, weighted):
    cases = graphs(weighted)
    assert len(np.unique(cases[4][2].boundaries)) < 7  # the hub did empty an interval
    assert (np.bincount(cases[0][1].src * 512 + cases[0][1].dst) > 1).any()
    expected = [
        reference_files(edges, intervals, encoding, sort_within_blocks)
        for _name, edges, intervals in cases
    ]
    # Inputs this small fit the packed key: the fallback must not run.
    monkeypatch.setattr(np, "lexsort", None)
    for (name, edges, intervals), want in zip(cases, expected):
        got = built_files(edges, intervals, tmp_path / name, encoding, sort_within_blocks)
        assert got.keys() == want.keys(), name
        for file_name in want:
            assert got[file_name] == want[file_name], (name, file_name)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("encoding", ["raw", "compact", "compact3"])
def test_key_width_fallback_writes_the_same_bytes(tmp_path, monkeypatch, encoding, weighted):
    cases = graphs(weighted)
    fast = [
        built_files(edges, intervals, tmp_path / f"fast-{name}", encoding, True)
        for name, edges, intervals in cases
    ]
    for (name, edges, intervals), got in zip(cases, fast):
        assert got == reference_files(edges, intervals, encoding, True), name
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    monkeypatch.setattr(grid, "_KEY_BITS", 0)  # no key fits: every build falls back
    for (name, edges, intervals), want in zip(cases, fast):
        got = built_files(edges, intervals, tmp_path / f"slow-{name}", encoding, True)
        assert got == want, name
    assert len(calls) == len(cases)


def test_vertex_ids_beyond_uint32_are_refused(tmp_path):
    edges = EdgeList(1 << 33, [0], [1])
    intervals = VertexIntervals(np.array([0, 1 << 33]))
    with pytest.raises(ValueError, match="uint32"):
        GridStore.build(edges, intervals, Device(tmp_path))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    m=st.integers(min_value=0, max_value=300),
    P=st.integers(min_value=1, max_value=6),
    layout=st.sampled_from(LAYOUTS),
    weighted=st.booleans(),
    mode=st.sampled_from(["balanced_edges", "balanced_vertices"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_edge_lists_match_reference_bytes(
    tmp_path_factory, n, m, P, layout, weighted, mode, seed
):
    rng = np.random.default_rng(seed)
    # Few distinct ids and few distinct weights: many tied sort keys.
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    weights = rng.integers(0, 4, m).astype(np.float32) if weighted else None
    edges = EdgeList(n, src, dst, weights)
    intervals = make_intervals(edges, P, mode=mode)
    root = tmp_path_factory.mktemp("grid")
    assert built_files(edges, intervals, root, *layout) == reference_files(
        edges, intervals, *layout
    )
