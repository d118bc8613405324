"""Baseline I/O *policies*: each system's signature traffic pattern."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SSSP
from repro.baselines import (
    GraphChiEngine,
    GridGraphEngine,
    HUSGraphEngine,
    LumosEngine,
    XStreamEngine,
)
from repro.baselines.common import SYSTEM_FEATURES
from repro.baselines.xstream import UPDATE_RECORD_BYTES
from repro.core import GraphSDEngine
from repro.graph import EdgeList
from tests.conftest import build_store, random_edgelist


@pytest.fixture
def edges(rng):
    return random_edgelist(rng, 300, 3000)


def test_feature_matrix_is_table1():
    assert set(SYSTEM_FEATURES) == {
        "graphchi", "xstream", "gridgraph", "husgraph", "lumos", "graphsd",
    }
    # GraphSD is the only system with all three optimizations (Table 1).
    alls = [s for s, f in SYSTEM_FEATURES.items() if all(f.values())]
    assert alls == ["graphsd"]
    assert not SYSTEM_FEATURES["graphchi"]["eliminates_random"]
    assert SYSTEM_FEATURES["husgraph"]["avoids_inactive"]
    assert SYSTEM_FEATURES["lumos"]["future_value"]


def test_xstream_charges_the_update_stream(edges, tmp_path):
    store = build_store(edges, tmp_path, name="xs",
                        indexed=False, sort_within_blocks=False)
    result = XStreamEngine(store).run(PageRank(iterations=1))
    # scatter writes + gather reads of |E| update records on top of the
    # edge scan and the vertex arrays
    stream = edges.num_edges * UPDATE_RECORD_BYTES
    assert result.io.bytes_written >= stream
    assert result.io.bytes_read >= store.total_edge_bytes + stream


def test_graphchi_writes_edge_values_back(edges, tmp_path):
    store = build_store(edges, tmp_path, name="gc",
                        indexed=False, sort_within_blocks=False)
    result = GraphChiEngine(store).run(PageRank(iterations=1))
    # writeback of 4 bytes/edge on top of vertex-array writes
    assert result.io.bytes_written >= edges.num_edges * 4


def test_gridgraph_skips_blocks_without_active_sources(tmp_path):
    # Sources confined to low ids: high source intervals are never read.
    n = 200
    src = np.arange(0, 20).repeat(5)
    dst = (np.arange(100) * 7) % n
    el = EdgeList(n, src, dst, (np.ones(100) * 0.5).astype(np.float32))
    store = build_store(el, tmp_path, P=4, name="gg",
                        indexed=False, sort_within_blocks=False)
    result = GridGraphEngine(store).run(SSSP(source=0))
    full_sweep_edges = store.total_edges * result.iterations
    processed = sum(r.edges_processed for r in result.per_iteration)
    assert processed <= full_sweep_edges  # can never exceed full sweeps


def test_baseline_traffic_ordering_on_frontier_workload(edges, tmp_path):
    """On a frontier algorithm the Table 1 hierarchy shows in traffic:
    GraphSD <= HUS-Graph and Lumos, and X-Stream/GraphChi trail."""
    stores = {
        "graphsd": build_store(edges, tmp_path, name="g1"),
        "husgraph": build_store(edges, tmp_path, name="h1"),
        "lumos": build_store(edges, tmp_path, name="l1",
                             indexed=False, sort_within_blocks=False),
        "graphchi": build_store(edges, tmp_path, name="c1",
                                indexed=False, sort_within_blocks=False),
        "xstream": build_store(edges, tmp_path, name="x1",
                               indexed=False, sort_within_blocks=False),
    }
    t = {}
    t["graphsd"] = GraphSDEngine(stores["graphsd"]).run(SSSP(source=0)).io_traffic
    t["husgraph"] = HUSGraphEngine(stores["husgraph"]).run(SSSP(source=0)).io_traffic
    t["lumos"] = LumosEngine(stores["lumos"]).run(SSSP(source=0)).io_traffic
    t["graphchi"] = GraphChiEngine(stores["graphchi"]).run(SSSP(source=0)).io_traffic
    t["xstream"] = XStreamEngine(stores["xstream"]).run(SSSP(source=0)).io_traffic
    assert t["graphsd"] <= t["husgraph"]
    assert t["graphsd"] < t["lumos"]
    assert t["graphsd"] < t["graphchi"]
    assert t["graphsd"] < t["xstream"]


def test_lumos_pays_future_value_overhead(edges, tmp_path):
    """Lumos's secondary partitions + extra value versions cost real
    traffic relative to an otherwise-identical engine."""
    from repro.core import GraphSDConfig, IOModel

    lumos_store = build_store(edges, tmp_path, name="lv",
                              indexed=False, sort_within_blocks=False)
    plain_store = build_store(edges, tmp_path, name="pv",
                              indexed=False, sort_within_blocks=False)
    lumos = LumosEngine(lumos_store).run(PageRank(iterations=4))
    plain = GraphSDEngine(
        plain_store,
        config=GraphSDConfig(force_model=IOModel.FULL, buffer_bytes=0),
    ).run(PageRank(iterations=4))
    assert np.allclose(lumos.values, plain.values)
    assert lumos.io_traffic > plain.io_traffic


#: (values_sha256 prefix, iterations, edges processed, bytes read,
#: bytes written, read requests, write requests) per baseline × program,
#: recorded before the baselines moved onto the shared column sweep.
SWEEP_GOLDEN = {
    ("graphchi", "pr"): ("7d1bedff2e9dceb2", 3, 9000, 115200, 45600, 51, 16),
    ("graphchi", "sssp"): ("9a386ee00c08497a", 14, 42000, 537600, 204000, 238, 71),
    ("gridgraph", "pr"): ("7d1bedff2e9dceb2", 3, 9000, 115200, 9600, 15, 4),
    ("gridgraph", "sssp"): ("9a386ee00c08497a", 14, 33761, 438732, 36000, 70, 15),
    ("xstream", "pr"): ("7d1bedff2e9dceb2", 3, 9000, 223200, 117600, 27, 16),
    ("xstream", "sssp"): ("9a386ee00c08497a", 14, 42000, 668424, 166824, 126, 71),
}
_SWEEP_ENGINES = {
    "graphchi": GraphChiEngine, "gridgraph": GridGraphEngine, "xstream": XStreamEngine,
}
_SWEEP_PROGRAMS = {"pr": lambda: PageRank(iterations=3), "sssp": lambda: SSSP(source=0)}


@pytest.mark.parametrize("system,program", sorted(SWEEP_GOLDEN))
def test_streaming_baselines_unchanged_through_shared_sweep(edges, tmp_path, system, program):
    """Same values, same traffic, request for request: each policy's
    hooks (block ranges, writeback, update stream) ride the one sweep."""
    store = build_store(edges, tmp_path, name="sw",
                        indexed=False, sort_within_blocks=False)
    result = _SWEEP_ENGINES[system](store).run(_SWEEP_PROGRAMS[program]())
    io = result.io
    assert (
        result.values_sha256()[:16],
        result.iterations,
        sum(r.edges_processed for r in result.per_iteration),
        io.bytes_read_seq,
        io.bytes_written_seq,
        io.read_requests_seq,
        io.write_requests_seq,
    ) == SWEEP_GOLDEN[(system, program)]
    assert io.bytes_read_ran == 0 and io.read_requests_ran == 0
