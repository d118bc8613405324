"""I/O conservation laws: charged bytes match what the algorithms touch.

These invariants tie the three layers together: the engine's logical
access pattern, the store's file reads, and the disk's byte accounting
must agree exactly — no silent over- or under-charging.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank, SSSP
from repro.core import GraphSDConfig, GraphSDEngine, IOModel
from repro.graph.grid import INDEX_DTYPE
from tests.conftest import build_store, random_edgelist


@pytest.fixture
def edges(rng):
    return random_edgelist(rng, 400, 5000)


def test_full_iteration_reads_exactly_the_edge_file_plus_state(edges, tmp_path):
    """A plain full iteration reads |E|(M+W) edge bytes + |V|N values."""
    store = build_store(edges, tmp_path, P=4, name="cons")
    engine = GraphSDEngine(
        store,
        config=GraphSDConfig(
            enable_cross_iteration=False,
            buffer_bytes=0,
            force_model=IOModel.FULL,
        ),
    )
    result = engine.run(SSSP(source=0))
    n_state = store.num_vertices * 8  # one float64 value array
    # (The per-round state *load* happens before the iteration record's
    # snapshot window; it is covered by the run-total test below.)
    for rec in result.per_iteration:
        assert rec.io.bytes_read == store.total_edge_bytes
        assert rec.io.bytes_written == n_state


@pytest.mark.parametrize("encoding", ["raw", "compact3"])
def test_context_scan_reads_exactly_the_edge_file(edges, tmp_path, encoding):
    """An engine built without the graph's provenance derives its
    context from one charged scan: exactly the edge file's bytes."""
    store = build_store(edges, tmp_path, P=4, name=f"ctx-{encoding}", encoding=encoding)
    store.device.disk.reset()
    GraphSDEngine(store)
    stats = store.device.disk.stats
    assert stats.bytes_read == stats.bytes_read_seq == store.total_edge_bytes


def test_sciu_iteration_reads_exactly_active_edges(edges, tmp_path):
    """On-demand edge bytes equal the frontier's out-degree mass times
    the record size (plus index and state bytes, bounded separately)."""
    store = build_store(edges, tmp_path, P=4, name="sel")
    degrees = np.bincount(store.read_all_sources(), minlength=store.num_vertices)
    store.device.disk.reset()
    engine = GraphSDEngine(store, config=GraphSDConfig.baseline_b4())
    result = engine.run(SSSP(source=0))

    # Reconstruct each iteration's frontier from the trace.
    for rec in result.per_iteration:
        assert rec.model == "sciu"
        edge_bytes = rec.edges_processed * store.adjacency_bytes_per_edge
        index_bound = (store.num_vertices + store.P) * INDEX_DTYPE.itemsize * store.P
        total_read = rec.io.bytes_read
        # reads = active edges + (some) index bytes, never more
        assert total_read >= edge_bytes
        assert total_read <= edge_bytes + index_bound


def test_edges_processed_equals_frontier_degree_mass(edges, tmp_path):
    store = build_store(edges, tmp_path, P=4, name="mass")
    degrees = np.bincount(store.read_all_sources(), minlength=store.num_vertices)
    engine = GraphSDEngine(store, config=GraphSDConfig.baseline_b4())
    result = engine.run(SSSP(source=0))
    # iteration k's frontier is recoverable: frontier_size and
    # edges_processed must satisfy sum-of-degrees consistency for the
    # first iteration (frontier = {0}).
    first = result.per_iteration[0]
    assert first.frontier_size == 1
    assert first.edges_processed == int(degrees[0])


def test_run_totals_equal_sum_of_iterations_plus_setup(edges, tmp_path):
    store = build_store(edges, tmp_path, P=4, name="sum")
    engine = GraphSDEngine(store)
    result = engine.run(PageRank(iterations=4))
    per_iter_traffic = sum(r.io.total_traffic for r in result.per_iteration)
    # run total = iterations + initial state store + per-round state loads
    assert result.io_traffic >= per_iter_traffic
    slack = result.io_traffic - per_iter_traffic
    n_state = store.num_vertices * 8
    rounds = sum(1 for r in result.per_iteration if r.model in ("fciu", "full", "sciu"))
    assert slack <= n_state * (1 + rounds)


def test_io_time_is_consistent_with_bandwidth_model(edges, tmp_path):
    """Charged io seconds >= bytes / fastest bandwidth (a lower bound)."""
    store = build_store(edges, tmp_path, P=4, name="bw")
    engine = GraphSDEngine(store)
    result = engine.run(SSSP(source=0))
    profile = engine.machine.disk
    fastest = max(profile.seq_read_bw, profile.seq_write_bw)
    assert result.breakdown.io >= result.io_traffic / fastest
