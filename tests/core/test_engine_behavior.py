"""Engine behaviour: access patterns, buffering effects, cross-iteration
savings, scheduling bookkeeping — the mechanisms behind §4 and §5.4."""

import numpy as np
import pytest

from repro.algorithms import ConnectedComponents, PageRank, PageRankDelta, SSSP
from repro.core import GraphSDConfig, GraphSDEngine, IOModel
from repro.graph import EdgeList
from tests.conftest import build_store, random_edgelist


@pytest.fixture
def edges(rng):
    return random_edgelist(rng, 400, 4000)


def run(edges, tmp_path, program, config=None, name="g", P=4):
    store = build_store(edges, tmp_path, P=P, name=name)
    engine = GraphSDEngine(store, config=config)
    return engine.run(program), engine


def test_fciu_phase2_reads_only_secondary_blocks(edges, tmp_path):
    """The 2nd iteration of an FCIU round reads the lower triangle only."""
    result, engine = run(
        edges, tmp_path, PageRank(iterations=4), GraphSDConfig.no_buffering()
    )
    store = engine.store
    full_edges = store.total_edges
    lower_edges = sum(
        store.block_edge_count(i, j)
        for j in range(store.P)
        for i in range(j + 1, store.P)
    )
    phase1 = [r for r in result.per_iteration if r.model == "fciu"]
    phase2 = [r for r in result.per_iteration if r.model == "fciu2"]
    assert phase1 and phase2
    for r in phase1:
        assert r.edges_processed == full_edges
    for r in phase2:
        assert r.edges_processed == lower_edges
    assert lower_edges < full_edges


def test_cross_iteration_reduces_pagerank_traffic(edges, tmp_path):
    with_cross, _ = run(edges, tmp_path, PageRank(iterations=6),
                        GraphSDConfig.no_buffering(), name="c")
    without, _ = run(edges, tmp_path, PageRank(iterations=6),
                     GraphSDConfig.baseline_b1(), name="n")
    assert np.allclose(with_cross.values, without.values)
    assert with_cross.io_traffic < without.io_traffic
    assert with_cross.sim_seconds < without.sim_seconds


def test_buffering_reduces_fciu_traffic(edges, tmp_path):
    # A generous buffer turns every phase-2 read into a hit.
    big_buffer = GraphSDConfig(buffer_bytes=1 << 30)
    buffered, eng = run(edges, tmp_path, PageRank(iterations=6), big_buffer, name="b")
    unbuffered, _ = run(edges, tmp_path, PageRank(iterations=6),
                        GraphSDConfig.no_buffering(), name="u")
    assert np.allclose(buffered.values, unbuffered.values)
    assert buffered.io_traffic < unbuffered.io_traffic
    assert buffered.io.cache_hits > 0
    assert eng.buffer.insertions > 0


def test_buffer_budget_defaults_to_five_percent(edges, tmp_path):
    _, engine = run(edges, tmp_path, PageRank(iterations=2), name="pct")
    assert engine.buffer.capacity_bytes == int(0.05 * engine.store.total_edge_bytes)


def test_sciu_loads_scale_with_frontier(rng, tmp_path):
    """On-demand iterations read bytes proportional to active edges,
    far below a full sweep."""
    edges = random_edgelist(rng, 500, 8000)
    store = build_store(edges, tmp_path, P=4, name="sc")
    engine = GraphSDEngine(store, config=GraphSDConfig.baseline_b4())
    result = engine.run(SSSP(source=0))
    full_bytes = store.total_edge_bytes
    for rec in result.per_iteration:
        assert rec.model == "sciu"
        if rec.frontier_size <= 3:
            assert rec.io_bytes < full_bytes / 4


def test_model_selection_matches_cost_estimates(edges, tmp_path):
    result, engine = run(edges, tmp_path, SSSP(source=0), name="est")
    # one estimate per adaptive decision, each internally consistent
    assert engine.cost_estimates
    for est in engine.cost_estimates:
        if est.chosen is IOModel.ON_DEMAND:
            assert est.c_on_demand <= est.c_full
        else:
            assert est.c_on_demand > est.c_full


def test_all_active_programs_skip_the_scheduler(edges, tmp_path):
    result, engine = run(edges, tmp_path, PageRank(iterations=4), name="skip")
    assert engine.cost_estimates == []  # PR pinned to the full model
    assert result.breakdown.scheduling == 0.0


def test_adaptive_runs_charge_scheduling_time(edges, tmp_path):
    result, engine = run(edges, tmp_path, SSSP(source=0), name="sched")
    assert result.breakdown.scheduling > 0
    assert engine.scheduler.evaluations == len(engine.cost_estimates)


def test_sciu_cross_push_removes_vertices_from_frontier(tmp_path):
    """A 2-cycle re-activates both vertices every iteration; under SCIU
    they are cross-pushed and the next frontier load is skipped."""
    edges = EdgeList(
        4, [0, 1, 2], [1, 0, 3], np.array([1, 1, 1], dtype=np.float32)
    )
    store = build_store(edges, tmp_path, P=2, name="cycle")
    engine = GraphSDEngine(store, config=GraphSDConfig.baseline_b4())
    result = engine.run(PageRankDelta(tol=0.0, iterations=8))
    cross = [r.cross_pushed for r in result.per_iteration]
    assert sum(cross) > 0


def test_selective_requires_indexed_store(rng, tmp_path):
    edges = random_edgelist(rng, 50, 300)
    store = build_store(edges, tmp_path, indexed=False, name="noidx")
    with pytest.raises(RuntimeError):
        GraphSDEngine(store)  # default config wants selective access
    # but a full-only configuration is fine
    engine = GraphSDEngine(store, config=GraphSDConfig.baseline_b3())
    result = engine.run(ConnectedComponents())
    assert result.converged


def test_weighted_program_on_unweighted_store_rejected(rng, tmp_path):
    edges = random_edgelist(rng, 50, 300, weighted=False)
    store = build_store(edges, tmp_path, name="unw")
    with pytest.raises(ValueError, match="weighted"):
        GraphSDEngine(store).run(SSSP(source=0))


def test_iteration_cap_respected(edges, tmp_path):
    result, _ = run(edges, tmp_path, ConnectedComponents(), name="cap")
    capped_store = build_store(edges, tmp_path, name="cap2")
    capped = GraphSDEngine(capped_store).run(ConnectedComponents(), max_iterations=2)
    assert capped.iterations == 2
    assert not capped.converged
    assert result.iterations > 2


def test_run_result_record_consistency(edges, tmp_path):
    result, _ = run(edges, tmp_path, SSSP(source=0), name="rec")
    assert len(result.per_iteration) == result.iterations
    assert [r.iteration for r in result.per_iteration] == list(
        range(1, result.iterations + 1)
    )
    # component times sum to the total
    total = sum(r.sim_seconds for r in result.per_iteration)
    assert total <= result.sim_seconds + 1e-9
    assert result.io_traffic >= sum(r.io_bytes for r in result.per_iteration)


def test_engine_reusable_for_multiple_runs(edges, tmp_path):
    store = build_store(edges, tmp_path, name="reuse")
    engine = GraphSDEngine(store)
    a = engine.run(PageRank(iterations=3))
    b = engine.run(PageRank(iterations=3))
    assert np.allclose(a.values, b.values)
    assert a.iterations == b.iterations
    # per-run accounting is snapshot-based, so totals match
    assert a.io_traffic == b.io_traffic


@pytest.mark.parametrize(
    "make_program, config",
    [
        (lambda: SSSP(source=0), None),  # SCIU rounds
        (lambda: PageRank(iterations=5), GraphSDConfig(pipelined=True)),  # FCIU, overlap
    ],
    ids=["sssp", "pagerank-pipelined"],
)
def test_reused_engine_reports_a_fresh_engines_simulated_time(edges, tmp_path, make_program, config):
    """A run's breakdowns do not depend on what the clock charged before:
    two runs on one engine report the same bits as a fresh engine's first."""
    engine = GraphSDEngine(build_store(edges, tmp_path, name="reused"), config=config)
    first, second = engine.run(make_program()), engine.run(make_program())
    fresh = GraphSDEngine(build_store(edges, tmp_path, name="fresh"), config=config).run(make_program())
    for result in (first, second):
        assert result.sim_seconds == fresh.sim_seconds
        assert result.breakdown.components == fresh.breakdown.components
        assert [r.breakdown.components for r in result.per_iteration] == [
            r.breakdown.components for r in fresh.per_iteration
        ]
        assert [r.sim_seconds for r in result.per_iteration] == [
            r.sim_seconds for r in fresh.per_iteration
        ]
