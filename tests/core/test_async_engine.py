"""Asynchronous priority-driven execution: fixed points, counters, faults.

The async engine's contract is *fixed-point equivalence*, not
per-iteration identity: MIN-combine programs must land on the BSP
reference's final values bit for bit under any pop order, batching, or
I/O configuration; ADD-combine monotonic programs keep the classic round
schedule and must match a synchronous run under the same configuration
exactly. See :mod:`repro.core.async_engine`.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.core import (
    AsyncGraphSDEngine,
    GraphSDConfig,
    GraphSDEngine,
    assert_fixed_point_equivalent,
    fixed_point_diff,
)
from repro.obs import validate_trace_lines
from repro.obs.trace import Tracer
from repro.storage import FaultInjector, FaultPlan, FaultSpec
from repro.storage.blockfile import MAX_IO_RETRIES
from tests.conftest import build_store, random_edgelist

MIN_ALGOS = ("sssp", "sswp", "bfs", "cc")


def _edges_for(algo, rng, nv=300, ne=2500):
    edges = random_edgelist(rng, nv, ne, weighted=True)
    return edges.symmetrized() if algo == "cc" else edges


@pytest.mark.parametrize("algo", MIN_ALGOS)
def test_min_fixed_point_bitwise_equals_bsp(tmp_path, rng, algo):
    edges = _edges_for(algo, rng)
    sync = GraphSDEngine(build_store(edges, tmp_path, name=f"s-{algo}")).run(
        make_program(algo)
    )
    run = AsyncGraphSDEngine(build_store(edges, tmp_path, name=f"a-{algo}")).run(
        make_program(algo)
    )
    assert_fixed_point_equivalent(run, sync)
    assert run.converged
    assert run.sweeps is not None and 0 < run.sweeps <= sync.iterations
    assert run.subblocks_processed > 0
    assert all(rec.model == "async" for rec in run.per_iteration)
    # One IterationRecord per sweep, each carrying its sub-block count.
    assert len(run.per_iteration) == run.sweeps
    assert sum(r.subblocks_processed for r in run.per_iteration) == (
        run.subblocks_processed
    )


def test_add_combine_keeps_the_classic_schedule_bit_exact(tmp_path, rng):
    edges = random_edgelist(rng, 300, 2500)
    sync = GraphSDEngine(build_store(edges, tmp_path, name="s-prd")).run(
        make_program("pagerank_delta")
    )
    engine = AsyncGraphSDEngine(build_store(edges, tmp_path, name="a-prd"))
    run = engine.run(make_program("pagerank_delta"))
    assert_fixed_point_equivalent(run, sync)
    # Delegation is exact: same iteration count, same per-iteration
    # trajectory; the priority ranking is emitted as observation only
    # (nothing gathered or applied by it).
    assert run.iterations == sync.iterations
    assert [r.frontier_size for r in run.per_iteration] == [
        r.frontier_size for r in sync.per_iteration
    ]
    assert engine.priority_decisions
    assert all(
        d.selective_blocks == 0 and d.full_blocks == 0
        for d in engine.priority_decisions
    )


def test_priority_order_composes_with_pipeline_and_lanes(tmp_path, rng):
    """±pipeline x K∈{1,4} all reach the identical MIN fixed point with
    the identical sweep schedule — lanes and prefetch change modeled
    time only."""
    edges = _edges_for("sssp", rng)
    sync = GraphSDEngine(build_store(edges, tmp_path, name="cfg-sync")).run(
        make_program("sssp")
    )
    sweeps = set()
    shas = set()
    for pipeline in (False, True):
        for lanes in (1, 4):
            store = build_store(edges, tmp_path, name=f"cfg-{pipeline}-{lanes}")
            cfg = GraphSDConfig(gather_lanes=lanes, prefetch_depth=2 if pipeline else 0)
            run = AsyncGraphSDEngine(store, config=cfg).run(make_program("sssp"))
            assert_fixed_point_equivalent(run, sync)
            sweeps.add(run.sweeps)
            shas.add(run.values_sha256())
    assert len(sweeps) == 1
    assert len(shas) == 1


def test_priority_decisions_are_recorded_and_scorable(tmp_path, rng):
    edges = _edges_for("sssp", rng)
    engine = AsyncGraphSDEngine(build_store(edges, tmp_path, name="pd"))
    run = engine.run(make_program("sssp"))
    decisions = engine.priority_decisions
    assert decisions
    P = engine.store.P
    seen_sweeps = set()
    for d in decisions:
        assert 1 <= d.sweep <= (run.sweeps or 0)
        assert 0 <= d.interval < P
        assert d.rank >= 1
        assert d.score >= 0.0
        assert d.candidates >= 1
        assert d.pending_vertices >= 1
        assert d.new_activations >= 0
        seen_sweeps.add(d.sweep)
    # Ranks restart at 1 within each sweep and increase without gaps.
    for sweep in seen_sweeps:
        ranks = [d.rank for d in decisions if d.sweep == sweep]
        assert ranks == list(range(1, len(ranks) + 1))


def test_priority_trace_events_validate_against_the_schema(tmp_path, rng):
    edges = _edges_for("sssp", rng)
    engine = AsyncGraphSDEngine(build_store(edges, tmp_path, name="tr"))
    path = tmp_path / "async.jsonl"
    engine.attach_tracer(Tracer(), path=str(path))
    run = engine.run(make_program("sssp"))
    events = validate_trace_lines(path.read_text().splitlines())
    priority = [e for e in events if e.get("type") == "priority"]
    assert len(priority) == len(engine.priority_decisions)
    runs = [e for e in events if e.get("type") == "run"]
    assert runs and runs[-1]["sweeps"] == run.sweeps


def test_unrecoverable_gather_fault_degrades_without_changing_the_fixed_point(
    tmp_path, rng
):
    edges = _edges_for("sssp", rng)
    sync = GraphSDEngine(build_store(edges, tmp_path, name="f-sync")).run(
        make_program("sssp")
    )
    store = build_store(edges, tmp_path, name="fasync")
    engine = AsyncGraphSDEngine(store)
    # Enough consecutive transient read errors on the edge file to
    # exhaust the retry budget mid-gather: the pop must degrade, record
    # the event, and still land on the same fixed point (MIN
    # re-combining is idempotent, no rollback needed). Attached after
    # engine construction so the context-building scan stays clean.
    store.device.disk.injector = FaultInjector(
        FaultPlan(
            specs=(
                FaultSpec("transient-read", "*.edges", count=MAX_IO_RETRIES + 1),
            )
        )
    )
    run = engine.run(make_program("sssp"))
    assert_fixed_point_equivalent(run, sync)
    assert run.fault_events


def test_crash_killed_async_run_resumes_to_the_same_fixed_point(tmp_path, rng):
    """Checkpointed pending/residual state restores across a crash."""
    from repro.storage import SimulatedCrash

    edges = _edges_for("sssp", rng)
    store = build_store(edges, tmp_path, name="crash")
    straight = AsyncGraphSDEngine(store).run(make_program("sssp"))

    store.device.disk.injector = FaultInjector(
        FaultPlan(crash_points={"post-apply": 2})
    )
    with pytest.raises(SimulatedCrash):
        AsyncGraphSDEngine(store).run(make_program("sssp"), checkpoint_tag="t")
    store.device.disk.injector = None

    resumed = AsyncGraphSDEngine(store).run(
        make_program("sssp"), checkpoint_tag="t", resume=True
    )
    assert np.array_equal(straight.values, resumed.values)
    assert resumed.converged
    assert fixed_point_diff(resumed, straight) == []


def test_run_summary_reports_sweeps(tmp_path, rng):
    edges = _edges_for("cc", rng, nv=150, ne=1000)
    run = AsyncGraphSDEngine(build_store(edges, tmp_path, name="sum")).run(
        make_program("cc")
    )
    assert f"({run.sweeps} sweeps)" in run.summary()
    assert run.to_dict()["sweeps"] == run.sweeps
