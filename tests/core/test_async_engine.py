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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import VertexProgram, make_program
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
from repro.utils.bitset import distinct_sorted
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


# -- the chase's relax at ids ------------------------------------------------


@pytest.fixture(scope="module")
def relax_engine(tmp_path_factory):
    """An async engine over a small store with uneven intervals: its
    ``_apply_measured`` is driven directly, with a hand-made state."""
    rng = np.random.default_rng(3)
    edges = random_edgelist(rng, 60, 400, weighted=True)
    store = build_store(edges, tmp_path_factory.mktemp("relax"), P=4, name="relax")
    return AsyncGraphSDEngine(store)


_EDGY = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
    st.floats(allow_nan=False, width=64),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_min_relax_at_ids_equals_the_interval_apply(relax_engine, data):
    """A chase round applies at the destinations its push reached; the
    interval form applies everywhere. Off those ids the accumulator holds
    the identity or what an earlier apply folded in, so both leave the
    same state, activations and residuals, bit for bit, and the same
    charge."""
    engine = relax_engine
    store = engine.store
    algo = data.draw(st.sampled_from(MIN_ALGOS))
    j = data.draw(st.integers(0, store.P - 1))
    lo, hi = store.intervals.bounds(j)
    n = hi - lo
    window = st.lists(_EDGY, min_size=n, max_size=n)
    base = np.array(data.draw(window))
    earlier = np.array(data.draw(st.lists(st.one_of(st.just(np.inf), _EDGY), min_size=n, max_size=n)))
    # Destinations of this round's edges, repeats included, and their
    # contributions (combined by MIN, as the push combines them).
    reached = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.uint32)
    contrib = np.array(data.draw(st.lists(_EDGY, min_size=reached.size, max_size=reached.size)))

    value = np.full(store.num_vertices, 7.0)
    value[lo:hi] = np.minimum(base, earlier)  # the earlier apply folded ``earlier`` in
    acc = np.full(store.num_vertices, np.inf)
    acc[lo:hi] = earlier
    np.minimum.at(acc[lo:hi], reached, contrib)
    residual = np.array(data.draw(st.lists(_EDGY, min_size=store.num_vertices,
                                           max_size=store.num_vertices)))

    program = make_program(algo)
    # The same program applying its whole window for apply_at: the
    # default every program without a relax at ids inherits.
    window_only = type("WindowOnly", (type(program),), {"apply_at": VertexProgram.apply_at})
    ids = distinct_sorted(reached, n)
    outcomes = []
    for form, at in ((program, None), (program, ids), (window_only(), ids)):
        engine.program = form
        engine.state = {"value": value.copy()}
        engine._residual = residual.copy()
        scratch = np.zeros(store.num_vertices, dtype=bool)
        charged = []
        engine.clock.charge = lambda *charge: charged.append(charge)
        try:
            act = engine._apply_measured(j, acc, scratch if at is None else None, ids=at)
        finally:
            del engine.clock.charge
        outcomes.append((engine.state["value"].view(np.uint64), np.asarray(act, dtype=np.int64),
                         engine._residual.view(np.uint64), charged))
    (value0, act0, residual0, charged0), *at_ids = outcomes
    for value1, act1, residual1, charged1 in at_ids:
        assert np.array_equal(value1, value0)
        assert np.array_equal(act1, act0)
        assert np.array_equal(residual1, residual0)
        assert charged1 == charged0
