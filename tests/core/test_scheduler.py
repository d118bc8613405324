"""State-aware scheduler: cost formulas, index planning, model selection."""

import numpy as np
import pytest

from repro.core.scheduler import INDEX_GATHER, INDEX_SPAN, IOModel, StateAwareScheduler
from repro.graph.grid import INDEX_DTYPE
from repro.storage.disk import MachineProfile, HDD_PROFILE
from repro.utils.bitset import VertexSubset
from tests.conftest import build_store, random_edgelist


@pytest.fixture
def store(rng, tmp_path):
    return build_store(random_edgelist(rng, 400, 6000, weighted=False), tmp_path, P=4)


@pytest.fixture
def scheduler(store, rng):
    el_degrees = np.bincount(store.read_all_sources(), minlength=store.num_vertices)
    store.device.disk.reset()
    return StateAwareScheduler(
        store,
        el_degrees.astype(np.int64),
        MachineProfile(disk=HDD_PROFILE),
        value_bytes_per_vertex=8,
    )


def test_full_cost_matches_paper_formula_plus_compute(store, scheduler):
    disk = HDD_PROFILE
    machine = scheduler.machine
    vertex_bytes = store.num_vertices * 8
    expected = (
        disk.seq_read_time(vertex_bytes + store.total_edge_bytes, requests=1 + store.P)
        + disk.seq_write_time(vertex_bytes, requests=1)
        + machine.edge_compute_time(store.total_edges)
        + machine.vertex_compute_time(store.num_vertices)
    )
    assert scheduler.full_cost() == pytest.approx(expected)


def test_full_cost_independent_of_frontier(scheduler):
    assert scheduler.full_cost() == pytest.approx(scheduler.full_cost())


def test_on_demand_cost_zero_frontier_is_value_io_plus_apply(store, scheduler):
    empty = VertexSubset(store.num_vertices)
    cost, s_seq, s_ran, idx = scheduler.on_demand_cost(empty)
    vertex_bytes = store.num_vertices * 8
    expected = (
        HDD_PROFILE.seq_read_time(vertex_bytes)
        + HDD_PROFILE.seq_write_time(vertex_bytes)
        + scheduler.machine.vertex_compute_time(store.num_vertices)
    )
    assert cost == pytest.approx(expected)
    assert s_seq == s_ran == 0.0


def test_on_demand_cost_grows_with_frontier(store, scheduler):
    costs = []
    for k in (1, 16, 128, store.num_vertices):
        frontier = VertexSubset.from_indices(
            store.num_vertices, np.arange(0, store.num_vertices, store.num_vertices // k)[:k]
        )
        costs.append(scheduler.on_demand_cost(frontier)[0])
    assert costs == sorted(costs)


def test_selection_small_frontier_on_demand_large_full(store, scheduler):
    tiny = VertexSubset.from_indices(store.num_vertices, [0, 1])
    est = scheduler.select(tiny)
    assert est.chosen is IOModel.ON_DEMAND
    assert est.c_on_demand <= est.c_full

    full = VertexSubset.full(store.num_vertices)
    est2 = scheduler.select(full)
    assert est2.chosen is IOModel.FULL
    assert est2.c_on_demand > est2.c_full


def test_selection_accounts_evaluation_time(store, scheduler):
    assert scheduler.evaluations == 0
    scheduler.select(VertexSubset.from_indices(store.num_vertices, [0]))
    assert scheduler.evaluations == 1
    assert scheduler.eval_seconds > 0


def test_estimate_reports_active_stats(store, scheduler):
    frontier = VertexSubset.from_indices(store.num_vertices, [0, 5, 9])
    est = scheduler.select(frontier)
    assert est.active_vertices == 3
    assert est.active_edges == int(scheduler.out_degrees[[0, 5, 9]].sum())
    assert est.predicted_saving >= 0


def test_contiguous_actives_classified_sequential(store):
    """A dense run of active ids should produce mostly S_seq bytes.

    Uses a run threshold proportionate to the test graph (the default
    64 KiB is sized for the dataset proxies).
    """
    degrees = np.bincount(store.read_all_sources(), minlength=store.num_vertices)
    sched = StateAwareScheduler(
        store,
        degrees.astype(np.int64),
        MachineProfile(disk=HDD_PROFILE),
        value_bytes_per_vertex=8,
        seq_run_threshold_bytes=2048,
    )
    n = store.num_vertices
    run = VertexSubset.from_indices(n, np.arange(0, n // 2))
    _, s_seq, s_ran, _ = sched.on_demand_cost(run)
    assert s_seq > s_ran

    scattered = VertexSubset.from_indices(n, np.arange(0, n, 13))
    _, s_seq2, s_ran2, _ = sched.on_demand_cost(scattered)
    assert s_ran2 > s_seq2


def test_index_plan_modes(store, scheduler):
    n = store.num_vertices
    # A single active vertex per row: its 2-entry span is the cheapest.
    plan = scheduler.plan_index_access(VertexSubset.from_indices(n, [3, n - 1]))
    active_rows = np.flatnonzero(plan.active_per_row)
    assert all(plan.mode[i] == INDEX_SPAN for i in active_rows)
    # Two actives at the extreme ends of a large interval: gathering two
    # entry pairs beats sequentially covering the whole span.
    lo0, hi0 = store.intervals.bounds(0)
    assert hi0 - lo0 > 50  # premise: interval wide enough
    plan = scheduler.plan_index_access(
        VertexSubset.from_indices(n, [lo0, hi0 - 1])
    )
    assert plan.mode[0] == INDEX_GATHER
    # A narrow contiguous wave: span read.
    lo, hi = store.intervals.bounds(0)
    width = max(2, (hi - lo) // 8)
    wave = VertexSubset.from_indices(n, np.arange(lo, lo + width))
    plan = scheduler.plan_index_access(wave)
    assert plan.mode[0] == INDEX_SPAN
    assert plan.lo_local[0] == 0
    assert plan.hi_local[0] == width - 1
    # Everything active: every row reads its whole index as one span.
    plan = scheduler.plan_index_access(VertexSubset.full(n))
    assert all(m == INDEX_SPAN for m in plan.mode)
    assert np.array_equal(plan.hi_local, store.intervals.sizes() - 1)


def test_index_plan_cost_is_cheapest_choice(store, scheduler):
    n = store.num_vertices
    frontier = VertexSubset.from_indices(n, np.arange(0, n, 7))
    plan = scheduler.plan_index_access(frontier)
    disk = HDD_PROFILE
    item = INDEX_DTYPE.itemsize
    sizes = store.intervals.sizes()
    total = 0.0
    for i in range(store.P):
        a = int(plan.active_per_row[i])
        if a == 0:
            continue
        span = int(plan.hi_local[i] - plan.lo_local[i]) + 1
        # A scan of the whole row is priced too: it never beats the span.
        options = [
            disk.seq_read_time((int(sizes[i]) + 1) * item) * store.P,
            disk.seq_read_time((span + 1) * item) * store.P,
            disk.ran_read_time(a * 2 * item, requests=a) * store.P,
        ]
        total += min(options)
    assert plan.est_cost == pytest.approx(total)


def test_degree_length_validated(store):
    with pytest.raises(ValueError):
        StateAwareScheduler(
            store, np.zeros(3, dtype=np.int64), MachineProfile(), value_bytes_per_vertex=8
        )
