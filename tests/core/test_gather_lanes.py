"""The gather pool's contract: lanes change modeled time, never results.

The K-lane pool executes SCIU's gather thunks serially in plan order and
parallelizes only the *accounting* (docs/PERFORMANCE.md), so for the
pinned-model configurations (b3/b4) any lane count must produce
bit-identical values, state, traces, and byte counters; the only
permitted differences are the modeled totals (lane concurrency hides
DISK time) and the lane-schedule counter ``gather_queue_peak``.

The adaptive scheduler is the documented exception: its on-demand cost
prediction divides the selective edge-I/O term by the lane count, so
the §4.1 full-vs-on-demand crossover legitimately moves with K — like
it moves between encodings — and only *correctness* (values against the
lane count) is invariant, not the model schedule.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.algorithms import SSSP
from repro.core import GraphSDConfig, GraphSDEngine
from repro.storage.blockfile import MAX_IO_RETRIES
from repro.storage.faults import FaultInjector, FaultPlan, FaultSpec, SimulatedCrash
from tests.conftest import build_store, random_edgelist
from tests.core.test_engine_equivalence import PROGRAMS
from tests.core.test_pipeline_equivalence import PIPELINE_ONLY_COUNTERS

#: The model-pinned configurations: no adaptive decisions, so the lane
#: count must be invisible to everything but modeled time.
PINNED_CONFIGS = {
    "full": GraphSDConfig.baseline_b3,  # FCIU pinned: no gathers at all
    "on-demand": GraphSDConfig.baseline_b4,  # SCIU pinned: all gathers
}

#: The one counter the lane count may legitimately change: the greedy
#: argmin spreads tasks over more lanes, so per-lane queue peaks drop.
LANE_SCHEDULE_COUNTERS = {"gather_queue_peak"}


def _run(seed, make_program, tmp_path, make_config, name, lanes,
         pipeline=False, depth=2, fault_plan=None,
         num_vertices=250, num_edges=1800, P=4):
    rng = np.random.default_rng(seed)
    edges = random_edgelist(rng, num_vertices, num_edges)
    config = replace(
        make_config(), gather_lanes=lanes, pipeline=pipeline, prefetch_depth=depth
    )
    # Same store name in per-lane directories: on-disk file names (which
    # fault messages embed) must match between lane counts.
    store = build_store(edges, tmp_path / f"K{lanes}", P=P, name=name)
    engine = GraphSDEngine(store, config=config)
    if fault_plan is not None:
        store.device.disk.injector = FaultInjector(fault_plan)
    return engine.run(make_program()), store.device.disk.stats


def assert_lane_invariant(base, laned):
    """Everything but modeled totals and the lane schedule must match."""
    b_result, b_stats = base
    k_result, k_stats = laned

    assert np.array_equal(b_result.values, k_result.values, equal_nan=True)
    assert set(b_result.state) == set(k_result.state)
    for key, arr in b_result.state.items():
        assert np.array_equal(arr, k_result.state[key], equal_nan=True), key
    assert b_result.iterations == k_result.iterations
    assert b_result.converged == k_result.converged
    assert b_result.model_history == k_result.model_history
    assert b_result.frontier_history == k_result.frontier_history
    assert b_result.fault_events == k_result.fault_events

    for f in fields(b_stats):
        if f.name in PIPELINE_ONLY_COUNTERS | LANE_SCHEDULE_COUNTERS:
            continue
        assert getattr(b_stats, f.name) == getattr(k_stats, f.name), f.name

    # Per-component simulated time stays bit-identical; the net total may
    # only shrink (the pool credits hidden DISK time, never adds any).
    assert b_result.breakdown.components == k_result.breakdown.components
    assert k_result.sim_seconds <= b_result.sim_seconds


@pytest.mark.parametrize("config_name", list(PINNED_CONFIGS))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_lanes_are_bit_invariant_serial(tmp_path, program, config_name):
    name = f"{program}-{config_name}"[:24]
    base = _run(12345, PROGRAMS[program], tmp_path, PINNED_CONFIGS[config_name],
                name, lanes=1)
    laned = _run(12345, PROGRAMS[program], tmp_path, PINNED_CONFIGS[config_name],
                 name, lanes=4)
    assert_lane_invariant(base, laned)


@pytest.mark.parametrize("config_name", list(PINNED_CONFIGS))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_lanes_are_bit_invariant_pipelined(tmp_path, program, config_name):
    name = f"{program}-{config_name}"[:24]
    base = _run(54321, PROGRAMS[program], tmp_path, PINNED_CONFIGS[config_name],
                name, lanes=1, pipeline=True)
    laned = _run(54321, PROGRAMS[program], tmp_path, PINNED_CONFIGS[config_name],
                 name, lanes=4, pipeline=True)
    assert_lane_invariant(base, laned)


@pytest.mark.parametrize("program", list(PROGRAMS))
def test_adaptive_values_correct_at_any_lane_count(tmp_path, program):
    """The adaptive schedule may shift with K; the answers must not."""
    base = _run(2468, PROGRAMS[program], tmp_path, GraphSDConfig,
                program[:24], lanes=1)
    laned = _run(2468, PROGRAMS[program], tmp_path, GraphSDConfig,
                 program[:24], lanes=4)
    b_result, k_result = base[0], laned[0]
    assert np.allclose(b_result.values, k_result.values, equal_nan=True)
    assert b_result.converged == k_result.converged


@pytest.mark.parametrize("lanes", [2, 8])
def test_invariance_holds_at_any_lane_count(tmp_path, lanes):
    base = _run(7, lambda: SSSP(source=0), tmp_path, GraphSDConfig.baseline_b4,
                "k", lanes=1)
    laned = _run(7, lambda: SSSP(source=0), tmp_path, GraphSDConfig.baseline_b4,
                 "k", lanes=lanes)
    assert_lane_invariant(base, laned)


def test_lanes_strictly_faster_on_sciu_rounds(tmp_path):
    """b4 pins SCIU every round: K=4 must actually hide DISK time."""
    base = _run(99, PROGRAMS["pagerank_delta"], tmp_path,
                GraphSDConfig.baseline_b4, "speed", lanes=1,
                num_vertices=2000, num_edges=60000, P=8)
    laned = _run(99, PROGRAMS["pagerank_delta"], tmp_path,
                 GraphSDConfig.baseline_b4, "speed", lanes=4,
                 num_vertices=2000, num_edges=60000, P=8)
    assert_lane_invariant(base, laned)
    b_result, k_result = base[0], laned[0]
    assert k_result.sim_seconds < b_result.sim_seconds
    assert k_result.gather_runs_issued == b_result.gather_runs_issued > 0
    assert k_result.gather_queue_peak <= b_result.gather_queue_peak


def test_k1_charges_no_overlap_without_pipeline(tmp_path):
    """The K=1 serial pool is accounting-free: no hidden time at all."""
    result, _stats = _run(3, PROGRAMS["pagerank_delta"], tmp_path,
                          GraphSDConfig.baseline_b4, "k1", lanes=1)
    assert result.overlap_saved_seconds == 0.0
    assert result.breakdown.total == result.breakdown.serial_total
    assert result.gather_runs_issued > 0  # the pool still counts runs


def test_transient_faults_fire_identically_across_lanes(tmp_path):
    """Execution is serial in plan order: fault ordinals are lane-blind."""
    plan = FaultPlan(
        specs=(FaultSpec("transient-read", "*.edges", at_op=2, count=2),)
    )
    base = _run(11, lambda: SSSP(source=0), tmp_path, GraphSDConfig.baseline_b4,
                "tf", lanes=1, fault_plan=plan)
    laned = _run(11, lambda: SSSP(source=0), tmp_path, GraphSDConfig.baseline_b4,
                 "tf", lanes=4, fault_plan=plan)
    assert_lane_invariant(base, laned)
    assert base[1].read_retries == 2
    assert base[1].faults_injected == laned[1].faults_injected


def test_gather_fault_degradation_identical_across_lanes(tmp_path):
    """Retry exhaustion -> GatherFault -> FCIU fallback at any K; the
    aborted round keeps its raw serial charges (no lane credit)."""
    plan = FaultPlan(
        specs=(FaultSpec("transient-read", "*.edges", count=MAX_IO_RETRIES + 1),)
    )
    base = _run(13, lambda: SSSP(source=0), tmp_path, GraphSDConfig.baseline_b4,
                "gf", lanes=1, fault_plan=plan)
    laned = _run(13, lambda: SSSP(source=0), tmp_path, GraphSDConfig.baseline_b4,
                 "gf", lanes=4, fault_plan=plan)
    assert_lane_invariant(base, laned)
    assert base[0].fault_events and "full streaming" in base[0].fault_events[0]


def test_injected_crash_fires_at_same_point_across_lanes(tmp_path):
    """A mid-scatter SimulatedCrash kills any K after identical I/O."""
    rng = np.random.default_rng(21)
    edges = random_edgelist(rng, 250, 1800)
    stats = {}
    for lanes in (1, 4):
        store = build_store(edges, tmp_path, P=4, name=f"crash-K{lanes}")
        engine = GraphSDEngine(
            store,
            config=replace(GraphSDConfig.baseline_b4(), gather_lanes=lanes),
        )
        store.device.disk.injector = FaultInjector(
            FaultPlan(crash_points={"mid-scatter": 5})
        )
        with pytest.raises(SimulatedCrash):
            engine.run(SSSP(source=0))
        stats[lanes] = store.device.disk.stats
    one, four = stats[1], stats[4]
    assert one.bytes_read_seq == four.bytes_read_seq
    assert one.bytes_read_ran == four.bytes_read_ran
    assert one.bytes_written_seq == four.bytes_written_seq
