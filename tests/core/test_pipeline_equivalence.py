"""The overlap layer's contract: pipelined == serial, bit for bit.

A pipelined run issues the serial disk-operation stream — every load
thunk runs inline where its result is used — and only charges it as
overlapping compute, so enabling ``--pipeline`` never changes *what*
happens: final values and state, iteration/model/frontier traces, every
``IOStats`` counter, and every per-component simulated time must match
the serial run bit-for-bit. The only permitted difference is the net
total (overlap hides time).
"""

import threading
import traceback
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.algorithms import SSSP, PageRank
from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import AsyncGraphSDEngine, GraphSDConfig, GraphSDEngine
from repro.storage.blockfile import MAX_IO_RETRIES
from repro.storage.faults import FaultInjector, FaultPlan, FaultSpec, SimulatedCrash
from tests.conftest import build_store, random_edgelist
from tests.core.test_engine_equivalence import PROGRAMS

CONFIGS = {
    "adaptive": GraphSDConfig,  # scheduler mixes SCIU and FCIU
    "full": GraphSDConfig.baseline_b3,  # FCIU path pinned
    "on-demand": GraphSDConfig.baseline_b4,  # SCIU path pinned
}


def _run_pair(rng_seed, make_program, tmp_path, make_config, name,
              fault_plan=None, num_vertices=250, num_edges=1800, P=4):
    rng = np.random.default_rng(rng_seed)
    edges = random_edgelist(rng, num_vertices, num_edges)
    out = {}
    for mode, pipeline in (("serial", False), ("pipelined", True)):
        config = replace(make_config(), pipelined=pipeline)
        # Same store name in per-mode directories: on-disk file names
        # (which fault messages embed) must match between modes.
        store = build_store(edges, tmp_path / mode, P=P, name=name)
        engine = GraphSDEngine(store, config=config)
        if fault_plan is not None:
            store.device.disk.injector = FaultInjector(fault_plan)
        out[mode] = (engine.run(make_program()), store.device.disk.stats)
    return out["serial"], out["pipelined"]


def assert_same_io(s_stats, p_stats):
    """Every IOStats counter, field for field."""
    for f in fields(s_stats):
        assert getattr(s_stats, f.name) == getattr(p_stats, f.name), f.name


def assert_bit_identical(serial, pipelined):
    s_result, s_stats = serial
    p_result, p_stats = pipelined

    # Results and traces.
    assert np.array_equal(s_result.values, p_result.values, equal_nan=True)
    assert set(s_result.state) == set(p_result.state)
    for key, arr in s_result.state.items():
        assert np.array_equal(arr, p_result.state[key], equal_nan=True), key
    assert s_result.iterations == p_result.iterations
    assert s_result.converged == p_result.converged
    assert s_result.model_history == p_result.model_history
    assert s_result.frontier_history == p_result.frontier_history
    assert s_result.fault_events == p_result.fault_events

    assert_same_io(s_stats, p_stats)

    # Per-component simulated time, bit for bit; totals may only shrink.
    assert s_result.breakdown.components == p_result.breakdown.components
    assert p_result.sim_seconds <= s_result.sim_seconds
    assert p_result.overlap_saved_seconds == pytest.approx(
        s_result.sim_seconds - p_result.sim_seconds
    )


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_pipelined_run_is_bit_identical(tmp_path, program, config_name):
    serial, pipelined = _run_pair(
        12345,
        PROGRAMS[program],
        tmp_path,
        CONFIGS[config_name],
        f"{program}-{config_name}"[:24],
    )
    assert_bit_identical(serial, pipelined)


def test_pipelined_pagerank_is_strictly_faster_on_hdd(tmp_path):
    """The acceptance workload: I/O-bound PR must actually save time."""
    serial, pipelined = _run_pair(
        99, lambda: PageRank(iterations=5), tmp_path, GraphSDConfig, "speed",
        num_vertices=2000, num_edges=60000, P=8,
    )
    assert_bit_identical(serial, pipelined)
    (s_result, _), (p_result, _) = serial, pipelined
    assert p_result.sim_seconds < s_result.sim_seconds
    assert p_result.overlap_saved_seconds > 0


def test_transient_faults_fire_identically_under_pipeline(tmp_path):
    """Retries and fault events are keyed to the op stream: must match."""
    plan = FaultPlan(
        specs=(FaultSpec("transient-read", "*.edges", at_op=2, count=2),)
    )
    serial, pipelined = _run_pair(
        11, lambda: SSSP(source=0), tmp_path, GraphSDConfig, "tf",
        fault_plan=plan,
    )
    assert_bit_identical(serial, pipelined)
    assert serial[1].read_retries == 2  # the plan actually fired
    assert serial[1].faults_injected == pipelined[1].faults_injected


def test_gather_fault_degradation_identical_under_pipeline(tmp_path):
    """Retry exhaustion -> GatherFault -> full-streaming fallback, both modes."""
    plan = FaultPlan(
        specs=(FaultSpec("transient-read", "*.edges", count=MAX_IO_RETRIES + 1),)
    )
    serial, pipelined = _run_pair(
        13,
        lambda: SSSP(source=0),
        tmp_path,
        GraphSDConfig.baseline_b4,
        "gf",
        fault_plan=plan,
    )
    assert_bit_identical(serial, pipelined)
    s_result = serial[0]
    assert s_result.fault_events and "full streaming" in s_result.fault_events[0]
    assert serial[1].read_retries == MAX_IO_RETRIES


def test_injected_crash_fires_at_same_point_under_pipeline(tmp_path):
    """A mid-scatter SimulatedCrash kills both modes after identical I/O."""
    rng = np.random.default_rng(21)
    edges = random_edgelist(rng, 250, 1800)
    stats = {}
    for mode, pipeline in (("serial", False), ("pipelined", True)):
        store = build_store(edges, tmp_path, P=4, name=f"crash-{mode}")
        engine = GraphSDEngine(
            store,
            config=GraphSDConfig(pipelined=pipeline),
        )
        store.device.disk.injector = FaultInjector(
            FaultPlan(crash_points={"mid-scatter": 5})
        )
        with pytest.raises(SimulatedCrash):
            engine.run(SSSP(source=0))
        stats[mode] = store.device.disk.stats
    # Nothing reads ahead of the consumer: the crash leaves exactly the
    # serial run's I/O behind it.
    assert_same_io(stats["serial"], stats["pipelined"])


P_LEAK = 8  # columns of the grid the crash tests stream over

#: Stream site (the function holding the stream) -> (config, program,
#: mid-scatter poll that crashes). FCIU phase 1 polls once per block of
#: the P x P grid, then phase 2 sweeps columns.
STREAM_SITES = {
    "run_fciu_round": (GraphSDConfig.baseline_b3, PageRank, 2),
    "sweep_columns": (GraphSDConfig.baseline_b3, PageRank, P_LEAK * P_LEAK + 2),
    "consume_plan": (GraphSDConfig.baseline_b4, lambda: SSSP(source=0), 2),
}


@pytest.mark.parametrize("site", sorted(STREAM_SITES))
def test_no_prefetch_worker_outlives_a_crash(tmp_path, site):
    """A pipelined K = 4 crash mid-stream propagates straight out of the
    plan consumer that polled it, and leaves no thread behind."""
    make_config, make_program, crash_at = STREAM_SITES[site]
    rng = np.random.default_rng(5)
    store = build_store(random_edgelist(rng, 400, 5000), tmp_path, P=P_LEAK, name=site)
    config = replace(make_config(), pipelined=True, gather_lanes=4)
    engine = GraphSDEngine(store, config=config)
    store.device.disk.injector = FaultInjector(
        FaultPlan(crash_points={"mid-scatter": crash_at})
    )
    before = threading.active_count()
    with pytest.raises(SimulatedCrash) as crash:
        engine.run(make_program())
    frames = [frame.name for frame in traceback.extract_tb(crash.tb)]
    assert frames[-3:] == [site, "_crash_point", "crash_point"]
    assert threading.active_count() == before


def _engine_run(engine_cls, make_config, make_program, **settings):
    def run(store, workspace):
        config = replace(make_config(), **settings)
        engine_cls(store, config=config).run(make_program())

    return run


def _cluster4_run(store, workspace):
    config = ClusterConfig(workers=4)
    ClusterEngine(store.device.root, store.prefix, workspace, config).run(SSSP(source=0))


def _bsp_runs(**settings):
    """FCIU's phase 1 and its phase-2 ``sweep_columns`` (b3) and SCIU's
    ``consume_plan`` (b4) under ``settings``."""
    return [
        _engine_run(GraphSDEngine, GraphSDConfig.baseline_b3, PageRank, **settings),
        _engine_run(
            GraphSDEngine, GraphSDConfig.baseline_b4, lambda: SSSP(source=0), **settings
        ),
    ]


def _async_run(**settings):
    return _engine_run(
        AsyncGraphSDEngine, GraphSDConfig, lambda: SSSP(source=0), **settings
    )


#: Per engine shape, its runs: every plan consumer serial, pipelined and
#: over K = 4 lanes, the async engine's pops, and a 4-worker cluster's
#: ``Inbox``/``Interconnect`` traffic.
NO_THREAD_RUNS = {
    "bsp-serial": _bsp_runs(),
    "pipelined": _bsp_runs(pipelined=True, gather_lanes=4)
    + [_async_run(pipelined=True, gather_lanes=4)],
    "bsp-lanes4": _bsp_runs(gather_lanes=4),
    "async": [_async_run()],
    "cluster4": [_cluster4_run],
}


@pytest.mark.parametrize("shape", sorted(NO_THREAD_RUNS))
def test_pipelined_runs_start_no_thread(tmp_path, shape):
    """Pipelining is a clock mode and the cluster is simulated: a
    finished run of any engine shape leaves no thread behind."""
    rng = np.random.default_rng(5)
    edges = random_edgelist(rng, 400, 5000)
    before = threading.active_count()
    for k, run in enumerate(NO_THREAD_RUNS[shape]):
        store = build_store(edges, tmp_path / str(k), P=P_LEAK, name=f"t{k}")
        run(store, tmp_path / f"ws{k}")
    assert threading.active_count() == before
