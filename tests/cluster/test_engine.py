"""End-to-end cluster runs: bit-identity, crash recovery, degradation.

The acceptance bar of the cluster layer (docs/CLUSTER.md): for every
worker count and every injected failure mode, the run must finish and
produce values *bit-identical* to the clean single-worker execution —
recovery that only approximately restores state would silently poison
long simulations.
"""

import numpy as np
import pytest

from repro.algorithms import ConnectedComponents, PageRank, SSSP
from repro.algorithms.base import GraphContext
from repro.baselines import BSPReference
from repro.cluster import ClusterConfig, ClusterEngine
from repro.graph.degree import out_degrees
from repro.storage.faults import FaultPlan, FaultSpec
from tests.conftest import build_store, random_edgelist

P = 8

#: Every named crash window of the worker superstep loop.
CRASH_POINTS = (
    "pre-compute",
    "post-compute",
    "post-broadcast",
    "post-absorb",
    "pre-checkpoint",
    "mid-checkpoint",
    "post-checkpoint",
)

_PROGRAMS = {
    "pr": lambda: PageRank(iterations=5),
    "sssp": lambda: SSSP(source=0),
    "cc": lambda: ConnectedComponents(),
}


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """One grid store shared by every run; fresh workspace per run."""
    rng = np.random.default_rng(12345)
    edges = random_edgelist(rng, 200, 1200, weighted=True)
    tmp = tmp_path_factory.mktemp("cluster")
    store = build_store(edges, tmp, P=P, name="cl")
    ctx = GraphContext(
        num_vertices=edges.num_vertices,
        num_edges=edges.num_edges,
        out_degrees=out_degrees(edges),
    )
    state = {"runs": 0, "baselines": {}}

    def run(workers, algo="pr", plan=None, factors=None, tracer=None, trace_path=None):
        state["runs"] += 1
        config = ClusterConfig(
            workers=workers, fault_plan=plan, worker_disk_factors=factors or {}
        )
        engine = ClusterEngine(
            store.device.root, "cl", tmp / f"ws-{state['runs']}", config, ctx=ctx
        )
        if tracer is not None:
            engine.attach_tracer(tracer, path=trace_path)
        return engine.run(_PROGRAMS[algo]())

    def baseline(algo="pr"):
        if algo not in state["baselines"]:
            state["baselines"][algo] = run(1, algo=algo)
        return state["baselines"][algo]

    run.baseline = baseline
    run.edges = edges
    return run


def test_shard_compute_runs_the_shared_execution_core(cluster, monkeypatch):
    """A worker has no kernel loop of its own: its compute phase is the
    engines' column sweep, so it goes through the same three entry points
    (and shows up in the same per-layer measurements) as one worker."""
    from repro.core.engine_base import EngineBase

    calls = {"gather_block": 0, "combine_block": 0, "apply_interval": 0}

    def counted(name):
        inner = getattr(EngineBase, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return inner(self, *args, **kwargs)

        return wrapper

    single = cluster.baseline("pr")
    for name in calls:
        monkeypatch.setattr(EngineBase, name, counted(name))
    two = cluster(2, algo="pr")
    assert np.array_equal(two.values, single.values)
    assert two.iterations == single.iterations
    # Every superstep gathers every block once and applies every interval once.
    assert calls["apply_interval"] == P * two.iterations
    assert calls["gather_block"] == calls["combine_block"] == P * P * two.iterations


@pytest.mark.parametrize("algo", sorted(_PROGRAMS))
def test_values_identical_for_any_worker_count(cluster, algo):
    single = cluster.baseline(algo)
    ref = BSPReference(cluster.edges).run(_PROGRAMS[algo]())
    assert np.allclose(single.values, ref.values, equal_nan=True)
    assert single.iterations == ref.iterations
    for n in (2, 4):
        sharded = cluster(n, algo=algo)
        assert np.array_equal(single.values, sharded.values, equal_nan=True)
        assert sharded.iterations == single.iterations
        assert sharded.converged == single.converged
        assert sharded.recovery["workers"] == n


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_at_every_point_recovers_bit_identically(cluster, point):
    plan = FaultPlan(crash_points={f"w1:{point}": 3})
    result = cluster(4, plan=plan)
    assert np.array_equal(result.values, cluster.baseline().values)
    assert result.recovery["worker_recoveries"] == 1
    assert any("crash-recovery:w1" in e for e in result.fault_events)


def test_message_faults_are_absorbed_with_exact_counters(cluster):
    plan = FaultPlan(
        specs=(
            FaultSpec(kind="msg-drop", pattern="w0->w2", at_op=5, count=2),
            FaultSpec(kind="msg-corrupt", pattern="w1->*", at_op=3, count=1),
            FaultSpec(kind="msg-dup", pattern="*", at_op=11, count=3),
        )
    )
    result = cluster(4, plan=plan)
    assert np.array_equal(result.values, cluster.baseline().values)
    assert result.recovery["msgs_dropped"] == 2
    assert result.recovery["msgs_corrupted"] == 1
    assert result.recovery["msgs_duplicated"] == 3
    # every drop and every CRC rejection forced exactly one retry
    assert result.recovery["net_retries"] == 3
    assert result.recovery["net_backoff_seconds"] > 0
    assert result.recovery["worker_recoveries"] == 0


def test_straggler_is_degraded_and_survivors_finish(cluster):
    result = cluster(4, factors={3: 0.05})  # worker 3: a 20x slower disk
    assert np.array_equal(result.values, cluster.baseline().values)
    assert result.recovery["stragglers_degraded"] == 1
    assert result.recovery["workers_final"] == 3
    assert any("straggler-degraded:w3" in e for e in result.fault_events)


def test_recovery_counters_surface_in_summary_and_dict(cluster):
    plan = FaultPlan(crash_points={"w1:post-compute": 2})
    result = cluster(4, plan=plan)
    assert "worker recoveries 1" in result.summary()
    payload = result.to_dict()
    assert payload["recovery"]["worker_recoveries"] == 1
    assert payload["recovery"]["messages_sent"] > 0


def test_trace_records_recovery_events(cluster, tmp_path):
    from repro.obs import Tracer, validate_trace_file

    path = tmp_path / "cluster.trace.jsonl"
    plan = FaultPlan(crash_points={"w2:post-broadcast": 3})
    result = cluster(4, plan=plan, tracer=Tracer(), trace_path=str(path))
    assert np.array_equal(result.values, cluster.baseline().values)
    events = validate_trace_file(str(path))
    # A cluster --trace run writes the *merged* distributed trace.
    assert events[0]["version"] == 2
    assert events[0]["merged_workers"] == [0, 1, 2, 3]
    assert any(e["type"] == "barrier" for e in events)
    assert any(e["type"] == "send" for e in events)
    worker_spans = [e for e in events if e["type"] == "span" and e.get("worker") == 2]
    assert {s["name"] for s in worker_spans} >= {"compute", "broadcast", "absorb"}
    recoveries = [e for e in events if e["type"] == "recovery"]
    assert {e["event"] for e in recoveries} >= {"rollback", "replay"}
    assert all(e["superstep"] >= 1 for e in recoveries)
    (run_event,) = [e for e in events if e["type"] == "run"]
    assert run_event["engine"] == "cluster"
    assert run_event["workers"] == 4
    assert run_event["recovery"]["worker_recoveries"] == 1


def test_cluster_timeline_keeps_the_breakdown_invariant(cluster):
    """total == sum(components) − overlap_saved, with real barrier credit."""
    result = cluster(4)
    bd = result.per_iteration[0].breakdown
    assert bd.total == pytest.approx(
        sum(bd.components.values()) - bd.overlap_saved
    )
    assert result.overlap_saved_seconds > 0  # N=4 workers genuinely overlap
    single = cluster.baseline()
    assert result.sim_seconds < single.sim_seconds  # sharding must pay off


def test_workers_cannot_exceed_partitions(cluster):
    with pytest.raises(ValueError, match="workers on a P="):
        cluster(P + 1)


def test_config_validates_straggler_factor():
    with pytest.raises(ValueError, match="straggler_factor"):
        ClusterConfig(workers=2, straggler_factor=1.0)
    assert ClusterConfig(workers=2, straggler_factor=None).straggler_factor is None
