"""Harness plumbing: workloads, systems, caching, verification."""

import itertools
import math

import pytest

from repro.bench.harness import Harness, SYSTEMS, WORKLOADS


def test_paper_workloads_defined():
    assert set(WORKLOADS) >= {"pr", "pr-d", "cc", "sssp"}
    assert WORKLOADS["pr"].params == {"iterations": 5}
    assert WORKLOADS["pr-d"].params == {"iterations": 20}
    assert WORKLOADS["cc"].symmetrize
    assert WORKLOADS["sssp"].weighted


def test_paper_systems_defined():
    assert {"graphsd", "husgraph", "lumos"} <= set(SYSTEMS)
    assert {"graphsd-b1", "graphsd-b3", "graphsd-b4"} <= set(SYSTEMS)
    assert SYSTEMS["lumos"].representation == "lumos"
    assert SYSTEMS["husgraph"].representation == "husgraph"


def _run_signature(harness, system, algo):
    """What a run records, minus wall-clock fields; ``None`` if refused."""
    try:
        run = harness.run(system, algo, "twitter2010")
    except ValueError:  # e.g. the async engine refuses PageRank
        return None
    return run.sim_seconds, (
        run.io_traffic,
        run.model_history,
        run.frontier_history,
        [record.edges_processed for record in run.per_iteration],
        run.iterations,
    )


def _same_run(a, b):
    if a is None or b is None:
        return a is b
    # One shared harness leaves last-ulp clock drift between identical runs.
    return a[1] == b[1] and math.isclose(a[0], b[0], rel_tol=1e-9)


def test_every_system_is_a_distinct_run():
    """No two SYSTEMS entries record the same run on both pr and sssp."""
    with Harness(P=8) as harness:
        runs = {
            (system, algo): _run_signature(harness, system, algo)
            for system in SYSTEMS
            for algo in ("pr", "sssp")
        }
    same = [
        (a, b)
        for a, b in itertools.combinations(SYSTEMS, 2)
        if all(_same_run(runs[a, algo], runs[b, algo]) for algo in ("pr", "sssp"))
    ]
    assert same == []


@pytest.fixture(scope="module")
def harness():
    with Harness(P=4, verify=True) as h:
        yield h


def test_run_produces_verified_result(harness):
    result = harness.run("graphsd", "bfs", "twitter2010")
    assert result.engine == "graphsd"
    assert result.converged
    assert result.sim_seconds > 0


def test_preprocessing_is_cached_per_representation(harness):
    store1, prep1 = harness.preprocess("graphsd", "twitter2010", WORKLOADS["bfs"])
    store2, prep2 = harness.preprocess("graphsd", "twitter2010", WORKLOADS["bfs"])
    assert store1 is store2
    assert prep1 is prep2
    # a different representation builds a different store
    store3, _ = harness.preprocess("lumos", "twitter2010", WORKLOADS["bfs"])
    assert store3 is not store1
    assert not store3.indexed


def test_context_cached_per_variant(harness):
    a = harness.context_for("twitter2010", WORKLOADS["bfs"])
    b = harness.context_for("twitter2010", WORKLOADS["pr"])
    assert a is b  # same (unweighted, directed) variant
    c = harness.context_for("twitter2010", WORKLOADS["cc"])
    assert c is not a  # symmetrized variant differs


def test_runs_share_cached_store(harness):
    r1 = harness.run("graphsd", "bfs", "twitter2010")
    r2 = harness.run("graphsd-b1", "bfs", "twitter2010")  # same representation
    assert r1.num_edges == r2.num_edges


def test_unknown_representation_rejected(harness):
    with pytest.raises(ValueError):
        harness.preprocess("bogus", "twitter2010", WORKLOADS["bfs"])


def test_owned_workspace_cleanup(tmp_path):
    h = Harness()
    ws = h.workspace
    h.preprocess("graphsd", "twitter2010", WORKLOADS["bfs"])
    assert any(ws.iterdir())
    h.cleanup()
    assert not ws.exists()


def test_external_workspace_preserved(tmp_path):
    h = Harness(workspace=tmp_path / "ws")
    h.preprocess("graphsd", "twitter2010", WORKLOADS["bfs"])
    h.cleanup()
    assert (tmp_path / "ws").exists()
