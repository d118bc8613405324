"""Merged distributed traces: correlation, critical path, export.

One traced 4-worker cluster run backs every test here; the assertions
mirror the acceptance bar of the distributed-observability layer: the
merged trace must be schema-valid, causally ordered, attributable
per superstep to worker × resource with float-exact timeline algebra,
renderable in Perfetto with per-worker tracks and flow arrows, and the
act of tracing must not perturb the simulation by a single bit.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.algorithms.base import GraphContext
from repro.cli import main
from repro.cluster import ClusterConfig, ClusterEngine
from repro.graph.degree import out_degrees
from repro.obs import (
    Tracer,
    analyze_events,
    analyze_file,
    to_chrome_trace,
    validate_trace_file,
)
from repro.obs.distributed import (
    BARRIER_WAIT,
    COORDINATOR_TRACK,
    TraceMergeError,
    merge_trace_events,
)
from repro.obs.schema import TRACE_VERSION
from tests.conftest import build_store, random_edgelist

P = 4
N = 4
PHASES = {"init", "compute", "broadcast", "absorb", "checkpoint"}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced 4-worker PageRank run + its untraced twin."""
    rng = np.random.default_rng(777)
    edges = random_edgelist(rng, 150, 900, weighted=False)
    tmp = tmp_path_factory.mktemp("dist")
    store = build_store(edges, tmp, P=P, name="dt")
    ctx = GraphContext(
        num_vertices=edges.num_vertices,
        num_edges=edges.num_edges,
        out_degrees=out_degrees(edges),
    )

    def run(tag, tracer=None, trace_path=None):
        engine = ClusterEngine(
            store.device.root, "dt", tmp / f"ws-{tag}", ClusterConfig(workers=N), ctx=ctx
        )
        if tracer is not None:
            engine.attach_tracer(tracer, path=trace_path)
        return engine.run(PageRank(iterations=3))

    path = tmp / "merged.trace.jsonl"
    result = run("traced", tracer=Tracer(), trace_path=str(path))
    untraced = run("untraced")
    return {
        "path": str(path),
        "result": result,
        "untraced": untraced,
        "events": validate_trace_file(str(path)),
    }


def test_merged_trace_is_schema_valid(traced):
    meta = traced["events"][0]
    assert meta["version"] == TRACE_VERSION
    assert meta["merged_workers"] == list(range(N))
    assert meta["engine"] == "cluster"


def test_every_phase_appears_as_worker_tagged_spans(traced):
    spans = [e for e in traced["events"] if e["type"] == "span"]
    for wid in range(N):
        names = {s["name"] for s in spans if s.get("worker") == wid}
        assert PHASES <= names, f"worker {wid} missing phases: {PHASES - names}"
    # The merger synthesizes coordinator barrier slices and wait spans.
    assert any(s.get("worker") == COORDINATOR_TRACK for s in spans)
    assert any(s["name"] == BARRIER_WAIT for s in spans)
    # Span ids live in one global id space after reassignment.
    ids = [s["id"] for s in spans]
    assert len(ids) == len(set(ids))


def test_sends_carry_causal_edges(traced):
    sends = [e for e in traced["events"] if e["type"] == "send"]
    assert sends, "a 4-worker run must exchange messages"
    # One broadcast message (sender, seq) fans out to many peers; the
    # per-destination delivery is the unique causal edge.
    assert len({(s["worker"], s["seq"], s["dst"]) for s in sends}) == len(sends)
    report = analyze_events(traced["events"])
    for s in sends:
        assert s["status"] in ("accepted", "duplicate")
        assert 0.0 <= s["sim_time"] <= report.makespan
        if "recv_sim_time" in s:
            # The edge is *logical* BSP delivery (consumed by the dst
            # worker's absorb phase of the same superstep) — worker
            # timelines run in parallel inside a barrier window, so the
            # rebased recv instant may precede the sender's charge. It
            # must still land inside the run's timeline.
            assert 0.0 <= s["recv_sim_time"] <= report.makespan
    # Accepted deliveries get their receiver-side annotation.
    assert all("recv_sim_time" in s for s in sends if s["status"] == "accepted")


def test_events_are_causally_ordered(traced):
    times = []
    for e in traced["events"]:
        if e["type"] in ("span", "barrier"):
            times.append(float(e.get("sim_start", 0.0)))
        elif e["type"] == "send":
            times.append(float(e["sim_time"]))
    assert times == sorted(times)


def test_critical_path_sums_float_exactly_to_makespan(traced):
    report = analyze_file(traced["path"])
    # Per-superstep attribution rows carry the barriers' published
    # sim_seconds, so their left-fold reproduces the makespan bitwise.
    acc = 0.0
    for row in report.rows:
        acc += row.sim_seconds
    assert acc == report.makespan
    assert report.path_seconds <= report.makespan * (1 + 1e-12)
    assert report.workers == list(range(N))
    assert sum(report.straggler_counts.values()) == len(report.rows)
    assert math.isclose(
        report.makespan, traced["result"].sim_seconds, rel_tol=1e-12
    )
    text = report.render()
    assert "straggler chain" in text
    assert "verified float-exactly" in text


def test_doctored_barrier_delta_is_rejected(traced):
    import copy

    from repro.obs import CriticalPathError

    events = copy.deepcopy(traced["events"])
    barrier = next(e for e in events if e["type"] == "barrier")
    barrier["workers"]["0"]["delta"] += 1e-9
    with pytest.raises(CriticalPathError, match="component fold"):
        analyze_events(events)


def test_perfetto_export_has_worker_tracks_and_flows(traced):
    chrome = to_chrome_trace(traced["events"])
    rows = chrome["traceEvents"]
    process_names = {
        r["args"]["name"] for r in rows if r.get("name") == "process_name"
    }
    assert {"worker 0", "worker 1", "worker 2", "worker 3"} <= process_names
    assert "coordinator (cluster time)" in process_names
    starts = [r for r in rows if r.get("ph") == "s"]
    ends = [r for r in rows if r.get("ph") == "f"]
    assert starts and len(starts) == len(ends)
    assert {r["id"] for r in starts} == {r["id"] for r in ends}


def test_tracing_does_not_perturb_the_run(traced):
    a, b = traced["result"], traced["untraced"]
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert a.iterations == b.iterations
    assert a.sim_seconds == b.sim_seconds  # bit-identical simulated time


def test_stub_tracer_with_trace_path_fails_readably(traced, tmp_path):
    """The --trace contract: merged trace or a readable error, never a
    partial file. A stub tracer records nothing mergeable -> ValueError
    (CLI exit 2)."""

    from repro.obs import MetricsRegistry

    class Stub:
        enabled = True
        metrics = MetricsRegistry()

        def __getattr__(self, name):
            return lambda *a, **k: None

    rng = np.random.default_rng(7)
    edges = random_edgelist(rng, 60, 240, weighted=False)
    store = build_store(edges, tmp_path, P=2, name="stub")
    ctx = GraphContext(
        num_vertices=edges.num_vertices,
        num_edges=edges.num_edges,
        out_degrees=out_degrees(edges),
    )
    engine = ClusterEngine(
        store.device.root, "stub", tmp_path / "ws", ClusterConfig(workers=2), ctx=ctx
    )
    out = tmp_path / "never.trace.jsonl"
    engine.attach_tracer(Stub(), path=str(out))
    with pytest.raises(ValueError, match="requires a real Tracer"):
        engine.run(PageRank(iterations=2))
    assert not out.exists()


def test_interconnect_metrics_reach_the_merged_trace(traced):
    (final,) = [
        e
        for e in traced["events"]
        if e["type"] == "metrics" and e.get("scope") == "final"
    ]
    hists = final["metrics"]["histograms"]
    assert "net.msg_size" in hists
    assert hists["net.msg_size"]["count"] > 0
    # Per-channel power-of-two histograms, one per directed worker pair.
    channels = [k for k in hists if k.startswith("net.msg_size.w")]
    assert len(channels) == N * (N - 1)
    assert sum(hists[c]["count"] for c in channels) == hists["net.msg_size"]["count"]


def test_merge_without_barriers_is_an_error():
    with pytest.raises(TraceMergeError, match="no barrier events"):
        merge_trace_events([], {0: []}, {}, {})


def _doctored(traced, tmp_path, etype):
    """The merged trace with the first ``etype`` event's ``sim.io_write``
    set to a string; returns the file and that event's line number."""
    lines = Path(traced["path"]).read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == etype)
    event = json.loads(lines[index])
    event["sim"]["io_write"] = "x"
    lines[index] = json.dumps(event)
    path = tmp_path / f"bad-{etype}.trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path), index + 1


def test_a_string_in_a_barrier_sim_map_names_its_line(traced, tmp_path, capsys):
    path, lineno = _doctored(traced, tmp_path, "barrier")
    assert main(["trace", "critical-path", path]) == 2
    err = capsys.readouterr().err
    assert f"trace line {lineno}: barrier.sim['io_write'] has type str" in err


def test_a_string_in_an_iteration_sim_map_names_its_line(traced, tmp_path, capsys):
    path, lineno = _doctored(traced, tmp_path, "iteration")
    assert main(["trace", "report", path]) == 2
    err = capsys.readouterr().err
    assert f"trace line {lineno}: iteration.sim['io_write'] has type str" in err
