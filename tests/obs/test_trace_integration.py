"""End-to-end tracing guarantees across every engine family.

The contracts under test (docs/OBSERVABILITY.md):

* every engine produces a schema-valid trace;
* trace numbers are the engine's own records, exactly — never
  re-measured;
* the adaptive scheduler's decisions are audited with predicted and
  actual costs;
* tracing changes nothing observable about the run.
"""

import json

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank
from repro.baselines import GridGraphEngine, LumosEngine, XStreamEngine
from repro.core import GraphSDConfig, GraphSDEngine
from repro.core.result import equivalence_diff
from repro.obs import PEAK_RSS_GAUGE, Tracer, peak_rss_bytes, validate_trace_file
from tests.conftest import build_store, random_edgelist


@pytest.fixture
def edges(rng):
    return random_edgelist(rng, 300, 2400)


def traced_run(engine, program, path):
    engine.attach_tracer(Tracer(), path=str(path))
    result = engine.run(program)
    return result, validate_trace_file(str(path))


# -- schema validity across engine families ----------------------------------


def test_adaptive_graphsd_trace_is_valid(edges, tmp_path):
    store = build_store(edges, tmp_path, name="a")
    result, events = traced_run(
        GraphSDEngine(store), BFS(root=0), tmp_path / "a.jsonl"
    )
    kinds = {e["type"] for e in events}
    assert kinds >= {"meta", "span", "iteration", "audit", "run", "metrics"}
    assert result.iterations == sum(1 for e in events if e["type"] == "iteration")


@pytest.mark.parametrize(
    "config_name", ["baseline_b3", "baseline_b4", "no_buffering"]
)
def test_fixed_model_variants_trace_validly(edges, tmp_path, config_name):
    store = build_store(edges, tmp_path, name=config_name)
    config = getattr(GraphSDConfig, config_name)()
    result, events = traced_run(
        GraphSDEngine(store, config=config),
        PageRank(iterations=3),
        tmp_path / f"{config_name}.jsonl",
    )
    assert result.iterations == sum(1 for e in events if e["type"] == "iteration")


@pytest.mark.parametrize("engine_cls", [LumosEngine, GridGraphEngine, XStreamEngine])
def test_baseline_engines_trace_validly(edges, tmp_path, engine_cls):
    store = build_store(
        edges, tmp_path, indexed=False, sort_within_blocks=False,
        name=engine_cls.__name__,
    )
    result, events = traced_run(
        engine_cls(store), PageRank(iterations=3), tmp_path / "b.jsonl"
    )
    assert result.iterations == sum(1 for e in events if e["type"] == "iteration")
    (run_event,) = [e for e in events if e["type"] == "run"]
    assert run_event["engine"] == result.engine


# -- exactness ---------------------------------------------------------------


def test_iteration_events_equal_records_exactly(edges, tmp_path):
    store = build_store(edges, tmp_path, name="exact")
    result, events = traced_run(
        GraphSDEngine(store), BFS(root=0), tmp_path / "e.jsonl"
    )
    iterations = [e for e in events if e["type"] == "iteration"]
    for event, record in zip(iterations, result.per_iteration):
        assert event["sim_seconds"] == record.breakdown.total  # float-exact
        assert event["sim"] == dict(record.breakdown.components)
        assert event["io"] == record.io.to_dict()
        assert event["model"] == record.model
        assert event["frontier_size"] == record.frontier_size
    (run_event,) = [e for e in events if e["type"] == "run"]
    assert run_event["sim_seconds"] == result.breakdown.total
    assert run_event["io"] == result.io.to_dict()


def test_span_sim_times_are_deterministic_across_runs(edges, tmp_path):
    """Sim-time fields repeat bit-for-bit; only wall fields may differ."""
    traces = []
    for tag in ("r1", "r2"):
        store = build_store(edges, tmp_path, name=tag)
        _, events = traced_run(
            GraphSDEngine(store), BFS(root=0), tmp_path / f"{tag}.jsonl"
        )
        traces.append(events)

    def sim_view(events):
        keep = []
        for e in events:
            if e["type"] == "span":
                keep.append(
                    (e["name"], e["sim_start"], e["sim_dur"], e["sim_disk"], e["sim_cpu"])
                )
        return keep

    assert sim_view(traces[0]) == sim_view(traces[1])


@pytest.mark.parametrize("program", [BFS(root=0), PageRank(iterations=4)], ids=["bfs", "pr"])
def test_every_round_records_its_phase_spans(edges, tmp_path, program):
    """A phase span that is created but never entered records nothing:
    each round must leave exactly its phases' spans in the trace."""
    store = build_store(edges, tmp_path, name="phases")
    _, events = traced_run(GraphSDEngine(store), program, tmp_path / "p.jsonl")
    models = [e["model"] for e in events if e["type"] == "iteration"]
    spans = [e["name"] for e in events if e["type"] == "span"]
    sciu_rounds = models.count("sciu")
    assert spans.count("fciu.phase1") == models.count("fciu") + models.count("full")
    assert spans.count("fciu.phase2") == models.count("fciu2")
    assert spans.count("sciu.plan") == spans.count("sciu.scatter") == sciu_rounds
    assert spans.count("sciu.apply") == sciu_rounds
    assert spans.count("fciu.phase1") + sciu_rounds > 0


# -- audit -------------------------------------------------------------------


def test_every_adaptive_decision_is_audited(edges, tmp_path):
    store = build_store(edges, tmp_path, name="audit")
    engine = GraphSDEngine(store)
    result, events = traced_run(engine, BFS(root=0), tmp_path / "a.jsonl")
    audits = [e for e in events if e["type"] == "audit"]
    assert len(audits) == len(engine.cost_estimates)
    assert audits, "adaptive run must audit its decisions"
    for audit in audits:
        assert audit["c_full"] > 0
        assert audit["c_on_demand"] > 0
        assert audit["actual_sim_seconds"] is not None
        assert audit["actual_model"] in ("sciu", "fciu", "full", "on_demand")
        assert audit["rel_error"] is not None
    # Audits pair with the first iteration of the decided round.
    audited_iters = [a["iteration"] for a in audits]
    assert audited_iters == sorted(audited_iters)


def test_fixed_model_engines_produce_no_audits(edges, tmp_path):
    store = build_store(edges, tmp_path, name="noaudit")
    _, events = traced_run(
        GraphSDEngine(store, config=GraphSDConfig.baseline_b4()),
        PageRank(iterations=3),
        tmp_path / "n.jsonl",
    )
    assert not [e for e in events if e["type"] == "audit"]


# -- zero-cost guarantee -----------------------------------------------------


def test_tracing_changes_nothing_observable(edges, tmp_path):
    store_t = build_store(edges, tmp_path, name="t")
    store_u = build_store(edges, tmp_path, name="u")
    engine_t = GraphSDEngine(store_t)
    engine_t.attach_tracer(Tracer(), path=str(tmp_path / "t.jsonl"))
    traced = engine_t.run(BFS(root=0))
    untraced = GraphSDEngine(store_u).run(BFS(root=0))
    assert equivalence_diff(traced, untraced) == []
    assert np.array_equal(traced.values, untraced.values)


def test_tracing_is_equivalence_clean_with_pipeline(edges, tmp_path):
    config = GraphSDConfig(pipelined=True)
    store_t = build_store(edges, tmp_path, name="pt")
    store_u = build_store(edges, tmp_path, name="pu")
    engine_t = GraphSDEngine(store_t, config=config)
    engine_t.attach_tracer(Tracer(), path=str(tmp_path / "pt.jsonl"))
    traced = engine_t.run(PageRank(iterations=3))
    untraced = GraphSDEngine(store_u, config=config).run(PageRank(iterations=3))
    assert equivalence_diff(traced, untraced) == []
    # Column loads are spans of the engine's own thread, inside its phases.
    events = validate_trace_file(str(tmp_path / "pt.jsonl"))
    loads = [e for e in events if e["type"] == "span" and e["name"] == "prefetch.load"]
    assert loads and all(e["parent"] is not None for e in loads)


# -- config / CLI surface ----------------------------------------------------


def test_metrics_snapshot_rides_in_iteration_records(edges, tmp_path):
    store = build_store(edges, tmp_path, name="met")
    engine = GraphSDEngine(store)
    engine.attach_tracer(Tracer(), path=str(tmp_path / "m.jsonl"))
    result = engine.run(BFS(root=0))
    final = result.per_iteration[-1].metrics
    assert "histograms" in final
    assert "frontier.density" in final["histograms"]
    assert any(k.startswith("disk.read") for k in final["histograms"])


def test_untraced_run_records_no_metrics(edges, tmp_path):
    store = build_store(edges, tmp_path, name="nomet")
    result = GraphSDEngine(store).run(BFS(root=0))
    assert all(r.metrics == {} for r in result.per_iteration)


def test_traced_iterations_carry_a_non_decreasing_peak_rss_gauge(edges, tmp_path):
    if peak_rss_bytes() is None:
        pytest.skip("no resource module on this platform")
    store = build_store(edges, tmp_path, name="rss")
    engine = GraphSDEngine(store)
    engine.attach_tracer(Tracer())
    result = engine.run(BFS(root=0))
    peaks = [r.metrics["gauges"][PEAK_RSS_GAUGE] for r in result.per_iteration]
    assert len(peaks) == result.iterations > 1
    assert peaks[0] > 0
    assert peaks == sorted(peaks)


def test_trace_file_is_parseable_jsonl(edges, tmp_path):
    store = build_store(edges, tmp_path, name="jsonl")
    engine = GraphSDEngine(store)
    path = tmp_path / "p.jsonl"
    engine.attach_tracer(Tracer(), path=str(path))
    engine.run(BFS(root=0))
    lines = path.read_text().strip().splitlines()
    assert len(lines) > 2
    for line in lines:
        json.loads(line)
