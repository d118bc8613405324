"""Tracing through the bench harness, one cell per engine shape.

bfs on twitter2010 at P = 4, run once untraced and once traced, for the
adaptive engine, a fixed-model ablation, a baseline and a 2-worker
cluster (so both run paths of the shared run frame are covered). Each
cell's trace must be schema-valid, carry the engine's own records
exactly, export to Perfetto, and leave the run untouched.

Two harnesses execute the same run sequence: shared clocks accumulate
across a harness's runs, so a traced run compared against an untraced
one *in the same harness* would start at a different absolute sim
offset and differ by an ulp. Identical sequences in separate harnesses
keep every pair exactly comparable, whichever cells are selected.

That every adaptive decision is audited is held by
``tests/obs/test_trace_integration.py::test_every_adaptive_decision_is_audited``.
"""

import json

import pytest

from repro.bench.harness import Harness
from repro.core.result import equivalence_diff
from repro.obs import export_file, validate_trace_file

P = 4
DATASET = "twitter2010"
ALGO = "bfs"
CLUSTER = "cluster-2"

#: The ``run`` event fields that must equal the RunResult document's.
RUN_EVENT_SHARED = (
    "engine", "program", "iterations", "converged", "sim_seconds", "overlap_saved",
    "sim", "io", "fault_events", "recovery", "sweeps", "workers",
)


@pytest.fixture(scope="module")
def harnesses():
    with Harness(P=P, verify=True) as plain, Harness(P=P) as instrumented:
        yield plain, instrumented


def _run(harness, cell, trace_path=None):
    if cell == CLUSTER:
        return harness.run_cluster(ALGO, DATASET, 2, trace_path=trace_path)
    return harness.run(cell, ALGO, DATASET, trace_path=trace_path)


@pytest.mark.parametrize("cell", ["graphsd", "graphsd-b4", "xstream", CLUSTER])
def test_traced_cell_matches_its_records_and_its_untraced_twin(harnesses, tmp_path, cell):
    plain, instrumented = harnesses
    trace_path = str(tmp_path / f"{cell}.trace.jsonl")
    untraced = _run(plain, cell)
    traced = _run(instrumented, cell, trace_path)

    events = validate_trace_file(trace_path)

    # Iteration events are the IterationRecords, field for field.
    iterations = [e for e in events if e["type"] == "iteration"]
    assert len(iterations) == len(traced.per_iteration)
    for event, record in zip(iterations, traced.per_iteration):
        expected = record.to_dict()
        expected.pop("metrics")  # registry snapshot: JSON-keyed in the trace
        assert {k: event.get(k) for k in expected} == expected

    # The run event is the RunResult on every field they share.
    (run_event,) = [e for e in events if e["type"] == "run"]
    doc = traced.to_dict()
    doc["sim"] = doc["breakdown"]["components"]
    doc["overlap_saved"] = doc["breakdown"]["overlap_saved"]
    doc["workers"] = traced.recovery.get("workers")  # cluster runs only
    assert {k: run_event.get(k) for k in RUN_EVENT_SHARED} == {
        k: doc.get(k) for k in RUN_EVENT_SHARED
    }

    # The Perfetto export round-trips through a file.
    out = tmp_path / f"{cell}.chrome.json"
    count = export_file(trace_path, str(out))
    chrome = json.loads(out.read_text())["traceEvents"]
    assert len(chrome) == count > 0
    assert all({"ph", "pid", "name"} <= set(e) for e in chrome)
    assert any(e["ph"] == "X" for e in chrome)

    # Tracing changes nothing observable.
    assert equivalence_diff(traced, untraced) == []
