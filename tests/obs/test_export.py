"""Trace schema validation and the Chrome/Perfetto export."""

import json

import pytest

from repro.cli import main
from repro.obs import (
    TraceSchemaError,
    export_file,
    to_chrome_trace,
    validate_trace_lines,
)
from repro.obs.trace import Tracer
from repro.utils.timers import IO_READ, SimClock


def _sample_lines():
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.begin_run(engine="graphsd", program="bfs")
    with tracer.span("sciu.scatter", cat="phase"):
        clock.charge(IO_READ, 0.5)
    tracer.iteration(
        {
            "iteration": 1,
            "model": "sciu",
            "frontier_size": 3,
            "edges_processed": 9,
            "activated": 2,
            "cross_pushed": 0,
            "sim_start": 0.0,
            "sim_seconds": 0.5,
            "sim": {"io_read": 0.5},
            "io": {"bytes_read_seq": 4096, "bytes_read_ran": 128},
            "metrics": {},
        }
    )
    tracer.audit_open(
        1,
        type(
            "E",
            (),
            {
                "chosen": type("C", (), {"value": "on_demand"})(),
                "c_full": 1.0,
                "c_on_demand": 0.5,
                "active_vertices": 3,
                "active_edges": 9,
                "s_seq_bytes": 4096.0,
                "s_ran_bytes": 128.0,
                "index_bytes": 8.0,
            },
        )(),
    )
    tracer.audit_close(
        actual_sim_seconds=0.5, actual_io_seconds=0.5, actual_model="sciu"
    )
    tracer.run_summary(
        {
            "engine": "graphsd",
            "program": "bfs",
            "iterations": 1,
            "converged": True,
            "sim_seconds": 0.5,
            "sim": {"io_read": 0.5},
            "io": {"bytes_read_seq": 4096},
        }
    )
    return tracer.lines()


# -- schema ------------------------------------------------------------------


def test_sample_trace_is_valid():
    events = validate_trace_lines(_sample_lines())
    assert {e["type"] for e in events} >= {"meta", "span", "iteration", "audit", "run"}


def test_first_line_must_be_meta():
    lines = _sample_lines()
    with pytest.raises(TraceSchemaError):
        validate_trace_lines(lines[1:])


def test_unknown_event_type_is_rejected():
    lines = _sample_lines() + [json.dumps({"type": "mystery"})]
    with pytest.raises(TraceSchemaError):
        validate_trace_lines(lines)


def test_missing_required_field_is_rejected():
    lines = _sample_lines()
    bad = json.loads(lines[1])  # a span event
    assert bad["type"] == "span"
    del bad["sim_dur"]
    lines[1] = json.dumps(bad)
    with pytest.raises(TraceSchemaError):
        validate_trace_lines(lines)


def test_bool_is_not_a_number():
    lines = _sample_lines()
    bad = json.loads(lines[1])
    bad["sim_dur"] = True  # bool is an int subclass; schema must reject it
    lines[1] = json.dumps(bad)
    with pytest.raises(TraceSchemaError):
        validate_trace_lines(lines)


def test_wrong_schema_name_is_rejected():
    lines = _sample_lines()
    meta = json.loads(lines[0])
    meta["schema"] = "not-a-graphsd-trace"
    lines[0] = json.dumps(meta)
    with pytest.raises(TraceSchemaError):
        validate_trace_lines(lines)


@pytest.mark.parametrize("version", [0, 2])
def test_any_other_version_is_rejected(tmp_path, capsys, version):
    lines = _sample_lines()
    meta = json.loads(lines[0])
    meta["version"] = version
    lines[0] = json.dumps(meta)
    with pytest.raises(TraceSchemaError, match=f"line 1: unexpected version {version}"):
        validate_trace_lines(lines)
    src = tmp_path / "other.jsonl"
    src.write_text("\n".join(lines) + "\n")
    assert main(["trace", "report", str(src)]) == 2
    assert f"unexpected version {version}" in capsys.readouterr().err


def test_malformed_json_is_rejected():
    lines = _sample_lines()
    lines.append("{not json")
    with pytest.raises(TraceSchemaError):
        validate_trace_lines(lines)


# -- Chrome export -----------------------------------------------------------


def _events():
    return [json.loads(line) for line in _sample_lines()]


def test_chrome_trace_shape():
    doc = to_chrome_trace(_events())
    assert set(doc) >= {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert "X" in phases  # complete spans
    assert "M" in phases  # process/thread metadata
    assert "C" in phases  # counters
    assert "i" in phases  # audit instants


def test_spans_appear_on_both_timelines():
    doc = to_chrome_trace(_events())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X" and e["name"] == "sciu.scatter"]
    assert {e["pid"] for e in xs} == {1, 2}  # sim and wall processes


def test_counter_tracks_io_bytes():
    doc = to_chrome_trace(_events())
    (counter,) = [e for e in doc["traceEvents"] if e.get("name") == "io_bytes"]
    assert counter["args"]["seq_read"] == 4096
    assert counter["args"]["ran_read"] == 128


def test_iteration_becomes_complete_event_in_microseconds():
    doc = to_chrome_trace(_events())
    (it,) = [e for e in doc["traceEvents"] if e.get("name", "").startswith("iter 1")]
    assert it["ph"] == "X"
    assert it["dur"] == pytest.approx(0.5e6)  # 0.5 sim seconds in µs


def test_export_file_round_trip(tmp_path):
    src = tmp_path / "trace.jsonl"
    src.write_text("\n".join(_sample_lines()) + "\n")
    out = tmp_path / "chrome.json"
    count = export_file(str(src), str(out))
    doc = json.loads(out.read_text())
    assert len(doc["traceEvents"]) == count
    assert count > 0


def test_export_file_rejects_invalid_trace(tmp_path):
    src = tmp_path / "bad.jsonl"
    src.write_text(json.dumps({"type": "span"}) + "\n")
    with pytest.raises(TraceSchemaError):
        export_file(str(src), str(tmp_path / "out.json"))
