"""Span tracer unit behaviour: nesting, dual timelines, JSONL output."""

import json

from repro.obs import NULL_TRACER, Tracer, validate_trace_lines
from repro.utils.timers import COMPUTE, IO_READ, SimClock


def _spans(tracer):
    return [e for e in tracer.events if e["type"] == "span"]


def test_span_records_sim_deltas_split_by_resource():
    clock = SimClock()
    tracer = Tracer(clock)
    with tracer.span("work"):
        clock.charge(IO_READ, 0.5)
        clock.charge(COMPUTE, 0.25)
    (span,) = _spans(tracer)
    assert span["sim_dur"] == 0.75
    assert span["sim_disk"] == 0.5
    assert span["sim_cpu"] == 0.25
    assert span["wall_dur"] >= 0.0


def test_spans_nest_by_parent_id():
    tracer = Tracer(SimClock())
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    by_name = {e["name"]: e for e in _spans(tracer)}
    assert by_name["inner"]["parent"] == outer.span_id
    assert by_name["outer"]["parent"] is None
    assert inner.span_id != outer.span_id


def test_override_sim_pins_published_deltas():
    clock = SimClock()
    tracer = Tracer(clock)
    with tracer.span("iter") as span:
        clock.charge(IO_READ, 0.123456)
        span.override_sim(sim_dur=1.0, sim_disk=0.75, sim_cpu=0.25)
    (event,) = _spans(tracer)
    assert event["sim_dur"] == 1.0
    assert event["sim_disk"] == 0.75
    assert event["sim_cpu"] == 0.25


def test_span_attrs_are_serialized():
    tracer = Tracer(SimClock())
    with tracer.span("load", cat="prefetch", index=3):
        pass
    (event,) = _spans(tracer)
    assert event["cat"] == "prefetch"
    assert event["attrs"] == {"index": 3}


def test_lines_form_a_schema_valid_trace():
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.begin_run(engine="test", program="none")
    with tracer.span("phase"):
        clock.charge(COMPUTE, 0.1)
    tracer.metrics.inc("things")
    lines = tracer.lines()
    events = validate_trace_lines(lines)
    header = json.loads(lines[0])
    assert header["type"] == "meta"
    assert header["engine"] == "test"
    # Final metrics snapshot rides along as the last line.
    assert json.loads(lines[-1])["metrics"]["counters"] == {"things": 1}
    assert any(e["type"] == "span" for e in events)


def test_write_round_trips_through_file(tmp_path):
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.begin_run(engine="test")
    with tracer.span("phase"):
        clock.charge(COMPUTE, 0.1)
    path = tmp_path / "t.jsonl"
    tracer.write(str(path))
    from repro.obs import validate_trace_file

    events = validate_trace_file(str(path))
    assert [e["type"] for e in events].count("span") == 1


def test_null_tracer_is_shared_and_inert():
    assert NULL_TRACER.enabled is False
    span_a = NULL_TRACER.span("anything", cat="x", attr=1)
    span_b = NULL_TRACER.span("other")
    # One reusable null span: the disabled path allocates nothing.
    assert span_a is span_b
    with span_a:
        span_a.override_sim(1.0, 1.0, 0.0)
    NULL_TRACER.bind_clock(SimClock())
    NULL_TRACER.begin_run(engine="x")
    NULL_TRACER.iteration({})
    NULL_TRACER.run_summary({})
    NULL_TRACER.write("/nonexistent/never-written")  # no-op, must not raise


def test_unbound_tracer_reports_zero_sim_time():
    tracer = Tracer()
    with tracer.span("s"):
        pass
    (event,) = _spans(tracer)
    assert event["sim_dur"] == 0.0
    assert event["sim_start"] == 0.0
