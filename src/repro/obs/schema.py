"""The ``graphsd-trace`` format: its one schema, writer and reader.

A trace file is newline-delimited JSON. The first line is a ``meta``
record naming :data:`TRACE_SCHEMA` and :data:`TRACE_VERSION` (there is
one version; a trace declaring any other fails validation); every
following line is one event whose ``type`` selects its fields in
:data:`_REQUIRED` (always present) and :data:`_OPTIONAL` (typed when
present). ``span`` and ``iteration`` events may carry a ``worker`` tag
naming their originating process (a worker id, ``"coord"`` or
``"all"``); only a merged cluster trace (:mod:`repro.obs.distributed`)
sets it, and the Perfetto export places events by it.

Validation is structural (types and required keys, down to the numbers
inside the ``sim``/``io``/``workers``/metrics maps), deliberately
dependency-free — no jsonschema package — and strict about unknown event
types so schema drift fails loudly. :func:`write_trace_file` is the one
writer and :func:`validate_trace_file` the one reader every consumer
(report, export, critical path, ``graphsd tune``) goes through.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

TRACE_SCHEMA = "graphsd-trace"
TRACE_VERSION = 1

#: A field spec is a tuple of accepted Python types (``type(None)`` =
#: nullable), an :class:`_Each`, or a ``{field: spec}`` dict — a nested
#: object with those required fields.
_NUMERIC = (int, float)


class _Each:
    """Field spec: a JSON object whose every value matches ``spec``."""

    def __init__(self, spec: Any) -> None:
        self.spec = spec


_NUMBERS = _Each(_NUMERIC)

#: A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.
_SNAPSHOT = {
    "counters": _NUMBERS,
    "gauges": _NUMBERS,
    "histograms": _Each(
        {
            "count": (int,),
            "sum": _NUMERIC,
            "min": _NUMERIC,
            "max": _NUMERIC,
            "buckets": _Each((int,)),
        }
    ),
}

#: type -> {field: spec} for the fields every event of that type carries.
_REQUIRED: Dict[str, Dict[str, Any]] = {
    # The header; free-form run identity (engine, program, ...) follows.
    "meta": {
        "schema": (str,),
        "version": (int,),
    },
    # One closed phase on both timelines: simulated seconds (split into
    # the DISK and CPU resources) and host seconds.
    "span": {
        "id": (int,),
        "parent": (int, type(None)),
        "thread": (str,),
        "name": (str,),
        "cat": (str,),
        "sim_start": _NUMERIC,
        "sim_dur": _NUMERIC,
        "sim_disk": _NUMERIC,
        "sim_cpu": _NUMERIC,
        "wall_start": _NUMERIC,
        "wall_dur": _NUMERIC,
        "attrs": (dict,),
    },
    # One IterationRecord, exactly: ``sim`` is its breakdown's component
    # map, ``io`` its IOStats fields, ``metrics`` a registry snapshot.
    "iteration": {
        "iteration": (int,),
        "model": (str,),
        "frontier_size": (int,),
        "edges_processed": (int,),
        "activated": (int,),
        "cross_pushed": (int,),
        "sim_start": _NUMERIC,
        "sim_seconds": _NUMERIC,
        "sim": _NUMBERS,
        "io": _NUMBERS,
        "metrics": (dict,),
    },
    # One §4.1 scheduler decision (DecisionRecord.to_event): predicted
    # costs and byte split, then — once closed — the actual ones.
    "audit": {
        "iteration": (int,),
        "chosen": (str,),
        "c_full": _NUMERIC,
        "c_on_demand": _NUMERIC,
        "predicted_seconds": _NUMERIC,
        "active_vertices": (int,),
        "active_edges": (int,),
        "s_seq_bytes": _NUMERIC,
        "s_ran_bytes": _NUMERIC,
        "index_bytes": _NUMERIC,
        "actual_sim_seconds": (int, float, type(None)),
        "actual_io_seconds": (int, float, type(None)),
        "actual_model": (str, type(None)),
    },
    # The closing registry snapshot.
    "metrics": {
        "scope": (str,),
        "metrics": _SNAPSHOT,
    },
    # The run's exact totals (RunResult.trace_summary).
    "run": {
        "engine": (str,),
        "iterations": (int,),
        "converged": (bool,),
        "sim_seconds": _NUMERIC,
        "sim": _NUMBERS,
        "io": _NUMBERS,
    },
    # One cluster recovery action (rollback, replay, degrade).
    "recovery": {
        "worker": (int, str),
        "event": (str,),
        "superstep": (int,),
        "detail": (dict,),
    },
    # One asynchronous-mode priority pop (PriorityDecision.to_event).
    "priority": {
        "sweep": (int,),
        "rank": (int,),
        "interval": (int,),
        "score": _NUMERIC,
        "candidates": (int,),
        "pending_vertices": (int,),
        "new_activations": (int,),
        "selective_blocks": (int,),
        "full_blocks": (int,),
    },
    # One coordinator barrier fold: cluster time at its opening edge,
    # each worker's exact delta/components and local clock there, and
    # the summed breakdown with the overlap fold applied.
    "barrier": {
        "superstep": (int,),
        "kind": (str,),
        "sim_start": _NUMERIC,
        "workers": _Each(
            {
                "delta": _NUMERIC,
                "saved": _NUMERIC,
                "local_start": _NUMERIC,
                "components": _NUMBERS,
            }
        ),
        "sim_seconds": _NUMERIC,
        "sim": _NUMBERS,
        "overlap_saved": _NUMERIC,
    },
    # One message edge keyed by ValueMessage identity (sender ``worker``,
    # ``seq``, ``dst``), on the sender's clock; the merger adds the
    # receiver's ``recv_sim_time``.
    "send": {
        "worker": (int,),
        "dst": (int,),
        "seq": (int,),
        "superstep": (int,),
        "interval": (int,),
        "nbytes": (int,),
        "sim_time": _NUMERIC,
        "status": (str,),
    },
}

#: type -> {field: spec} for fields that MAY appear: typed wherever a
#: consumer reads them, so a present field is never a surprise.
_OPTIONAL: Dict[str, Dict[str, Any]] = {
    "meta": {
        "program": (str,),
        "num_vertices": (int,),
        "num_edges": (int,),
    },
    "audit": {
        "abs_error": (int, float, type(None)),
        "rel_error": (int, float, type(None)),
    },
    "run": {
        "overlap_saved": _NUMERIC,
        "recovery": (dict,),
        "workers": (int,),
        "sweeps": (int,),
    },
    "iteration": {
        "worker": (int, str),
        "subblocks_processed": (int,),
    },
    "span": {
        "worker": (int, str),
    },
    "send": {
        "recv_sim_time": _NUMERIC,
    },
}


class TraceSchemaError(ValueError):
    """A trace line violates the graphsd-trace schema."""


def _fail(lineno: int, message: str) -> None:
    raise TraceSchemaError(f"trace line {lineno}: {message}")


def _check_fields(
    lineno: int,
    owner: str,
    path: str,
    obj: Dict[str, Any],
    required: Dict[str, Any],
    optional: Dict[str, Any],
) -> None:
    """Check ``obj``'s fields; ``owner`` names it in a missing-field error."""
    for key, spec in required.items():
        if key not in obj:
            _fail(lineno, f"{owner} missing field {key!r}")
        _check(lineno, f"{path}.{key}", obj[key], spec)
    for key, spec in optional.items():
        if key in obj:
            _check(lineno, f"{path}.{key}", obj[key], spec)


def _check(lineno: int, path: str, value: Any, spec: Any) -> None:
    """Fail unless ``value`` (found at ``path``) matches the field ``spec``."""
    if isinstance(spec, _Each):
        _check(lineno, path, value, (dict,))
        for key, item in value.items():
            _check(lineno, f"{path}[{key!r}]", item, spec.spec)
    elif isinstance(spec, dict):
        _check(lineno, path, value, (dict,))
        _check_fields(lineno, path, path, value, spec, {})
    # bool is an int subclass; reject it for numeric fields.
    elif (isinstance(value, bool) and bool not in spec) or not isinstance(value, spec):
        _fail(
            lineno,
            f"{path} has type {type(value).__name__}, "
            f"expected one of {[t.__name__ for t in spec]}",
        )


def validate_trace_lines(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """Parse and validate JSONL trace lines; return the event dicts.

    Raises :class:`TraceSchemaError` on the first violation. Blank lines
    are ignored. The first non-blank line must be the ``meta`` record
    with the expected schema name and version.
    """
    events: List[Dict[str, Any]] = []
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except json.JSONDecodeError as exc:
            _fail(lineno, f"invalid JSON ({exc})")
        if not isinstance(event, dict):
            _fail(lineno, "event is not a JSON object")
        etype = event.get("type")
        if not events and etype != "meta":
            _fail(lineno, f"first event must be 'meta', got {etype!r}")
        if not isinstance(etype, str) or etype not in _REQUIRED:
            _fail(lineno, f"unknown event type {etype!r}")
        _check_fields(
            lineno,
            f"{etype} event",
            etype,
            event,
            _REQUIRED[etype],
            _OPTIONAL.get(etype, {}),
        )
        for key, want in (("schema", TRACE_SCHEMA), ("version", TRACE_VERSION)):
            if not events and event[key] != want:
                _fail(lineno, f"unexpected {key} {event[key]!r}, want {want!r}")
        events.append(event)
    if not events:
        raise TraceSchemaError("trace is empty")
    return events


def validate_trace_file(path: str) -> List[Dict[str, Any]]:
    """Validate a JSONL trace file; return its event dicts."""
    # charged-io-ok: host-side trace file, not simulated graph I/O
    with open(path, "r") as f:
        return validate_trace_lines(f)


def _jsonable(value: Any) -> Any:
    """JSON fallback for numpy scalars and other ``.item()`` carriers."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def trace_line(event: Dict[str, Any]) -> str:
    """One event as its JSONL line (without the newline)."""
    return json.dumps(event, default=_jsonable)


def write_trace_file(path: str, events: Iterable[Dict[str, Any]]) -> None:
    """Write ``events`` (the ``meta`` line first) to ``path`` as JSONL."""
    # charged-io-ok: host-side trace file, not simulated graph I/O
    with open(path, "w") as f:
        for event in events:
            f.write(trace_line(event) + "\n")
