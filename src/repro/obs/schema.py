"""Trace JSONL schema and validation.

A trace file is newline-delimited JSON. The first line is a ``meta``
record naming the schema and version; every following line is one event
whose ``type`` selects its required fields:

``meta``
    ``schema`` (= :data:`TRACE_SCHEMA`), ``version`` (= :data:`TRACE_VERSION`),
    plus free-form run identity (engine, program, dataset, ...).
``span``
    Closed dual-timeline span: ``id``, ``parent`` (id or null),
    ``thread``, ``name``, ``cat``, ``sim_start``/``sim_dur`` (simulated
    seconds), ``sim_disk``/``sim_cpu`` (per-resource split),
    ``wall_start``/``wall_dur`` (host seconds), ``attrs`` (object).
``iteration``
    Exact per-iteration record mirroring
    :class:`~repro.core.result.IterationRecord`: ``iteration``,
    ``model``, ``frontier_size``, ``edges_processed``, ``activated``,
    ``cross_pushed``, ``sim_seconds``, ``sim`` (component map), ``io``
    (IOStats field map), ``metrics`` (registry snapshot), ``sim_start``.
``audit``
    A closed scheduler decision (see
    :class:`~repro.obs.audit.DecisionRecord.to_event`): predicted
    ``c_full``/``c_on_demand``, ``chosen``, actual costs and errors.
``metrics``
    A registry snapshot outside iteration records (``scope`` +
    ``metrics``).
``run``
    The closing summary with the run's exact totals: ``engine``,
    ``iterations``, ``converged``, ``sim_seconds``, ``sim``, ``io``.
    Cluster runs may attach the optional ``recovery`` counter map and
    ``workers`` count.
``recovery``
    One cluster recovery-audit action: ``worker``, ``event`` (e.g.
    ``"rollback"``, ``"replay"``, ``"degrade"``), ``superstep``,
    ``detail`` (free-form object).
``priority``
    One asynchronous-mode priority-queue pop (see
    :class:`~repro.obs.audit.PriorityDecision`): ``sweep``, ``rank``,
    ``interval``, ``score``, ``candidates``, ``pending_vertices``,
    ``new_activations``, ``selective_blocks``, ``full_blocks``.

**Version 2 (distributed traces).** A merged cluster trace (built by
:mod:`repro.obs.distributed`) declares ``version: 2`` in its meta line
and may additionally contain:

``barrier``
    One coordinator barrier fold: ``superstep``, ``kind`` (``"init"``,
    ``"superstep"``, or ``"degrade"``), ``sim_start`` (cluster time at
    the barrier's opening edge), ``workers`` (per-worker map with the
    exact ``delta``/``components``/``local_start`` published by
    ``_fold_barrier``), ``sim_seconds``/``sim``/``overlap_saved`` (the
    summed breakdown with the overlap fold applied).
``send``
    One message-passing causal edge keyed by ValueMessage identity:
    ``worker`` (sender), ``dst``, ``seq``, ``superstep``, ``interval``,
    ``nbytes``, ``sim_time`` (sender-local clock at send), ``status``
    (``"accepted"``/``"duplicate"``). The merger may attach the optional
    receiver-side ``recv_sim_time`` for Perfetto flow arrows.

Version-2 ``span`` and ``iteration`` events may carry the optional
``worker`` tag identifying their originating process. Version-1 traces
stay exactly as strict as before: ``barrier``/``send`` events are
rejected there.

Validation here is structural (types and required keys), deliberately
dependency-free — no jsonschema package — and strict about unknown event
types so schema drift fails loudly in CI's bench-smoke job.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

TRACE_SCHEMA = "graphsd-trace"
TRACE_VERSION = 1
#: Version declared by merged distributed traces (adds barrier/send
#: events and per-event worker tags; see repro.obs.distributed).
TRACE_VERSION_DISTRIBUTED = 2

_NUMERIC = (int, float)

#: type -> {field: expected python types}; ``None`` in a tuple = nullable.
_REQUIRED: Dict[str, Dict[str, tuple]] = {
    "meta": {
        "schema": (str,),
        "version": (int,),
    },
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
    "iteration": {
        "iteration": (int,),
        "model": (str,),
        "frontier_size": (int,),
        "edges_processed": (int,),
        "activated": (int,),
        "cross_pushed": (int,),
        "sim_start": _NUMERIC,
        "sim_seconds": _NUMERIC,
        "sim": (dict,),
        "io": (dict,),
        "metrics": (dict,),
    },
    "audit": {
        "iteration": (int,),
        "chosen": (str,),
        "c_full": _NUMERIC,
        "c_on_demand": _NUMERIC,
        "predicted_seconds": _NUMERIC,
        "active_vertices": (int,),
        "active_edges": (int,),
        "actual_sim_seconds": (int, float, type(None)),
        "actual_io_seconds": (int, float, type(None)),
        "actual_model": (str, type(None)),
    },
    "metrics": {
        "scope": (str,),
        "metrics": (dict,),
    },
    "run": {
        "engine": (str,),
        "iterations": (int,),
        "converged": (bool,),
        "sim_seconds": _NUMERIC,
        "sim": (dict,),
        "io": (dict,),
    },
    "recovery": {
        "worker": (int, str),
        "event": (str,),
        "superstep": (int,),
        "detail": (dict,),
    },
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
}

#: Event types valid only in version-2 (distributed) traces.
_V2_REQUIRED: Dict[str, Dict[str, tuple]] = {
    "barrier": {
        "superstep": (int,),
        "kind": (str,),
        "sim_start": _NUMERIC,
        "workers": (dict,),
        "sim_seconds": _NUMERIC,
        "sim": (dict,),
        "overlap_saved": _NUMERIC,
    },
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

#: type -> {field: expected python types} for fields that MAY appear.
#: Optional fields keep old traces valid (version 1 is unchanged) while
#: still type-checking new producers — cluster runs attach ``recovery``
#: counter maps and worker identity to existing event types.
_OPTIONAL: Dict[str, Dict[str, tuple]] = {
    "run": {
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


def validate_trace_lines(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """Parse and validate JSONL trace lines; return the event dicts.

    Raises :class:`TraceSchemaError` on the first violation. Blank lines
    are ignored. The first non-blank line must be the ``meta`` record
    with the expected schema name and version.
    """
    events: List[Dict[str, Any]] = []
    version = TRACE_VERSION
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
        if not events:
            if etype != "meta":
                _fail(lineno, f"first event must be 'meta', got {etype!r}")
            if isinstance(event.get("version"), int):
                version = event["version"]
        known = dict(_REQUIRED)
        if version == TRACE_VERSION_DISTRIBUTED:
            known.update(_V2_REQUIRED)
        if not isinstance(etype, str) or etype not in known:
            _fail(lineno, f"unknown event type {etype!r}")
        spec = known[etype]
        for key, types in spec.items():
            if key not in event:
                _fail(lineno, f"{etype} event missing field {key!r}")
            value = event[key]
            # bool is an int subclass; reject it for numeric fields.
            bad = (isinstance(value, bool) and bool not in types) or not isinstance(
                value, types
            )
            if bad:
                _fail(
                    lineno,
                    f"{etype}.{key} has type {type(value).__name__}, "
                    f"expected one of {[t.__name__ for t in types]}",
                )
        for key, types in _OPTIONAL.get(etype, {}).items():
            if key not in event:
                continue
            value = event[key]
            bad = (isinstance(value, bool) and bool not in types) or not isinstance(
                value, types
            )
            if bad:
                _fail(
                    lineno,
                    f"{etype}.{key} has type {type(value).__name__}, "
                    f"expected one of {[t.__name__ for t in types]}",
                )
        events.append(event)
    if not events:
        raise TraceSchemaError("trace is empty")
    meta = events[0]
    if meta.get("schema") != TRACE_SCHEMA:
        raise TraceSchemaError(
            f"unexpected schema {meta.get('schema')!r}, want {TRACE_SCHEMA!r}"
        )
    if meta.get("version") not in (TRACE_VERSION, TRACE_VERSION_DISTRIBUTED):
        raise TraceSchemaError(
            f"unexpected version {meta.get('version')!r}, want "
            f"{TRACE_VERSION} or {TRACE_VERSION_DISTRIBUTED}"
        )
    return events


def validate_trace_file(path: str) -> List[Dict[str, Any]]:
    """Validate a JSONL trace file; return its event dicts."""
    # charged-io-ok: host-side trace file, not simulated graph I/O
    with open(path, "r") as f:
        return validate_trace_lines(f)
