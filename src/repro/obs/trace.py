"""Dual-timeline span tracer.

A :class:`Tracer` records the nested phases of an engine run — the run
itself, per-iteration scatter/gather/apply, sub-block loads, prefetch
worker activity, checkpoint writes — as :class:`Span`s carrying *both*
timelines side by side:

* **simulated seconds** from the engine's deterministic
  :class:`~repro.utils.timers.SimClock`, split into the DISK and CPU
  resources (these fields are bit-reproducible across runs);
* **wall seconds** from ``time.perf_counter`` (the only place in the
  project allowed to read the wall clock outside annotated sites — rule
  GSD101 exempts ``repro.obs``).

Spans nest per thread (the prefetch worker's spans form their own root
chain, labelled with the thread name) and are appended to an in-memory
event list when they close; :meth:`Tracer.write` serializes the whole
trace as JSONL (schema in :mod:`repro.obs.schema`), which ``graphsd
trace export`` converts to Chrome/Perfetto ``trace_event`` JSON.

The disabled path is the shared :data:`NULL_TRACER`: every method is a
no-op, :meth:`NullTracer.span` hands back one reusable null context
manager, and no clock, lock, or allocation is touched — engines keep
bit-identical results and identical :class:`~repro.storage.iostats.IOStats`
with tracing on or off.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.audit import PriorityDecision, SchedulerAudit
from repro.obs.metrics import MetricsRegistry, NULL_METRICS, NullMetrics
from repro.obs.schema import TRACE_SCHEMA, TRACE_VERSION
from repro.utils.timers import SimClock


def _jsonable(value: Any) -> Any:
    """JSON fallback for numpy scalars and other ``.item()`` carriers."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


class Span:
    """One traced stretch of execution; use as a context manager."""

    __slots__ = (
        "tracer", "name", "cat", "attrs", "span_id", "parent_id", "thread",
        "wall_start", "sim_start", "sim_disk_start", "sim_cpu_start",
        "_sim_override",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.thread = ""
        self.wall_start = 0.0
        self.sim_start = 0.0
        self.sim_disk_start = 0.0
        self.sim_cpu_start = 0.0
        self._sim_override: Optional[Dict[str, float]] = None

    def __enter__(self) -> "Span":
        self.tracer._open_span(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.tracer._close_span(self)

    def override_sim(self, sim_dur: float, sim_disk: float, sim_cpu: float) -> None:
        """Pin this span's simulated fields to externally computed deltas.

        Used where an exact, already-published delta exists (e.g. an
        iteration's :class:`~repro.utils.timers.TimeBreakdown`), so the
        span and the record can never disagree by a snapshot race.
        """
        self._sim_override = {
            "sim_dur": float(sim_dur),
            "sim_disk": float(sim_disk),
            "sim_cpu": float(sim_cpu),
        }

    def annotate(self, **attrs: Any) -> None:
        """Add attributes known only once the span's work is done."""
        self.attrs.update(attrs)


class _NullSpan:
    """Reusable no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def override_sim(self, sim_dur: float, sim_disk: float, sim_cpu: float) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Engines are constructed holding the shared :data:`NULL_TRACER`; all
    instrumentation points call straight through it, so the untraced hot
    path costs one attribute load and a no-op call.
    """

    enabled = False
    metrics: NullMetrics = NULL_METRICS

    def bind_clock(self, clock: SimClock) -> None:
        return None

    def begin_run(self, **meta: Any) -> None:
        return None

    def span(self, name: str, cat: str = "phase", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def iteration(self, payload: Dict[str, Any]) -> None:
        return None

    def run_summary(self, payload: Dict[str, Any]) -> None:
        return None

    def recovery(self, payload: Dict[str, Any]) -> None:
        return None

    def send(self, payload: Dict[str, Any]) -> None:
        return None

    def barrier(self, payload: Dict[str, Any]) -> None:
        return None

    def audit_open(self, iteration: int, estimate: Any) -> None:
        return None

    def audit_close(
        self, actual_sim_seconds: float, actual_io_seconds: float, actual_model: str
    ) -> None:
        return None

    def priority(self, decision: Any) -> None:
        return None

    def write(self, path: str) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans, iteration records, metrics, and audit events."""

    enabled = True

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self._stacks = threading.local()
        self._wall0 = time.perf_counter()
        self._meta: Dict[str, Any] = {}
        # Per-worker tracers in a cluster share the coordinator's
        # registry so one final snapshot covers the whole run.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.audit = SchedulerAudit(emit=self._append)
        self.priority_records: List[PriorityDecision] = []

    # -- wiring ------------------------------------------------------------

    def bind_clock(self, clock: SimClock) -> None:
        """Attach the simulated clock spans snapshot (engine attach time)."""
        self._clock = clock

    def begin_run(self, **meta: Any) -> None:
        """Record run identity for the trace's leading meta line."""
        self._meta.update(meta)

    # -- span plumbing -----------------------------------------------------

    def now_wall(self) -> float:
        """Wall seconds since the tracer was created."""
        return time.perf_counter() - self._wall0

    def _sim_now(self) -> Tuple[float, float, float]:
        if self._clock is None:
            return (0.0, 0.0, 0.0)
        return self._clock.resource_snapshot()

    def _stack(self) -> List[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def span(self, name: str, cat: str = "phase", **attrs: Any) -> Span:
        return Span(self, name, cat, attrs)

    def _open_span(self, span: Span) -> None:
        stack = self._stack()
        span.parent_id = stack[-1] if stack else None
        span.thread = threading.current_thread().name
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        stack.append(span.span_id)
        total, disk, cpu = self._sim_now()
        span.sim_start = total
        span.sim_disk_start = disk
        span.sim_cpu_start = cpu
        span.wall_start = self.now_wall()

    def _close_span(self, span: Span) -> None:
        wall_end = self.now_wall()
        total, disk, cpu = self._sim_now()
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        event: Dict[str, Any] = {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "thread": span.thread,
            "name": span.name,
            "cat": span.cat,
            "sim_start": span.sim_start,
            "sim_dur": total - span.sim_start,
            "sim_disk": disk - span.sim_disk_start,
            "sim_cpu": cpu - span.sim_cpu_start,
            "wall_start": span.wall_start,
            "wall_dur": wall_end - span.wall_start,
            "attrs": span.attrs,
        }
        if span._sim_override is not None:
            event.update(span._sim_override)
        self._append(event)

    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    # -- structured events -------------------------------------------------

    def iteration(self, payload: Dict[str, Any]) -> None:
        """Emit one per-iteration record (exact breakdown/IO deltas)."""
        event = {"type": "iteration", "wall": self.now_wall()}
        event.update(payload)
        self._append(event)

    def run_summary(self, payload: Dict[str, Any]) -> None:
        """Emit the closing run record (exact run breakdown/IO totals)."""
        event = {"type": "run", "wall": self.now_wall()}
        event.update(payload)
        self._append(event)

    def recovery(self, payload: Dict[str, Any]) -> None:
        """Emit one cluster recovery-audit action (rollback/replay/degrade).

        ``payload`` must carry the schema's required fields: ``worker``,
        ``event``, ``superstep``, ``detail``.
        """
        event = {"type": "recovery", "wall": self.now_wall()}
        event.update(payload)
        self._append(event)

    def send(self, payload: Dict[str, Any]) -> None:
        """Emit one message-passing causal edge (distributed traces).

        ``payload`` must carry the v2 schema's required fields: ``worker``
        (sender), ``dst``, ``seq``, ``superstep``, ``interval``,
        ``nbytes``, ``sim_time``, ``status``.
        """
        event = {"type": "send"}
        event.update(payload)
        self._append(event)

    def barrier(self, payload: Dict[str, Any]) -> None:
        """Emit one coordinator barrier fold (distributed traces).

        ``payload`` must carry the v2 schema's required fields:
        ``superstep``, ``kind``, ``sim_start``, ``workers``,
        ``sim_seconds``, ``sim``, ``overlap_saved``.
        """
        event = {"type": "barrier"}
        event.update(payload)
        self._append(event)

    def audit_open(self, iteration: int, estimate: Any) -> None:
        self.audit.open(iteration, estimate)

    def audit_close(
        self, actual_sim_seconds: float, actual_io_seconds: float, actual_model: str
    ) -> None:
        self.audit.close(actual_sim_seconds, actual_io_seconds, actual_model)

    def priority(self, decision: "PriorityDecision") -> None:
        """Record one async-mode priority pop (score, rank, realized gain)."""
        self.priority_records.append(decision)
        self._append(decision.to_event())

    # -- output ------------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        """A copy of the recorded events (meta line excluded)."""
        with self._lock:
            return list(self._events)

    def header(self) -> Dict[str, Any]:
        meta: Dict[str, Any] = {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
        }
        meta.update(self._meta)
        return meta

    def lines(self) -> List[str]:
        """The complete trace as JSONL lines (header first)."""
        rows = [self.header()]
        rows.extend(self.events)
        final = self.metrics.snapshot()
        rows.append({"type": "metrics", "scope": "final", "metrics": final})
        return [json.dumps(row, default=_jsonable) for row in rows]

    def write(self, path: str) -> None:
        """Serialize the trace to ``path`` as JSONL."""
        # charged-io-ok: host-side trace file, not simulated graph I/O
        with open(path, "w") as f:
            for line in self.lines():
                f.write(line + "\n")
