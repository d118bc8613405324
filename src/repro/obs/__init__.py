"""Observability: structured tracing, metrics, and scheduler audit.

``repro.obs`` is the one place in the codebase that is *allowed* to read
the wall clock (GSD101 exempts it): it records real elapsed time next to
the deterministic simulated timelines so traces can answer both "where
did modeled time go" and "where did this Python process actually spend
its life".

Three cooperating pieces, all reachable from one :class:`Tracer`:

* :class:`Tracer` / :class:`Span` — nested dual-timeline spans (sim
  DISK/CPU seconds from the :class:`~repro.utils.timers.SimClock` plus
  wall seconds) for every engine phase, emitted as JSONL and exportable
  to Chrome ``chrome://tracing`` / Perfetto via ``graphsd trace export``;
* :class:`MetricsRegistry` — counters, gauges and power-of-two
  histograms (sub-block read sizes, frontier densities, buffer
  occupancy), snapshotted per iteration into
  :class:`~repro.core.result.IterationRecord`;
* :class:`SchedulerAudit` — one record per §4.1 benefit evaluation with
  the predicted ``C_s``/``C_r``, the chosen model, and (closed after the
  iteration executes) the actual simulated cost, so ``graphsd trace
  report`` can print prediction error and model-flip points (Fig. 10).

Tracing is strictly zero-cost when disabled: engines hold the shared
:data:`NULL_TRACER`, whose every operation is a no-op, and results are
bit-identical with tracing on or off (the tracer only ever *reads* the
simulated clock). See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.audit import DecisionRecord, SchedulerAudit
from repro.obs.critpath import (
    CriticalPathError,
    CriticalPathReport,
    analyze_events,
    analyze_file,
)
from repro.obs.distributed import (
    TraceMergeError,
    merge_cluster_trace,
    merge_trace_events,
)
from repro.obs.export import export_file, to_chrome_trace
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    PEAK_RSS_GAUGE,
    peak_rss_bytes,
)
from repro.obs.report import render_report
from repro.obs.schema import (
    TRACE_SCHEMA,
    TRACE_VERSION,
    TraceSchemaError,
    validate_trace_file,
    validate_trace_lines,
    write_trace_file,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

from typing import Union

#: What engines hold: a real tracer or the shared no-op one.
TracerLike = Union[Tracer, NullTracer]
#: What instrumented components hold: a real registry or the no-op one.
MetricsLike = Union[MetricsRegistry, NullMetrics]

__all__ = [
    "TracerLike",
    "MetricsLike",
    "CriticalPathError",
    "CriticalPathReport",
    "analyze_events",
    "analyze_file",
    "TraceMergeError",
    "merge_cluster_trace",
    "merge_trace_events",
    "DecisionRecord",
    "SchedulerAudit",
    "export_file",
    "to_chrome_trace",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "PEAK_RSS_GAUGE",
    "peak_rss_bytes",
    "render_report",
    "TRACE_SCHEMA",
    "TRACE_VERSION",
    "TraceSchemaError",
    "validate_trace_file",
    "validate_trace_lines",
    "write_trace_file",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
]
