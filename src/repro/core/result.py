"""Run records: what every engine execution reports.

Every engine (GraphSD, its ablation variants, and all baselines) returns
a :class:`RunResult` with identical structure, so the benchmark harness
can tabulate execution time (simulated), I/O traffic, per-iteration
traces and breakdowns without knowing which engine produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro.storage.iostats import IOStats
from repro.utils.timers import TimeBreakdown


@dataclass
class IterationRecord:
    """Metrics of one executed iteration (one *sweep* for async engines).

    Synchronous engines emit one record per BSP iteration. The
    asynchronous engine (:mod:`repro.core.async_engine`) emits one
    record per priority *sweep* — the record shape is shared, and
    ``subblocks_processed`` counts the sub-block gathers the
    iteration/sweep issued, the unit the async mode exists to reduce.
    """

    iteration: int
    model: str  # "sciu", "fciu", "full", "async", engine-specific labels
    frontier_size: int
    edges_processed: int
    breakdown: TimeBreakdown
    io: IOStats
    activated: int = 0
    cross_pushed: int = 0
    #: Sub-block gather/stream operations this iteration issued.
    subblocks_processed: int = 0
    #: Cumulative metrics-registry snapshot taken when the iteration
    #: closed (empty when tracing is disabled). See ``repro.obs.metrics``.
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def sim_seconds(self) -> float:
        return self.breakdown.total

    @property
    def io_bytes(self) -> int:
        return self.io.total_traffic

    @property
    def overlap_saved_seconds(self) -> float:
        """Simulated time this iteration hid via I/O–compute overlap."""
        return self.breakdown.overlap_saved

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON form (also the trace stream's iteration payload)."""
        return {
            "iteration": self.iteration,
            "model": self.model,
            "frontier_size": self.frontier_size,
            "edges_processed": self.edges_processed,
            "activated": self.activated,
            "cross_pushed": self.cross_pushed,
            "subblocks_processed": self.subblocks_processed,
            "sim_seconds": self.breakdown.total,
            "overlap_saved": self.breakdown.overlap_saved,
            "sim": dict(self.breakdown.components),
            "io": self.io.to_dict(),
            "metrics": dict(self.metrics),
        }


@dataclass
class RunResult:
    """Outcome of one algorithm execution on one engine."""

    engine: str
    program: str
    num_vertices: int
    num_edges: int
    iterations: int
    converged: bool
    values: np.ndarray
    state: Dict[str, np.ndarray]
    breakdown: TimeBreakdown
    io: IOStats
    wall_seconds: float
    per_iteration: List[IterationRecord] = field(default_factory=list)
    #: Faults the run absorbed (retry exhaustion fallbacks, degradations);
    #: empty on a clean run.
    fault_events: List[str] = field(default_factory=list)
    #: Robustness counters (empty on a clean single-process run). Cluster
    #: runs populate: ``net_retries``, ``net_backoff_seconds``,
    #: ``msgs_dropped``, ``msgs_duplicated``, ``msgs_corrupted``,
    #: ``worker_recoveries``, ``stragglers_degraded``.
    recovery: Dict[str, Any] = field(default_factory=dict)
    #: Priority sweeps executed (asynchronous engines only; ``None`` for
    #: synchronous engines, whose unit of progress is ``iterations``).
    #: For async runs ``per_iteration`` holds one record per sweep and
    #: ``iterations`` counts the same records, so the classic counter
    #: keeps its meaning of "number of records".
    sweeps: "int | None" = None

    @property
    def sim_seconds(self) -> float:
        """Total modeled execution time (the headline Table 4 metric)."""
        return self.breakdown.total

    @property
    def io_seconds(self) -> float:
        return self.breakdown.io

    @property
    def compute_seconds(self) -> float:
        return self.breakdown.compute

    @property
    def io_traffic(self) -> int:
        """Total bytes moved (the Fig. 7 metric)."""
        return self.io.total_traffic

    # -- pipeline and buffer observability --------------------------------

    @property
    def overlap_saved_seconds(self) -> float:
        """Simulated time hidden by I/O–compute overlap (0 when serial)."""
        return self.breakdown.overlap_saved

    @property
    def buffer_hit_bytes(self) -> int:
        return self.io.buffer_hit_bytes

    # -- selective-gather pool observability ------------------------------

    @property
    def gather_runs_issued(self) -> int:
        return self.io.gather_runs_issued

    @property
    def gather_lane_busy_seconds(self) -> float:
        return self.io.gather_lane_busy_seconds

    @property
    def gather_queue_peak(self) -> int:
        return self.io.gather_queue_peak

    @property
    def subblocks_processed(self) -> int:
        """Total sub-block gather/stream operations across all records."""
        return sum(r.subblocks_processed for r in self.per_iteration)

    @property
    def frontier_history(self) -> List[int]:
        return [r.frontier_size for r in self.per_iteration]

    @property
    def model_history(self) -> List[str]:
        return [r.model for r in self.per_iteration]

    def summary(self) -> str:
        """One-line human-readable digest."""
        overlap = (
            f"overlap saved {self.overlap_saved_seconds:.3f}s, "
            if self.overlap_saved_seconds > 0
            else ""
        )
        gather = (
            f"gather {self.gather_runs_issued} runs "
            f"(peak lane queue {self.gather_queue_peak}), "
            if self.gather_runs_issued > 0
            else ""
        )
        faults = (
            f", {len(self.fault_events)} fault(s) absorbed"
            if self.fault_events
            else ""
        )
        recovery = ""
        if self.recovery:
            absorbed = sum(
                int(self.recovery.get(k, 0))
                for k in ("msgs_dropped", "msgs_duplicated", "msgs_corrupted")
            )
            bits = []
            if self.recovery.get("net_retries"):
                bits.append(f"net retries {self.recovery['net_retries']}")
            if absorbed:
                bits.append(f"msg faults absorbed {absorbed}")
            if self.recovery.get("worker_recoveries"):
                bits.append(f"worker recoveries {self.recovery['worker_recoveries']}")
            if self.recovery.get("stragglers_degraded"):
                bits.append(f"stragglers degraded {self.recovery['stragglers_degraded']}")
            if bits:
                recovery = ", " + ", ".join(bits)
        sweeps = f" ({self.sweeps} sweeps)" if self.sweeps is not None else ""
        return (
            f"{self.engine}/{self.program}: {self.iterations} iters{sweeps}, "
            f"sim {self.sim_seconds:.3f}s (io {self.io_seconds:.3f}s, "
            f"compute {self.compute_seconds:.3f}s), {overlap}{gather}"
            f"traffic {self.io_traffic / (1 << 20):.1f} MiB, "
            f"{'converged' if self.converged else 'iteration cap reached'}"
            f"{faults}{recovery}"
        )

    def trace_summary(self, **extra: Any) -> Dict[str, Any]:
        """The trace's closing ``run`` event payload; ``extra`` is appended
        (the cluster adds ``workers``)."""
        head: Dict[str, Any] = {} if self.sweeps is None else {"sweeps": self.sweeps}
        return head | {
            "engine": self.engine,
            "program": self.program,
            "iterations": self.iterations,
            "converged": self.converged,
            "sim_seconds": self.breakdown.total,
            "overlap_saved": self.breakdown.overlap_saved,
            "sim": dict(self.breakdown.components),
            "io": self.io.to_dict(),
            "wall_seconds": self.wall_seconds,
            "fault_events": list(self.fault_events),
            "recovery": dict(self.recovery),
        } | extra

    def values_sha256(self) -> str:
        """Digest of the result values (bit-exact identity check)."""
        return hashlib.sha256(
            np.ascontiguousarray(self.values).tobytes()
        ).hexdigest()

    def to_dict(self, include_values: bool = False) -> Dict[str, Any]:
        """The full result as stable, JSON-serializable data.

        ``values`` are summarized by their SHA-256 by default (bitwise
        identity without megabytes of floats); ``include_values=True``
        inlines the full array as a list.
        """
        out: Dict[str, Any] = {
            "engine": self.engine,
            "program": self.program,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "iterations": self.iterations,
            "converged": self.converged,
            "sim_seconds": self.sim_seconds,
            "wall_seconds": self.wall_seconds,
            "subblocks_processed": self.subblocks_processed,
            "breakdown": self.breakdown.to_dict(),
            "io": self.io.to_dict(),
            "per_iteration": [r.to_dict() for r in self.per_iteration],
            "fault_events": list(self.fault_events),
            "recovery": dict(self.recovery),
            "values_dtype": str(self.values.dtype),
            "values_sha256": self.values_sha256(),
        }
        if self.sweeps is not None:
            out["sweeps"] = self.sweeps
        if include_values:
            out["values"] = self.values.tolist()
        return out


def equivalence_diff(a: RunResult, b: RunResult) -> List[str]:
    """Differences between two runs that *should* be identical.

    Used to assert that observability (tracing) and pipelining change
    nothing observable: values must be bit-identical, iteration structure
    and simulated time must match exactly, and every ``IOStats`` counter
    must agree.
    Returns human-readable difference descriptions; empty == equivalent.
    """
    diffs: List[str] = []
    for attr in ("engine", "program", "iterations", "converged"):
        if getattr(a, attr) != getattr(b, attr):
            diffs.append(f"{attr}: {getattr(a, attr)!r} != {getattr(b, attr)!r}")
    if a.values.dtype != b.values.dtype or not np.array_equal(a.values, b.values):
        diffs.append("values differ")
    if a.breakdown.to_dict() != b.breakdown.to_dict():
        diffs.append(f"breakdown: {a.breakdown!r} != {b.breakdown!r}")
    io_a, io_b = a.io.to_dict(), b.io.to_dict()
    for name in io_a:
        if io_a[name] != io_b[name]:
            diffs.append(f"io.{name}: {io_a[name]} != {io_b[name]}")
    if len(a.per_iteration) != len(b.per_iteration):
        diffs.append(
            f"per_iteration length: {len(a.per_iteration)} != {len(b.per_iteration)}"
        )
    else:
        for ra, rb in zip(a.per_iteration, b.per_iteration):
            da, db = ra.to_dict(), rb.to_dict()
            # metrics snapshots exist only on the traced side.
            for d in (da, db):
                d.pop("metrics")
            if da != db:
                diffs.append(f"iteration {ra.iteration} records differ")
    return diffs
