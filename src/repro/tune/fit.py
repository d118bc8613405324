"""Fit §4.1 cost-model constants from scheduler-decision audit logs.

The tracer records, for every adaptive decision, the predicted cost
of both I/O models and the simulated cost the decided iteration actually
charged (``type == "audit"`` events in the trace JSONL). This module
regresses predicted-vs-actual per model bucket; ``graphsd tune`` prints
the result. It is a report: nothing feeds the scales back into the
scheduler.

The fit is a deterministic least-squares-through-origin per bucket::

    scale = sum(pred * actual) / sum(pred ** 2)

— the multiplier minimizing ``sum((scale * pred - actual)^2)``. Buckets:

* **full**: decisions that chose (and ran) the full model; predicted
  cost is ``c_full``.
* **on_demand**: decisions that chose on-demand *and actually ran SCIU*
  — fault-degraded rounds executed FCIU, so their actual cost says
  nothing about ``C_r`` and is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.obs.schema import validate_trace_file


@dataclass(frozen=True)
class AuditSample:
    """One closed scheduler decision, joined with its trace's run meta."""

    program: str
    num_vertices: int
    num_edges: int
    chosen: str
    c_full: float
    c_on_demand: float
    actual_sim_seconds: float
    actual_io_seconds: float
    s_seq_bytes: float
    s_ran_bytes: float


@dataclass
class FitReport:
    """The fitted scales, their sample counts and the skipped audits."""

    #: Multiplier mapping predicted ``C_s`` / ``C_r`` onto the simulated
    #: cost charged; 1.0 when its bucket is underdetermined.
    full_cost_scale: float
    on_demand_cost_scale: float
    samples_full: int
    samples_on_demand: int
    samples: List[AuditSample]
    skipped_open: int
    skipped_degraded: int

    def render(self) -> str:
        return "\n".join(
            [
                "fitted cost-model scales",
                f"  full_cost_scale       {self.full_cost_scale:.6f}  "
                f"({self.samples_full} decisions)",
                f"  on_demand_cost_scale  {self.on_demand_cost_scale:.6f}  "
                f"({self.samples_on_demand} decisions)",
                f"  audit records used    {len(self.samples)}"
                f"  (open skipped: {self.skipped_open},"
                f" fault-degraded skipped: {self.skipped_degraded})",
            ]
        )


def load_audit_samples(path: str) -> Tuple[List[AuditSample], int, int]:
    """Read one trace file's closed audit samples.

    Returns ``(samples, skipped_open, skipped_degraded)``. The file goes
    through :func:`~repro.obs.schema.validate_trace_file`, so a file that
    is not a valid trace raises :class:`~repro.obs.schema.TraceSchemaError`
    (a :class:`ValueError`) naming the offending line.
    """
    events = validate_trace_file(path)
    meta = events[0]
    samples: List[AuditSample] = []
    skipped_open = 0
    skipped_degraded = 0
    for event in events:
        if event["type"] != "audit":
            continue
        if event["actual_sim_seconds"] is None:
            skipped_open += 1
            continue
        if event["actual_io_seconds"] is None or event["actual_model"] is None:
            raise ValueError(
                f"{path}: audit at iteration {event['iteration']} is closed "
                "without its actual I/O seconds and model"
            )
        if event["chosen"] == "on_demand" and event["actual_model"] != "sciu":
            # A degraded round ran FCIU; its cost is not evidence
            # about the on-demand prediction.
            skipped_degraded += 1
            continue
        samples.append(
            AuditSample(
                program=meta.get("program", "?"),
                num_vertices=meta.get("num_vertices", 0),
                num_edges=meta.get("num_edges", 0),
                chosen=event["chosen"],
                c_full=float(event["c_full"]),
                c_on_demand=float(event["c_on_demand"]),
                actual_sim_seconds=float(event["actual_sim_seconds"]),
                actual_io_seconds=float(event["actual_io_seconds"]),
                s_seq_bytes=float(event["s_seq_bytes"]),
                s_ran_bytes=float(event["s_ran_bytes"]),
            )
        )
    return samples, skipped_open, skipped_degraded


def _fit_scale(pairs: Sequence[Tuple[float, float]]) -> float:
    """Least squares through the origin; 1.0 when underdetermined."""
    num = sum(pred * actual for pred, actual in pairs)
    den = sum(pred * pred for pred, _ in pairs)
    if den <= 0.0 or num <= 0.0:
        return 1.0
    return num / den


def fit_scales(paths: Iterable[str]) -> FitReport:
    """Fit both cost-model scales from one or more trace JSONL files."""
    samples: List[AuditSample] = []
    skipped_open = 0
    skipped_degraded = 0
    for path in paths:
        got, s_open, s_degraded = load_audit_samples(path)
        samples.extend(got)
        skipped_open += s_open
        skipped_degraded += s_degraded

    full_pairs = [
        (s.c_full, s.actual_sim_seconds) for s in samples if s.chosen == "full"
    ]
    od_pairs = [
        (s.c_on_demand, s.actual_sim_seconds)
        for s in samples
        if s.chosen == "on_demand"
    ]

    return FitReport(
        full_cost_scale=_fit_scale(full_pairs),
        on_demand_cost_scale=_fit_scale(od_pairs),
        samples_full=len(full_pairs),
        samples_on_demand=len(od_pairs),
        samples=samples,
        skipped_open=skipped_open,
        skipped_degraded=skipped_degraded,
    )
