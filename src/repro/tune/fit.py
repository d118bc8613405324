"""Fit §4.1 cost-model constants from scheduler-decision audit logs.

The tracer records, for every adaptive decision, the predicted cost
of both I/O models and the simulated cost the decided iteration actually
charged (``type == "audit"`` events in the trace JSONL). This module
closes the loop: it regresses predicted-vs-actual per model bucket and
emits a :class:`~repro.tune.profile.TunedProfile` the engine can feed
back into :meth:`~repro.core.scheduler.StateAwareScheduler.select`.

The fit is a deterministic least-squares-through-origin per bucket::

    scale = sum(pred * actual) / sum(pred ** 2)

— the multiplier minimizing ``sum((scale * pred - actual)^2)``. Buckets:

* **full**: decisions that chose (and ran) the full model; predicted
  cost is ``c_full``.
* **on_demand**: decisions that chose on-demand *and actually ran SCIU*
  — fault-degraded rounds executed FCIU, so their actual cost says
  nothing about ``C_r`` and is excluded.

Knob recommendations are simple share-based heuristics over the same
records (documented in docs/TUNING.md):

* ``gather_lanes`` from the random share of selective bytes,
  ``ran_share = sum(s_ran) / sum(s_ran + s_seq)`` over on-demand
  decisions — random-dominated gathers have the most independent
  requests to overlap (>=0.75 -> 8, >=0.5 -> 4, >=0.25 -> 2, else 1);
* ``prefetch_depth`` from the I/O share of simulated time,
  ``io_share = sum(actual_io) / sum(actual_sim)`` — I/O-bound runs
  benefit from lookahead (>=0.9 -> 4, >=0.5 -> 2, else 1).

Fit traces with the *untuned* engine (no ``--autotune``): predictions in
an already-scaled run would regress the residual, not the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.obs.schema import validate_trace_file
from repro.tune.profile import Recommendation, TunedProfile


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
    """Everything ``graphsd tune`` prints alongside the profile."""

    profile: TunedProfile
    samples: List[AuditSample] = field(default_factory=list)
    skipped_open: int = 0
    skipped_degraded: int = 0

    def render(self) -> str:
        p = self.profile
        lines = [
            f"tuned profile (machine={p.machine})",
            f"  full_cost_scale       {p.full_cost_scale:.6f}  "
            f"({p.samples_full} decisions)",
            f"  on_demand_cost_scale  {p.on_demand_cost_scale:.6f}  "
            f"({p.samples_on_demand} decisions)",
            f"  audit records used    {len(self.samples)}"
            f"  (open skipped: {self.skipped_open},"
            f" fault-degraded skipped: {self.skipped_degraded})",
        ]
        if p.recommendations:
            lines.append("  recommendations:")
            for rec in p.recommendations:
                lines.append(
                    f"    {rec.program} |V|={rec.num_vertices} |E|={rec.num_edges}: "
                    f"gather_lanes={rec.gather_lanes} "
                    f"prefetch_depth={rec.prefetch_depth} "
                    f"({rec.decisions} decisions)"
                )
        else:
            lines.append("  recommendations: none (no on-demand decisions found)")
        return "\n".join(lines)


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


def _recommend_lanes(ran_share: float) -> int:
    if ran_share >= 0.75:
        return 8
    if ran_share >= 0.5:
        return 4
    if ran_share >= 0.25:
        return 2
    return 1


def _recommend_depth(io_share: float) -> int:
    if io_share >= 0.9:
        return 4
    if io_share >= 0.5:
        return 2
    return 1


def fit_profile(paths: Iterable[str], machine: str = "default") -> FitReport:
    """Fit a :class:`TunedProfile` from one or more trace JSONL files."""
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

    # Knob recommendations, one per distinct (program, |V|, |E|) workload,
    # in first-seen order (deterministic given the input file order).
    recs: List[Recommendation] = []
    for key in dict.fromkeys((s.program, s.num_vertices, s.num_edges) for s in samples):
        group = [s for s in samples if (s.program, s.num_vertices, s.num_edges) == key]
        od = [s for s in group if s.chosen == "on_demand"]
        if not od:
            continue
        sel_bytes = sum(s.s_ran_bytes + s.s_seq_bytes for s in od)
        ran_share = sum(s.s_ran_bytes for s in od) / sel_bytes if sel_bytes else 0.0
        sim_total = sum(s.actual_sim_seconds for s in group)
        io_share = (
            sum(s.actual_io_seconds for s in group) / sim_total if sim_total else 0.0
        )
        recs.append(
            Recommendation(
                program=key[0],
                num_vertices=key[1],
                num_edges=key[2],
                gather_lanes=_recommend_lanes(ran_share),
                prefetch_depth=_recommend_depth(io_share),
                decisions=len(group),
            )
        )

    profile = TunedProfile(
        machine=machine,
        full_cost_scale=_fit_scale(full_pairs),
        on_demand_cost_scale=_fit_scale(od_pairs),
        samples_full=len(full_pairs),
        samples_on_demand=len(od_pairs),
        recommendations=tuple(recs),
    )
    return FitReport(
        profile=profile,
        samples=samples,
        skipped_open=skipped_open,
        skipped_degraded=skipped_degraded,
    )
