"""Scheduler-decision audit log (§4.1 / Fig. 10).

Every time the state-aware scheduler evaluates its benefit function, the
engine opens a :class:`DecisionRecord` carrying the *predicted* costs —
``C_s`` (full model), ``C_r`` (on-demand), the byte split behind them —
and the chosen model. After the decided round has executed, the record
is closed with the *actual* simulated cost of the iteration the decision
was made for, and (should fault degradation have re-routed the round)
the model that actually ran.

The closed records are the ground truth behind ``graphsd trace
report``'s prediction-error table: the paper's Fig. 10 argues GraphSD
"is able to select the better I/O access model in all iterations"
because its predictions track charged time; the audit log measures
exactly how closely, per decision.

The asynchronous engine contributes a second decision family:
:class:`PriorityDecision` records one per priority-queue pop, carrying
the score that won, the competing candidates, and the realized
activations — the same "decisions must be scorable" discipline applied
to the async mode's interval ordering (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass
class PriorityDecision:
    """One asynchronous-mode priority pop (see :mod:`repro.core.async_engine`).

    Each time the async engine pops the hottest destination interval
    from its priority queue it records what it saw (the score, how many
    intervals competed, the pending-source mass) and — once the pop has
    been processed — what the decision *bought* (realized new
    activations, how many sub-blocks were gathered selectively vs
    streamed in full). Scores are heuristic; these records are what make
    them scorable after the fact, exactly like the §4.1 scheduler audit
    makes the C_s/C_r predictions scorable.
    """

    sweep: int  # 1-based sweep the pop belongs to
    rank: int  # 1-based pop order within the sweep
    interval: int  # chosen destination interval
    score: float  # pending frontier mass: active count x mean residual
    candidates: int  # intervals that competed in this pop
    pending_vertices: int  # pending sources feeding the chosen interval
    new_activations: int = 0  # vertices the pop's apply activated
    selective_blocks: int = 0  # sub-blocks gathered on demand
    full_blocks: int = 0  # sub-blocks streamed in full

    def to_event(self) -> Dict[str, Any]:
        return {"type": "priority", **asdict(self)}


@dataclass
class DecisionRecord:
    """One §4.1 benefit evaluation, predicted and (once closed) actual."""

    iteration: int
    chosen: str  # "full" | "on_demand"
    c_full: float
    c_on_demand: float
    active_vertices: int
    active_edges: int
    s_seq_bytes: float
    s_ran_bytes: float
    index_bytes: float
    actual_sim_seconds: Optional[float] = None
    actual_io_seconds: Optional[float] = None
    #: Model that actually executed ("sciu"/"fciu"/"full"); differs from
    #: ``chosen`` when a gather fault degraded an on-demand round.
    actual_model: Optional[str] = None

    @property
    def predicted_seconds(self) -> float:
        """Predicted cost of the model the scheduler picked."""
        return self.c_on_demand if self.chosen == "on_demand" else self.c_full

    @property
    def closed(self) -> bool:
        return self.actual_sim_seconds is not None

    @property
    def abs_error(self) -> Optional[float]:
        if self.actual_sim_seconds is None:
            return None
        return abs(self.actual_sim_seconds - self.predicted_seconds)

    @property
    def rel_error(self) -> Optional[float]:
        err = self.abs_error
        if err is None or self.predicted_seconds == 0.0:
            return None
        return err / self.predicted_seconds

    def to_event(self) -> Dict[str, Any]:
        return {
            "type": "audit",
            "iteration": self.iteration,
            "chosen": self.chosen,
            "c_full": self.c_full,
            "c_on_demand": self.c_on_demand,
            "predicted_seconds": self.predicted_seconds,
            "active_vertices": self.active_vertices,
            "active_edges": self.active_edges,
            "s_seq_bytes": self.s_seq_bytes,
            "s_ran_bytes": self.s_ran_bytes,
            "index_bytes": self.index_bytes,
            "actual_sim_seconds": self.actual_sim_seconds,
            "actual_io_seconds": self.actual_io_seconds,
            "actual_model": self.actual_model,
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
        }


class SchedulerAudit:
    """Open/close protocol around each scheduler decision.

    ``emit`` (when given) receives the closed record's event dict the
    moment it closes, so the trace stream stays chronologically ordered.
    At most one decision is pending at a time — the engine opens it in
    ``select_model`` and closes it right after the round's first
    iteration record lands.
    """

    def __init__(self, emit: Optional[Callable[[Dict[str, Any]], None]] = None) -> None:
        self.records: List[DecisionRecord] = []
        self._pending: Optional[DecisionRecord] = None
        self._emit = emit

    def open(self, iteration: int, estimate: Any) -> DecisionRecord:
        """Record a new decision from a scheduler ``CostEstimate``."""
        if self._pending is not None:  # a crashed round never closed it
            self._finish(self._pending)
            self._pending = None
        record = DecisionRecord(
            iteration=iteration,
            chosen=estimate.chosen.value,
            c_full=float(estimate.c_full),
            c_on_demand=float(estimate.c_on_demand),
            active_vertices=int(estimate.active_vertices),
            active_edges=int(estimate.active_edges),
            s_seq_bytes=float(estimate.s_seq_bytes),
            s_ran_bytes=float(estimate.s_ran_bytes),
            index_bytes=float(estimate.index_bytes),
        )
        self._pending = record
        return record

    def close(
        self,
        actual_sim_seconds: float,
        actual_io_seconds: float,
        actual_model: str,
    ) -> Optional[DecisionRecord]:
        """Close the pending decision with the executed iteration's cost."""
        record = self._pending
        if record is None:
            return None
        record.actual_sim_seconds = float(actual_sim_seconds)
        record.actual_io_seconds = float(actual_io_seconds)
        record.actual_model = actual_model
        self._pending = None
        self._finish(record)
        return record

    def _finish(self, record: DecisionRecord) -> None:
        self.records.append(record)
        if self._emit is not None:
            self._emit(record.to_event())

    # -- aggregate views (used by the report and tests) --------------------

    @property
    def closed_records(self) -> List[DecisionRecord]:
        return [r for r in self.records if r.closed]

    def flip_points(self) -> List[int]:
        """Iterations where the chosen model differs from the previous one."""
        flips: List[int] = []
        prev: Optional[str] = None
        for r in self.records:
            if prev is not None and r.chosen != prev:
                flips.append(r.iteration)
            prev = r.chosen
        return flips
