"""Critical-path analysis of merged distributed traces.

Walks the ``barrier`` events of a merged cluster trace (see
:mod:`repro.obs.distributed`) and answers "which worker × resource is
the bottleneck?": per barrier window, the **critical worker** is the one
whose superstep delta equals the window's ``max`` fold (lowest id on
ties — the coordinator's straggler-detector convention), and the
window's end-to-end time is attributed to that worker's DISK / NET / CPU
charges plus the residual barrier wait. Chaining the critical workers
across supersteps names the straggler chain.

**Float-exact validation.** Before attributing anything, the analyzer
replays the coordinator's timeline algebra bitwise — with the same
:class:`~repro.utils.timers.TimeBreakdown` ``total`` and ``+`` the
coordinator folds with — and raises :class:`CriticalPathError` on any
mismatch:

* per worker per barrier: ``delta == sum(sorted components) − saved``
  (the :class:`~repro.utils.timers.TimeBreakdown.total` property);
* the barrier chain: each ``sim_start`` equals the left-fold of the
  preceding ``sim_seconds`` (the coordinator's ``_cluster_elapsed``);
* the run record: ``sim_seconds == sum(sorted sim) − overlap_saved``,
  and the component-wise left-fold of the barrier breakdowns reproduces
  the run's ``sim``/``overlap_saved`` maps bitwise (the coordinator's
  ``TimeBreakdown.__add__`` chain).

Attribution rows carry the barrier's published ``sim_seconds`` as their
total — never a recomputation — so the per-superstep rows sum to the
makespan by the *identical* float fold the timeline check replayed.
Resource splits inside a row (DISK/NET/CPU/WAIT) are reported from the
exact component charges but are only associativity-exact, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.obs.schema import validate_trace_file
from repro.utils.timers import CPU, DISK, RESOURCE_OF, TimeBreakdown

#: The interconnect's charge component (string duplicated from
#: repro.cluster.interconnect — obs must not import cluster).
NET_COMPONENT = "network"

#: Attribution resource labels.
NET = "net"
WAIT = "wait"


class CriticalPathError(ValueError):
    """The trace violates the coordinator's timeline algebra (or is not
    a merged distributed trace at all)."""


def _split(components: Dict[str, float]) -> Tuple[float, float, float]:
    """(disk, net, cpu) seconds of one worker's component charges."""
    disk = cpu = 0.0
    for k in sorted(components):
        if RESOURCE_OF.get(k, CPU) == DISK:
            disk += components[k]
        elif k != NET_COMPONENT:
            cpu += components[k]
    return disk, float(components.get(NET_COMPONENT, 0.0)), cpu


@dataclass(frozen=True)
class BarrierAttribution:
    """One barrier window attributed to its critical worker."""

    superstep: int
    kind: str
    sim_start: float
    #: The window's published end-to-end duration (== the row's total).
    sim_seconds: float
    #: The critical worker (max delta; lowest id on ties).
    worker: int
    #: The critical worker's own elapsed delta inside the window.
    delta: float
    disk: float
    net: float
    cpu: float
    #: ``sim_seconds − delta`` — barrier-wait residue on the critical
    #: chain (nonzero only for degrade folds and float residue).
    wait: float
    #: Per-worker wait time behind the slowest worker.
    waits: Dict[int, float]


@dataclass(frozen=True)
class CriticalPathReport:
    """The analyzer's result: validated timeline + attribution."""

    #: Cluster makespan — the left-fold of every barrier's sim_seconds.
    makespan: float
    #: Critical-path length: the sum of the critical workers' deltas.
    path_seconds: float
    rows: List[BarrierAttribution]
    workers: List[int]
    #: Total attributed seconds per resource across the critical chain.
    resource_totals: Dict[str, float]
    #: Barriers on which each worker was the critical one.
    straggler_counts: Dict[int, int]

    def render(self) -> str:
        """Human-readable report for ``graphsd trace critical-path``."""
        lines = [
            f"critical path over {len(self.rows)} barriers, "
            f"{len(self.workers)} workers",
            "",
            "superstep  kind       crit  total_s     disk_s      net_s     "
            " cpu_s      wait_s",
        ]
        for r in self.rows:
            lines.append(
                f"{r.superstep:9d}  {r.kind:<9s}  w{r.worker:<4d}"
                f"{r.sim_seconds:9.6f}  {r.disk:9.6f}  {r.net:9.6f}  "
                f"{r.cpu:9.6f}  {r.wait:10.6f}"
            )
        lines.append("")
        chain = " -> ".join(
            f"s{r.superstep}:w{r.worker}" for r in self.rows
        )
        lines.append(f"straggler chain: {chain}")
        counts = ", ".join(
            f"w{wid}: {n}" for wid, n in sorted(self.straggler_counts.items())
        )
        lines.append(f"critical barriers per worker: {counts}")
        totals = self.resource_totals
        lines.append(
            f"attribution: disk {totals[DISK]:.6f}s, net {totals[NET]:.6f}s, "
            f"cpu {totals[CPU]:.6f}s, wait {totals[WAIT]:.6f}s"
        )
        lines.append(
            f"makespan {self.makespan:.6f}s, critical-path work "
            f"{self.path_seconds:.6f}s "
            f"(timeline invariants verified float-exactly)"
        )
        return "\n".join(lines)


def analyze_events(events: List[Dict[str, Any]]) -> CriticalPathReport:
    """Validate timeline algebra and attribute every barrier window.

    ``events`` is a parsed (already schema-validated) merged trace.
    Raises :class:`CriticalPathError` on the first algebra violation.
    """
    barriers = [e for e in events if e.get("type") == "barrier"]
    if not barriers:
        raise CriticalPathError(
            "trace has no barrier events — run the cluster engine with "
            "--trace to produce a merged distributed trace"
        )

    # (1) Per-worker deltas replay TimeBreakdown.total bitwise.
    for b in barriers:
        for wid_s, entry in b["workers"].items():
            replayed = TimeBreakdown(entry["components"], entry["saved"]).total
            if replayed != entry["delta"]:
                raise CriticalPathError(
                    f"barrier s{b['superstep']} ({b['kind']}): worker "
                    f"{wid_s} delta {entry['delta']!r} != component fold "
                    f"{replayed!r}"
                )

    # (2) The barrier chain replays the coordinator's elapsed fold.
    elapsed = 0.0
    for b in barriers:
        if b["sim_start"] != elapsed:
            raise CriticalPathError(
                f"barrier s{b['superstep']} ({b['kind']}): sim_start "
                f"{b['sim_start']!r} != folded elapsed {elapsed!r}"
            )
        elapsed += b["sim_seconds"]
    makespan = elapsed

    # (3) The run record's total and component fold.
    runs = [e for e in events if e.get("type") == "run"]
    if runs:
        run = runs[-1]
        run_breakdown = TimeBreakdown(run["sim"], run.get("overlap_saved", 0.0))
        if run_breakdown.total != run["sim_seconds"]:
            raise CriticalPathError(
                f"run record: sim_seconds {run['sim_seconds']!r} != "
                f"sum(sim) - overlap_saved {run_breakdown.total!r}"
            )
        acc = TimeBreakdown(barriers[0]["sim"], barriers[0]["overlap_saved"])
        for b in barriers[1:]:
            acc = acc + TimeBreakdown(b["sim"], b["overlap_saved"])
        if acc != run_breakdown:
            raise CriticalPathError(
                "run record's sim breakdown does not fold from the "
                "barrier breakdowns bitwise"
            )

    # (4) Attribution.
    rows: List[BarrierAttribution] = []
    workers: set[int] = set()
    totals = {DISK: 0.0, NET: 0.0, CPU: 0.0, WAIT: 0.0}
    counts: Dict[int, int] = {}
    path_seconds = 0.0
    for b in barriers:
        entries = {int(w): e for w, e in b["workers"].items()}
        deltas = {wid: float(e["delta"]) for wid, e in entries.items()}
        workers.update(deltas)
        if not deltas:
            continue
        crit = max(sorted(deltas), key=lambda wid: deltas[wid])
        disk, net, cpu = _split(entries[crit]["components"])
        sim_seconds = float(b["sim_seconds"])
        wait = sim_seconds - deltas[crit]
        waits = {wid: sim_seconds - d for wid, d in sorted(deltas.items())}
        rows.append(
            BarrierAttribution(
                superstep=int(b["superstep"]),
                kind=str(b["kind"]),
                sim_start=float(b["sim_start"]),
                sim_seconds=sim_seconds,
                worker=crit,
                delta=deltas[crit],
                disk=disk,
                net=net,
                cpu=cpu,
                wait=wait,
                waits=waits,
            )
        )
        counts[crit] = counts.get(crit, 0) + 1
        path_seconds += deltas[crit]
        totals[DISK] += disk
        totals[NET] += net
        totals[CPU] += cpu
        totals[WAIT] += wait

    return CriticalPathReport(
        makespan=makespan,
        path_seconds=path_seconds,
        rows=rows,
        workers=sorted(workers),
        resource_totals=totals,
        straggler_counts=counts,
    )


def analyze_file(path: str) -> CriticalPathReport:
    """Schema-validate ``path`` and analyze its critical path."""
    return analyze_events(validate_trace_file(path))
