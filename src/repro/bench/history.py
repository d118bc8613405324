"""Perf-regression sentinel over the committed ``BENCH_*.json`` history.

Every bench record in the repo (BENCH_2 overlap, BENCH_3 encoding,
BENCH_4 cluster scaling, BENCH_5 K-lane selective gathers, BENCH_6 async
execution) carries exact simulated figures — times, I/O traffic,
iteration counts, result hashes. This module re-runs a representative
subset of each record's cells on the current code and compares fresh
against recorded with explicit tolerances, so ``graphsd bench check``
(and CI's ``bench-check`` job) turns a silent perf regression into a
nonzero exit.

Tolerance policy (each :class:`Comparison` names the rule it applied):

* **time** — simulated seconds may drift by float-fold reordering
  across refactors (observed: last-ulp differences), so a regression is
  ``fresh > recorded × (1 + SIM_REL_TOL)``. Getting *faster* is
  reported but never fails.
* **bytes** — traffic counters are integer-exact by construction;
  a regression is ``fresh > recorded × (1 + BYTES_REL_TOL)``.
* **exact** — iteration counts, message counts, byte layouts, result
  hashes, and identity flags must match exactly: any change means the
  algorithm's behavior changed and the record must be regenerated
  deliberately.

Bench ids without a reproducer here are listed as skipped, never
silently passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

#: Simulated-seconds regression threshold (a doctored 10% slip trips it).
SIM_REL_TOL = 0.05
#: Byte-counter regression threshold.
BYTES_REL_TOL = 0.01


@dataclass(frozen=True)
class Comparison:
    """One recorded-vs-fresh metric comparison."""

    bench_id: str
    cell: str
    metric: str
    recorded: Any
    fresh: Any
    rule: str  # "time" | "bytes" | "exact"
    ok: bool
    note: str = ""

    def render(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return (
            f"  {mark} {self.bench_id} {self.cell}.{self.metric} "
            f"[{self.rule}]: recorded={self.recorded} fresh={self.fresh}{extra}"
        )


@dataclass
class CheckReport:
    """All comparisons of one ``graphsd bench check`` invocation."""

    comparisons: List[Comparison] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    def failures(self) -> List[Comparison]:
        return [c for c in self.comparisons if not c.ok]

    def render(self) -> str:
        lines = [f"bench check: {len(self.comparisons)} comparisons"]
        lines.extend(c.render() for c in self.comparisons)
        for s in self.skipped:
            lines.append(f"  skip {s}")
        failures = self.failures()
        if failures:
            lines.append(f"REGRESSIONS: {len(failures)}")
        else:
            lines.append("no regressions")
        return "\n".join(lines) + "\n"


class _Cells:
    """Comparison collector bound to one bench record."""

    def __init__(self, bench_id: str, out: List[Comparison]) -> None:
        self.bench_id = bench_id
        self.out = out

    def time(self, cell: str, metric: str, recorded: float, fresh: float) -> None:
        ok = float(fresh) <= float(recorded) * (1.0 + SIM_REL_TOL)
        note = ""
        if ok and float(fresh) < float(recorded) * (1.0 - SIM_REL_TOL):
            note = "improved"
        self.out.append(
            Comparison(self.bench_id, cell, metric, recorded, fresh, "time", ok, note)
        )

    def bytes(self, cell: str, metric: str, recorded: float, fresh: float) -> None:
        ok = float(fresh) <= float(recorded) * (1.0 + BYTES_REL_TOL)
        self.out.append(
            Comparison(self.bench_id, cell, metric, recorded, fresh, "bytes", ok)
        )

    def exact(self, cell: str, metric: str, recorded: Any, fresh: Any) -> None:
        ok = bool(recorded == fresh)
        self.out.append(
            Comparison(self.bench_id, cell, metric, recorded, fresh, "exact", ok)
        )


def _check_bench2(record: Mapping[str, Any], smoke: bool, out: List[Comparison]) -> None:
    """Re-run BENCH_2 overlap cells (serial vs pipelined)."""
    from repro.bench.overlap import _identical, _run_pair

    cells = _Cells(str(record["bench_id"]), out)
    workloads: Mapping[str, Any] = record["workloads"]
    algos = ["pr"] if smoke else sorted(workloads)
    for algo in algos:
        rec = workloads.get(algo)
        if rec is None:
            continue
        runs = _run_pair(
            str(record["dataset"]),
            algo,
            int(record["partitions"]),
            int(record["prefetch_depth"]),
        )
        for mode in ("serial", "pipelined"):
            cell = f"workloads.{algo}.{mode}"
            cells.time(cell, "sim_seconds", rec[mode]["sim_seconds"], runs[mode].sim_seconds)
            cells.bytes(cell, "io_traffic_bytes", rec[mode]["io_traffic_bytes"], runs[mode].io_traffic)
            cells.exact(cell, "iterations", rec[mode]["iterations"], runs[mode].iterations)
        cells.exact(
            f"workloads.{algo}",
            "identical_results",
            rec["identical_results"],
            _identical(runs["serial"], runs["pipelined"]),
        )


def _check_bench3(record: Mapping[str, Any], smoke: bool, out: List[Comparison]) -> None:
    """Re-derive BENCH_3's on-disk edge-byte layout (preprocessing only)."""
    if smoke:
        return
    from repro.bench.harness import Harness, WORKLOADS

    cells = _Cells(str(record["bench_id"]), out)
    dataset = str(record["dataset"])
    P = int(record["partitions"])
    on_disk: Mapping[str, Any] = record["on_disk_bytes"]
    with Harness(P=P, encoding="raw") as h_raw, Harness(P=P, encoding="compact") as h_comp:
        for label, workload_key in (("unweighted", "pr"), ("weighted", "sssp")):
            rec = on_disk.get(label)
            if rec is None:
                continue
            raw_store, _ = h_raw.preprocess("graphsd", dataset, WORKLOADS[workload_key])
            comp_store, _ = h_comp.preprocess("graphsd", dataset, WORKLOADS[workload_key])
            cell = f"on_disk_bytes.{label}"
            cells.exact(cell, "raw_edge_bytes", rec["raw_edge_bytes"], raw_store.total_edge_bytes)
            cells.exact(cell, "compact_edge_bytes", rec["compact_edge_bytes"], comp_store.total_edge_bytes)
            cells.exact(cell, "edges", rec["edges"], raw_store.total_edges)


def _check_bench4(record: Mapping[str, Any], smoke: bool, out: List[Comparison]) -> None:
    """Re-run BENCH_4 cluster scaling cells (fault-free N=1 and N=4)."""
    from repro.bench.cluster import _identical
    from repro.bench.harness import Harness

    cells = _Cells(str(record["bench_id"]), out)
    workloads: Mapping[str, Any] = record["workloads"]
    algos = ["pr"] if smoke else sorted(workloads)
    with Harness(P=int(record["partitions"])) as harness:
        for algo in algos:
            rec = workloads.get(algo)
            if rec is None:
                continue
            by_workers: Mapping[str, Any] = rec["by_workers"]
            runs: Dict[int, Any] = {}
            for n in (1, 4):
                cell_rec = by_workers.get(str(n))
                if cell_rec is None:
                    continue
                r = harness.run_cluster(
                    algo,
                    str(record["dataset"]),
                    workers=n,
                    interconnect=str(record.get("interconnect", "eth10")),
                )
                runs[n] = r
                cell = f"workloads.{algo}.by_workers.{n}"
                cells.time(cell, "sim_seconds", cell_rec["sim_seconds"], r.sim_seconds)
                cells.bytes(cell, "io_bytes", cell_rec["io_bytes"], r.io_traffic)
                cells.exact(cell, "messages_sent", cell_rec["messages_sent"], int(r.recovery.get("messages_sent", 0)))
                cells.exact(cell, "network_bytes", cell_rec["network_bytes"], int(r.recovery.get("bytes_sent", 0)))
                cells.exact(cell, "iterations", cell_rec["iterations"], r.iterations)
            if 1 in runs:
                cells.exact(
                    f"workloads.{algo}",
                    "values_sha256",
                    rec["values_sha256"],
                    runs[1].values_sha256(),
                )
            if 1 in runs and 4 in runs:
                cells.exact(
                    f"workloads.{algo}.by_workers.4",
                    "identical_to_single_worker",
                    by_workers["4"]["identical_to_single_worker"],
                    _identical(runs[1], runs[4]),
                )


def _check_bench5(record: Mapping[str, Any], smoke: bool, out: List[Comparison]) -> None:
    """Re-run BENCH_5 K-lane selective-gather cells (graphsd-b4: every
    round on-demand, both compact formats); smoke runs sssp on compact3
    at K=1 and K=4."""
    from repro.bench.harness import Harness
    from repro.bench.selective import RECORD_ENCODINGS, RECORD_SYSTEM, _lane_diff

    cells = _Cells(str(record["bench_id"]), out)
    workloads: Mapping[str, Any] = record["workloads"]
    algos = ["sssp"] if smoke else sorted(workloads)
    encodings = ["compact3"] if smoke else list(RECORD_ENCODINGS)
    dataset = str(record["dataset"])
    harnesses = {enc: Harness(P=int(record["partitions"]), encoding=enc) for enc in encodings}
    try:
        for algo in algos:
            rec = workloads.get(algo)
            if rec is None:
                continue
            hashes = {}
            for encoding, harness in harnesses.items():
                base = harness.run(RECORD_SYSTEM, algo, dataset, gather_lanes=1)
                hashes[encoding] = base.values_sha256()
                for name, cell_rec in sorted(rec[encoding].items()):
                    lanes = int(cell_rec["lanes"])
                    if smoke and lanes not in (1, 4):
                        continue
                    run = harness.run(RECORD_SYSTEM, algo, dataset, gather_lanes=lanes)
                    cell = f"workloads.{algo}.{encoding}.{name}"
                    cells.time(cell, "sim_seconds", cell_rec["sim_seconds"], run.sim_seconds)
                    cells.bytes(cell, "io_bytes", cell_rec["io_bytes"], run.io_traffic)
                    for metric, fresh in (
                        ("gather_runs_issued", run.gather_runs_issued),
                        ("identical_results", not _lane_diff(base, run)),
                    ):
                        cells.exact(cell, metric, cell_rec[metric], fresh)
            if len(hashes) == 2:
                cells.exact(
                    f"workloads.{algo}", "formats_agree", rec["formats_agree"],
                    len(set(hashes.values())) == 1,
                )
    finally:
        for harness in harnesses.values():
            harness.cleanup()


def _check_bench6(record: Mapping[str, Any], smoke: bool, out: List[Comparison]) -> None:
    """Re-run BENCH_6 sync vs async (serial K=1 config) cells."""
    from repro.bench.harness import Harness

    cells = _Cells(str(record["bench_id"]), out)
    workloads: Mapping[str, Any] = record["workloads"]
    algos = ["sssp"] if smoke else sorted(workloads)
    with Harness(P=int(record["partitions"])) as harness:
        for algo in algos:
            rec = workloads.get(algo)
            if rec is None:
                continue
            dataset = str(record["dataset"])
            sync = harness.run("graphsd", algo, dataset)
            a = harness.run(
                "graphsd", algo, dataset,
                async_mode=True, pipeline=False, gather_lanes=1,
            )
            for mode, fresh in (("sync", sync), ("async", a)):
                cell = f"workloads.{algo}.{mode}"
                cells.time(cell, "sim_seconds", rec[mode]["sim_seconds"], fresh.sim_seconds)
                cells.bytes(cell, "io_bytes", rec[mode]["io_bytes"], fresh.io_traffic)
                cells.exact(cell, "iterations", rec[mode]["iterations"], fresh.iterations)
                cells.exact(cell, "values_sha256", rec[mode]["values_sha256"], fresh.values_sha256())


#: bench_id -> reproducer. Each re-runs cells and appends Comparisons.
_CHECKERS: Dict[str, Callable[[Mapping[str, Any], bool, List[Comparison]], None]] = {
    "BENCH_2": _check_bench2,
    "BENCH_3": _check_bench3,
    "BENCH_4": _check_bench4,
    "BENCH_5": _check_bench5,
    "BENCH_6": _check_bench6,
}


def load_records(bench_dir: Path) -> List[Dict[str, Any]]:
    """Load every ``BENCH_*.json`` under ``bench_dir``, sorted by name."""
    records = []
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        # charged-io-ok: host-side bench records, not simulated graph I/O
        with open(path, "r") as f:
            record = json.load(f)
        if not isinstance(record, dict) or "bench_id" not in record:
            raise ValueError(f"{path} is not a bench record (no bench_id)")
        records.append(record)
    return records


def check_history(
    bench_dir: Path,
    smoke: bool = False,
    only: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Compare fresh runs against every recorded baseline in ``bench_dir``.

    ``smoke`` restricts each reproducer to its cheapest representative
    cell (CI's bench-check budget); ``only`` restricts to the given
    bench ids. Records whose id has no reproducer are reported as
    skipped.
    """
    report = CheckReport()
    records = load_records(bench_dir)
    if not records:
        raise ValueError(f"no BENCH_*.json records found in {bench_dir}")
    for record in records:
        bench_id = str(record["bench_id"])
        if only and bench_id not in only:
            report.skipped.append(f"{bench_id}: excluded by --only")
            continue
        checker = _CHECKERS.get(bench_id)
        if checker is None:
            report.skipped.append(f"{bench_id}: no reproducer")
            continue
        if smoke and bench_id == "BENCH_3":
            report.skipped.append(f"{bench_id}: full mode only")
            continue
        checker(record, smoke, report.comparisons)
    return report
