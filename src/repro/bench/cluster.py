"""Cluster benchmark: sharded scaling + fault-matrix bit-identity (BENCH_4).

Runs the paper's headline workloads on the simulated N-worker cluster
(:mod:`repro.cluster`) and records two things:

* **scaling** — simulated execution time at N ∈ {1, 2, 4} workers on the
  twitter2010 proxy over the default 10 GbE interconnect. Sharding the
  grid by destination column divides both the edge-block reads and the
  value-slice I/O across private disks; the barrier model credits the
  parallel portion, so N=4 must beat N=1 by ≥ 1.6× despite broadcast
  traffic;
* **robustness** — a fault matrix at N=4 (mid-superstep worker crash,
  dropped + duplicated + corrupted messages, one deliberately slow disk
  degraded out of the cluster), every cell required to produce values
  *bit-identical* to the clean single-worker run.

``python -m repro.bench.cluster`` writes ``BENCH_4.json``; ``--smoke``
runs a small R-MAT graph through a 4-worker cluster with an injected
mid-superstep crash and a dropped-message plan and exits nonzero unless
the result is bit-identical to the single-worker run — the CI guard for
the cluster layer (the ``bench-smoke`` job).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import Harness
from repro.core import RunResult
from repro.storage import FaultPlan, FaultSpec

RECORD_ALGOS: Sequence[str] = ("pr", "cc", "sssp")
RECORD_WORKERS: Sequence[int] = (1, 2, 4)
RECORD_DATASET = "twitter2010"
BENCH_ID = "BENCH_4"
#: The scaling floor the record is checked against (N=4 vs N=1).
MIN_SCALING_N4 = 1.6

#: The N=4 robustness matrix: every plan must leave results bit-identical.
FAULT_MATRIX: Dict[str, Dict[str, object]] = {
    "crash-mid-superstep": {
        "fault_plan": FaultPlan(crash_points={"w1:post-compute": 2}),
        "expect": {"worker_recoveries": 1},
    },
    "crash-mid-checkpoint": {
        "fault_plan": FaultPlan(crash_points={"w2:mid-checkpoint": 3}),
        "expect": {"worker_recoveries": 1},
    },
    "message-faults": {
        "fault_plan": FaultPlan(
            specs=(
                FaultSpec(kind="msg-drop", pattern="w0->w2", at_op=4, count=2),
                FaultSpec(kind="msg-corrupt", pattern="w1->*", at_op=7, count=1),
                FaultSpec(kind="msg-dup", pattern="*", at_op=9, count=3),
            )
        ),
        "expect": {"msgs_dropped": 2, "msgs_corrupted": 1, "msgs_duplicated": 3},
    },
    "straggler": {
        "worker_disk_factors": {3: 0.05},
        "expect": {"stragglers_degraded": 1, "workers_final": 3},
    },
}


def _identical(a: RunResult, b: RunResult) -> bool:
    return (
        bool(np.array_equal(a.values, b.values, equal_nan=True))
        and a.iterations == b.iterations
        and a.converged == b.converged
    )


def build_record(
    dataset: str = RECORD_DATASET,
    algorithms: Sequence[str] = RECORD_ALGOS,
    workers: Sequence[int] = RECORD_WORKERS,
    P: int = 8,
) -> Dict[str, object]:
    """The ``BENCH_4.json`` payload."""
    with Harness(P=P) as harness:
        record: Dict[str, object] = {
            "bench_id": BENCH_ID,
            "description": "sharded multi-worker scaling + fault-matrix bit-identity",
            "dataset": dataset,
            "partitions": P,
            "interconnect": "eth10",
            "machine": "default (HDD profile per worker)",
            "workloads": {},
            "fault_matrix": {},
        }
        baselines: Dict[str, RunResult] = {}
        for algo in algorithms:
            entry: Dict[str, object] = {"by_workers": {}}
            runs: Dict[int, RunResult] = {}
            for n in workers:
                runs[n] = harness.run_cluster(algo, dataset, workers=n)
                r = runs[n]
                entry["by_workers"][str(n)] = {
                    "sim_seconds": r.sim_seconds,
                    "overlap_saved_seconds": r.overlap_saved_seconds,
                    "io_bytes": r.io_traffic,
                    "messages_sent": r.recovery.get("messages_sent", 0),
                    "network_bytes": r.recovery.get("bytes_sent", 0),
                    "iterations": r.iterations,
                    "identical_to_single_worker": _identical(runs[workers[0]], r),
                }
            base = runs[workers[0]]
            entry["scaling_n4"] = (
                base.sim_seconds / runs[4].sim_seconds if 4 in runs else None
            )
            entry["values_sha256"] = base.values_sha256()
            record["workloads"][algo] = entry
            baselines[algo] = base

        for name, cell in FAULT_MATRIX.items():
            cell_entry: Dict[str, object] = {}
            for algo in algorithms:
                r = harness.run_cluster(
                    algo,
                    dataset,
                    workers=4,
                    fault_plan=cell.get("fault_plan"),
                    worker_disk_factors=cell.get("worker_disk_factors"),
                )
                expected = dict(cell["expect"])
                cell_entry[algo] = {
                    "identical_to_clean_run": _identical(baselines[algo], r),
                    "fault_events": list(r.fault_events),
                    "recovery": {
                        k: v for k, v in r.recovery.items() if not isinstance(v, float)
                    },
                    "expected_counters_met": all(
                        r.recovery.get(k, 0) >= v for k, v in expected.items()
                    ),
                }
            record["fault_matrix"][name] = cell_entry
    return record


def check_record(record: Dict[str, object]) -> List[str]:
    """The PR's acceptance properties, as human-readable failures."""
    failures: List[str] = []
    for algo, entry in record["workloads"].items():
        scaling = entry.get("scaling_n4")
        if scaling is not None and algo == "pr" and scaling < MIN_SCALING_N4:
            failures.append(
                f"{algo}: N=4 scaling {scaling:.2f}x below {MIN_SCALING_N4}x"
            )
        for n, cell in entry["by_workers"].items():
            if not cell["identical_to_single_worker"]:
                failures.append(f"{algo}: N={n} values differ from single-worker")
    for name, cell_entry in record["fault_matrix"].items():
        for algo, cell in cell_entry.items():
            if not cell["identical_to_clean_run"]:
                failures.append(f"{name}/{algo}: values differ from the clean run")
            if not cell["expected_counters_met"]:
                failures.append(f"{name}/{algo}: expected recovery counters not met")
    return failures


def smoke(
    scale: int = 11,
    edge_factor: float = 12.0,
    P: int = 4,
    trace_out: Optional[str] = None,
) -> int:
    """CI guard (the ``bench-smoke`` job): crash + dropped messages.

    Runs PageRank and SSSP on a small R-MAT graph through a 4-worker
    cluster with a mid-superstep worker crash and a dropped-message
    plan injected, and requires values bit-identical to the clean
    single-worker run plus nonzero recovery counters. Exit 0 iff all
    hold.

    With ``trace_out`` set, the faulted 4-worker runs are traced: the
    merged distributed trace, its Perfetto export, and the critical-path
    report are written into that directory (the CI artifact), and the
    traced runs must stay bit-identical — exercising the whole
    observability path under faults.
    """
    import pathlib
    import tempfile

    from repro.algorithms import PageRank, SSSP
    from repro.algorithms.base import GraphContext
    from repro.cluster import ClusterConfig, ClusterEngine
    from repro.datasets.rmat import rmat_edges
    from repro.datasets.synthetic import with_uniform_weights
    from repro.graph import GridStore, make_intervals
    from repro.graph.degree import out_degrees
    from repro.obs import Tracer, analyze_file, export_file
    from repro.storage import Device

    failures: List[str] = []
    root = pathlib.Path(tempfile.mkdtemp(prefix="cluster-smoke-"))
    trace_dir = None
    if trace_out is not None:
        trace_dir = pathlib.Path(trace_out)
        trace_dir.mkdir(parents=True, exist_ok=True)
    plan = FaultPlan(
        crash_points={"w1:post-compute": 2},
        specs=(FaultSpec(kind="msg-drop", pattern="w0->*", at_op=3, count=2),),
    )
    for name, algo, weighted in (
        ("pr", PageRank(iterations=5), False),
        ("sssp", SSSP(source=0), True),
    ):
        edges = rmat_edges(scale, edge_factor, seed=42)
        if weighted:
            edges = with_uniform_weights(edges, seed=42)
        intervals = make_intervals(edges, P)
        store = GridStore.build(
            edges, intervals, Device(root / f"{name}-grid"), prefix="g", indexed=True
        )
        ctx = GraphContext(
            num_vertices=edges.num_vertices,
            num_edges=edges.num_edges,
            out_degrees=out_degrees(edges),
        )
        results: Dict[str, RunResult] = {}
        for label, n, cell_plan in (
            ("single", 1, None),
            ("cluster", 4, plan),
        ):
            engine = ClusterEngine(
                store.device.root,
                "g",
                root / f"{name}-ws-{label}",
                ClusterConfig(workers=n, fault_plan=cell_plan),
                ctx=ctx,
            )
            if trace_dir is not None and label == "cluster":
                engine.attach_tracer(
                    Tracer(), path=str(trace_dir / f"{name}.trace.jsonl")
                )
            results[label] = engine.run(algo)
        single, cluster = results["single"], results["cluster"]
        if trace_dir is not None:
            trace_path = trace_dir / f"{name}.trace.jsonl"
            # analyze_file replays the timeline algebra bitwise (barrier
            # chain, per-worker deltas, run-record fold) and raises on
            # any violation. The makespan and the run total are two
            # *different* exact folds of the same charges (per-barrier
            # max-vs-sum vs run-level component sums), so they may
            # differ in the last ulp — compare with float slack only.
            report = analyze_file(str(trace_path))
            if not math.isclose(
                report.makespan, cluster.breakdown.total, rel_tol=1e-12
            ):
                failures.append(
                    f"{name}: traced makespan {report.makespan!r} far from "
                    f"run total {cluster.breakdown.total!r}"
                )
            export_file(str(trace_path), str(trace_dir / f"{name}.perfetto.json"))
            critpath_txt = trace_dir / f"{name}.critical-path.txt"
            # charged-io-ok: host-side CI artifact, not simulated graph I/O
            critpath_txt.write_text(report.render() + "\n")
            print(f"{name}: merged trace + Perfetto export in {trace_dir}")
        identical = _identical(single, cluster)
        if not identical:
            failures.append(f"{name}: 4-worker faulted run differs from single-worker")
        if cluster.recovery.get("worker_recoveries", 0) < 1:
            failures.append(f"{name}: the injected crash was never recovered")
        if cluster.recovery.get("msgs_dropped", 0) < 2:
            failures.append(f"{name}: the dropped messages were never injected")
        print(
            f"{name}: identical={identical}, "
            f"recoveries={cluster.recovery.get('worker_recoveries')}, "
            f"drops={cluster.recovery.get('msgs_dropped')}, "
            f"retries={cluster.recovery.get('net_retries')}, "
            f"events={cluster.fault_events}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: crashes recovered, drops retried, results bit-identical")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cluster",
        description="Sharded multi-worker scaling and fault-matrix benchmark "
        "(writes BENCH_4.json).",
    )
    parser.add_argument(
        "--out", default="BENCH_4.json", help="record path (default: BENCH_4.json)"
    )
    parser.add_argument("-P", "--partitions", type=int, default=8)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the 4-worker crash + dropped-message guard on a small "
        "R-MAT graph and exit nonzero unless bit-identical to single-worker",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="with --smoke: write the merged distributed trace, Perfetto "
        "export, and critical-path report of the faulted runs into DIR",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(trace_out=args.trace_out)
    record = build_record(P=args.partitions)
    failures = check_record(record)
    # charged-io-ok: host-side benchmark report, not simulated graph I/O
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    for algo, entry in record["workloads"].items():
        times = {
            n: cell["sim_seconds"] for n, cell in entry["by_workers"].items()
        }
        scaling = entry["scaling_n4"]
        print(
            f"{algo}: "
            + "  ".join(f"N={n} {t:.3f}s" for n, t in times.items())
            + (f"  (N=4 scaling {scaling:.2f}x)" if scaling else "")
        )
    for name, cell_entry in record["fault_matrix"].items():
        ok = all(
            c["identical_to_clean_run"] and c["expected_counters_met"]
            for c in cell_entry.values()
        )
        print(f"fault {name}: {'bit-identical across workloads' if ok else 'FAILED'}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
