"""Trace smoke check: the CI guard for the observability layer.

Runs a small workload twice per cell — once untraced, once with a
structured tracer attached — and fails (exit 1) unless every guarantee
in ``docs/OBSERVABILITY.md`` holds. The cells are three single-process
systems and a 2-worker cluster, so both run paths of the shared run
frame are covered:

* the trace file is schema-valid JSONL (``graphsd-trace`` v1; the
  cluster's merged trace is v2);
* every iteration event equals the engine's
  :class:`~repro.core.result.IterationRecord` **exactly** (no
  re-measured or re-derived numbers), and the run event equals the
  :class:`~repro.core.result.RunResult` on every field they share;
* for the adaptive engine, every scheduler decision is audited with
  both predicted and actual costs (the Fig. 10 data);
* the Chrome/Perfetto export round-trips structurally;
* tracing is observationally free: traced and untraced runs are
  equivalent (bit-identical values, identical breakdowns, identical
  IOStats up to the documented wall-clock counters).

``python -m repro.bench.trace_smoke`` runs the check standalone.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence

from repro.bench.harness import Harness
from repro.core.result import RunResult, equivalence_diff
from repro.obs import export_file, validate_trace_file

#: Adaptive engine plus one fixed-model ablation and one baseline: the
#: three engine shapes the tracer wiring has to cover.
SMOKE_SYSTEMS: Sequence[str] = ("graphsd", "graphsd-b4", "xstream")
SMOKE_DATASET = "twitter2010"
SMOKE_ALGO = "bfs"
#: The cluster cell: ``ClusterEngine.run`` on two workers.
SMOKE_CLUSTER = "cluster-2"
#: The ``run`` event fields that must equal the RunResult document's.
RUN_EVENT_SHARED = (
    "engine", "program", "iterations", "converged", "sim_seconds", "overlap_saved",
    "sim", "io", "fault_events", "recovery", "sweeps", "workers",
)


def _run_cell(harness: Harness, cell: str, trace_path: Optional[str]) -> RunResult:
    if cell == SMOKE_CLUSTER:
        return harness.run_cluster(SMOKE_ALGO, SMOKE_DATASET, 2, trace_path=trace_path)
    return harness.run(cell, SMOKE_ALGO, SMOKE_DATASET, trace_path=trace_path)


def _check_iteration_exactness(
    events: List[dict], result: RunResult, errors: List[str]
) -> None:
    iterations = [e for e in events if e["type"] == "iteration"]
    if len(iterations) != len(result.per_iteration):
        errors.append(
            f"trace has {len(iterations)} iteration events, result has "
            f"{len(result.per_iteration)} records"
        )
        return
    for event, record in zip(iterations, result.per_iteration):
        expected = record.to_dict()
        expected.pop("metrics")  # registry snapshot: JSON-keyed in the trace
        for key, value in expected.items():
            if event.get(key) != value:
                errors.append(
                    f"iteration {record.iteration}: trace {key} "
                    f"{event.get(key)!r} != record {value!r}"
                )
    (run_event,) = [e for e in events if e["type"] == "run"]
    doc = result.to_dict()
    doc["sim"] = doc["breakdown"]["components"]
    doc["overlap_saved"] = doc["breakdown"]["overlap_saved"]
    doc["workers"] = result.recovery.get("workers")  # cluster runs only
    for key in RUN_EVENT_SHARED:
        if run_event.get(key) != doc.get(key):
            errors.append(f"run event {key} {run_event.get(key)!r} != result {doc.get(key)!r}")


def _check_audits(events: List[dict], errors: List[str]) -> None:
    audits = [e for e in events if e["type"] == "audit"]
    if not audits:
        errors.append("adaptive run produced no scheduler-audit events")
        return
    for audit in audits:
        for key in ("c_full", "c_on_demand", "actual_sim_seconds", "actual_model"):
            if audit.get(key) is None:
                errors.append(
                    f"audit at iteration {audit.get('iteration')}: {key} missing"
                )


def _check_export(trace_path: str, out_path: str, errors: List[str]) -> None:
    export_file(trace_path, out_path)
    with open(out_path) as f:  # charged-io-ok: host-side export file
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append("Perfetto export has no traceEvents")
        return
    for event in events:
        if not {"ph", "pid", "name"} <= set(event):
            errors.append(f"malformed trace_event entry: {event!r}")
            return
    if not any(e["ph"] == "X" for e in events):
        errors.append("Perfetto export has no complete ('X') events")


def run_smoke(
    P: int = 4, workdir: Optional[str] = None, verbose: bool = True
) -> List[str]:
    """Run the full check; returns a list of failures (empty == pass)."""
    errors: List[str] = []
    with tempfile.TemporaryDirectory(prefix="graphsd-trace-smoke-") as tmp:
        out = Path(workdir) if workdir else Path(tmp)
        out.mkdir(parents=True, exist_ok=True)
        # Two harnesses executing the same run sequence: shared clocks
        # accumulate across a harness's runs, so comparing a traced run
        # against an untraced one *in the same harness* would start them
        # at different absolute sim offsets and perturb the float deltas
        # by an ulp. Identical sequences in separate harnesses keep every
        # pair exactly comparable.
        with Harness(P=P, verify=True) as plain, Harness(P=P) as instrumented:
            for name in (*SMOKE_SYSTEMS, SMOKE_CLUSTER):
                trace_path = str(out / f"{name}.trace.jsonl")
                untraced = _run_cell(plain, name, None)
                traced = _run_cell(instrumented, name, trace_path)

                events = validate_trace_file(trace_path)
                _check_iteration_exactness(events, traced, errors)
                if name == "graphsd":
                    _check_audits(events, errors)
                _check_export(trace_path, str(out / f"{name}.chrome.json"), errors)

                for line in equivalence_diff(traced, untraced):
                    errors.append(f"{name}: traced != untraced: {line}")

                if verbose:
                    n_audit = sum(1 for e in events if e["type"] == "audit")
                    status = "OK" if not errors else f"{len(errors)} failure(s)"
                    print(
                        f"{name}: {len(events)} events, "
                        f"{traced.iterations} iterations, {n_audit} audits — "
                        f"{status}"
                    )
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-P", "--partitions", type=int, default=4)
    parser.add_argument(
        "--keep", default=None, metavar="DIR", help="keep trace files in DIR"
    )
    args = parser.parse_args(argv)
    errors = run_smoke(P=args.partitions, workdir=args.keep)
    if errors:
        for line in errors:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print("trace smoke: all checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
