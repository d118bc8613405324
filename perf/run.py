"""Run the benchmark: ``python3 perf/run.py`` (or ``python -m perf.run``).

One workload, as the driver calls it::

    python3 perf/run.py --workload pr_stream --seed 1 --seconds 5 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Without ``--workload`` every workload runs,
one process at a time, and one JSON report is written (``--out``).

A run is closed-loop from a single client: set-up (several times, the
median is ``setup_s``), warm-ups, then the timed operation repeated
back to back for ``--seconds``; its median is ``wall_s``. A traced run
spends half the window untraced (the base of the overhead ratio) and
half under the entry-point wrappers of :mod:`perf.layers`.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One compute thread: the box has two cores and the benchmark is one
# client. Must be set before numpy loads its BLAS.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf: no program to measure: {ROOT / 'src' / 'repro'} is missing")
if __package__ in (None, ""):
    # Run as a script, sys.path[0] is perf/ itself, where trace.py would
    # shadow the standard library's; make it the repo root instead.
    sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

import numpy as np  # noqa: E402

from perf.layers import METRICS, SITES, Sample, layer_metrics  # noqa: E402
from perf.trace import Installed, Recorder, SpanRow, SpanTable  # noqa: E402
from perf.workloads import (  # noqa: E402
    SMOKE_SCALE,
    WORKLOADS,
    Outcome,
    Prepared,
    Timed,
    Workload,
    oracle_agrees,
    prepare,
)

OUT = ROOT / "perf" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Per-layer metrics of the set-up's own spans; on an engine workload the
#: timed operation never generates or builds, so these come from there.
SETUP_LAYER = (
    "datasets.generate_s",
    "grid.build_s",
    "grid.build_edges_per_s",
    "grid.build_bytes_written",
    "grid.bytes_per_edge",
    "grid.intervals_s",
)
#: What the driver's result line shows for a per-layer metric that could
#: not be measured at this commit (the report file says ``null`` and
#: lists why under ``missing_entry_points``).
UNMEASURED = -1.0


# -- environment ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    env = {
        "commit": _commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "load1_start": load,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "noisy": load > nproc - 1,
    }
    if env["noisy"]:
        print(f"perf: warning: load average {load:.2f} > nproc-1; run marked noisy", file=sys.stderr)
    return env


# -- sampling -----------------------------------------------------------------


def summarize(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles, extremes and n — with this few samples no tail
    percentile has ten samples beyond it, so none is reported."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "samples": list(values),
    }


class Checker:
    """Counts samples attempted and failed; keeps one set of values for the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest: Optional[str] = None
        self.values: Optional[np.ndarray] = None

    def check(self, timed: Timed) -> Outcome:
        outcome = timed.finish()
        self.attempted += 1
        if self.digest is None:
            self.digest, self.values = outcome.digest, outcome.values
        if not outcome.ok or outcome.digest not in (None, self.digest):
            self.failed += 1
        return outcome


def collect(prepared: Prepared, seconds: float, at_least: int, checker: Checker) -> List[float]:
    """Wall times of the operation repeated back to back for ``seconds``."""
    walls: List[float] = []
    deadline = perf_counter() + seconds
    while len(walls) < at_least or perf_counter() < deadline:
        timed = prepared.sample()
        checker.check(timed)
        walls.append(timed.wall)
    return walls


def peak_rss_mb(kind: str) -> float:
    # The CLI workload's work happens in its children; everywhere else in
    # this process, which never held the edge list (see perf.workloads).
    who = resource.RUSAGE_CHILDREN if kind == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- the traced half -----------------------------------------------------------


def _clip(rows: Sequence[SpanRow], start: float, end: float) -> List[SpanRow]:
    """Spans inside the timed window; a parent outside it is dropped."""
    kept = [r for r in rows if r[3] >= start and r[4] <= end]
    ids = {r[0] for r in kept}
    return [[r[0], r[1] if r[1] in ids else -1, *r[2:]] for r in kept]


def traced_sample(prepared: Prepared) -> Tuple[Timed, Dict[str, Any]]:
    """One sample under the wrappers: ``(timed, spans/counts payload)``."""
    if prepared.traced_child is not None:
        timed, payload = prepared.traced_child()
        payload["spans"] = _clip(payload["spans"], payload["start"], payload["end"])
        return timed, payload
    rec = Recorder()
    installed = Installed(rec, SITES)
    try:
        timed = prepared.sample()
    finally:
        installed.remove()
    payload = rec.payload(installed.missing)
    payload["spans"] = _clip(payload["spans"], timed.start, timed.end)
    return timed, payload


def _layers_of(
    payload: Dict[str, Any], result: Dict[str, Any], wall: float, base: float, extra: Dict[str, float]
) -> Tuple[Dict[str, Optional[float]], List[str]]:
    sample = Sample(SpanTable(payload["spans"]), payload["counts"], result, wall, base, extra)
    return layer_metrics(sample, payload["missing"], set(payload["broken"]))


def _median_or_none(values: Sequence[Optional[float]]) -> Optional[float]:
    return None if any(v is None for v in values) else statistics.median(values)  # type: ignore[type-var]


def trace_phase(
    w: Workload, prepared: Prepared, seconds: float, at_least: int, base: float, checker: Checker
) -> Tuple[Dict[str, Optional[float]], List[str], List[Dict[str, Any]]]:
    """Per-layer metrics (median over the traced samples), what could not
    be measured, and the raw spans for the trace file."""
    extra: Dict[str, float] = dict(prepared.info)
    obs = prepared.sample(obs_tracer=True)
    checker.check(obs)
    extra["tracer_overhead_ratio"] = obs.wall / base
    if prepared.baseline is not None:
        singles = [prepared.baseline() for _ in range(at_least)]
        extra["overhead_vs_single"] = base / statistics.median(t.wall for t in singles)
    if prepared.probes is not None:
        extra.update(prepared.probes(at_least))

    per_sample: List[Dict[str, Optional[float]]] = []
    problems: List[str] = []
    dumps: List[Dict[str, Any]] = []
    deadline = perf_counter() + seconds
    while len(per_sample) < at_least or perf_counter() < deadline:
        timed, payload = traced_sample(prepared)
        outcome = checker.check(timed)
        values, missing = _layers_of(
            payload, outcome.result, timed.wall, base, {**extra, **outcome.extra}
        )
        per_sample.append(values)
        problems += [p for p in missing if p not in problems]
        dumps.append({"sample": len(dumps), "wall_s": timed.wall, **payload})

    layers = {name: _median_or_none([v[name] for v in per_sample]) for name in METRICS}
    setup = prepared.setup_trace
    if setup:
        values, missing = _layers_of(setup, {}, 0.0, 0.0, extra)
        problems += [p for p in missing if p not in problems]
        # A build sample builds the grid itself; only generation is set-up.
        names = SETUP_LAYER if w.kind != "build" else ("datasets.generate_s",)
        layers.update({name: values[name] for name in names})
        dumps.append({"sample": "setup", **setup})
    return layers, problems, dumps


# -- one workload ---------------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """Set up, sample, verify; the full report of one workload."""
    env = environment(seed)
    scale = SMOKE_SCALE if smoke else w.scale
    setup_reps, at_least = (1, 2) if smoke else (3, 3)
    # The CLI's set-up already is its cache-filling first invocation.
    warmups = 0 if w.kind == "cli" else 1 if smoke else 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{w.name}-", dir=OUT))
    checker = Checker()
    try:
        setup_walls = []
        for k in range(setup_reps):  # the last set-up is the one measured on
            start = perf_counter()
            prepared = prepare(w, seed, scale, work / f"setup-{k}", trace)
            setup_walls.append(perf_counter() - start)
            if k < setup_reps - 1:
                del prepared  # drops the open grid before its files go
                shutil.rmtree(work / f"setup-{k}")
        for _ in range(warmups):
            prepared.sample().finish()

        walls = collect(prepared, seconds / 2 if trace else seconds, at_least, checker)
        rss = peak_rss_mb(w.kind)
        base = statistics.median(walls)
        report: Dict[str, Any] = {
            "workload": w.name,
            "why": w.why,
            "seed": seed,
            "scale": scale,
            "seconds": seconds,
            "num_edges": prepared.info["num_edges"],
            "end_to_end": {
                "wall_s": summarize(walls, END_TO_END["wall_s"]),
                "peak_rss_mb": summarize([rss], END_TO_END["peak_rss_mb"]),
                "setup_s": summarize(setup_walls, END_TO_END["setup_s"]),
            },
        }
        if trace:
            layers, problems, dumps = trace_phase(w, prepared, seconds / 2, at_least, base, checker)
            report["per_layer"] = {n: {"value": layers[n], "unit": PER_LAYER[n]} for n in PER_LAYER}
            report["missing_entry_points"] = problems
            (OUT / f"{w.name}.trace.json").write_text(
                json.dumps({"workload": w.name, "seed": seed, "samples": dumps})
            )

        start = perf_counter()
        if checker.values is not None and not oracle_agrees(w, seed, scale, checker.values):
            checker.failed = checker.attempted  # every sample shared these values
        report["verify_s"] = perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(
        correct=checker.failed == 0,
        attempted=checker.attempted,
        failed=checker.failed,
        fail_ratio=checker.failed / checker.attempted,
    )
    env["load1_end"] = os.getloadavg()[0]
    report["env"] = env
    return report


def print_report(report: Dict[str, Any], trace: bool) -> None:
    """Every metric by name with its unit, then the driver's result line."""
    name = report["workload"]
    for metric, m in report["end_to_end"].items():
        spread = f"  (n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})" if m["n"] > 1 else ""
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}{spread}")
    print(f"{name}  fail_ratio = {report['fail_ratio']:.6g} failed/attempted")
    print(f"{name}  verify_s = {report['verify_s']:.6g} s (not part of any metric)")
    for metric, m in report.get("per_layer", {}).items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name}  {metric} = {value} {m['unit']}")
    for problem in report.get("missing_entry_points", []):
        print(f"{name}  missing entry point: {problem}")
    shown = report["per_layer"] if trace else report["end_to_end"]
    metrics = {
        k: {"value": UNMEASURED if m["value"] is None else m["value"], "unit": m["unit"]}
        for k, m in shown.items()
    }
    line = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))


# -- every workload, one process at a time --------------------------------------


def run_suite(args: argparse.Namespace) -> int:
    """Each workload in its own process (so peak RSS is its own), traced,
    with the full window for either half; one JSON report of all of them."""
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    reports: Dict[str, Any] = {}
    for name in WORKLOADS:
        part = OUT / f"{name}.report.json"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(2 * args.seconds)]
        argv += ["--trace", "1", "--out", str(part)]
        if args.smoke:
            argv.append("--smoke")
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        reports[name] = json.loads(part.read_text())
        part.unlink()
    env["load1_end"] = os.getloadavg()[0]
    out = Path(args.out) if args.out else OUT / f"suite-seed{args.seed}.json"
    out.write_text(json.dumps({"env": env, "smoke": args.smoke, "workloads": reports}, indent=1))
    print(f"perf: report written to {out}")
    return 0 if all(r["correct"] for r in reports.values()) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--only", choices=list(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, two samples")
    parser.add_argument("--out", default=None, help="write the full JSON report here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else float(SPEC["run_seconds"])
    if args.workload is None:
        return run_suite(args)
    report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    print_report(report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
