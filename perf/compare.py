"""Compare two reports of ``perf/run.py``: ``python -m perf.compare A.json B.json``.

A is the parent (or the first of two runs of the same code), B the
change. One row per workload × end-to-end metric, with the bound
``BENCHMARK.json`` fixes for it:

``worse``       B's median is worse than A's by more than the bound
``better``      ... better by more than the bound
``same``        within the bound
``unresolved``  A's own run-to-run spread is wider than the bound, so the
                pair cannot tell a regression from noise

Then the figures that repeat exactly — the program's simulated clock,
its byte counts and every count-type per-layer metric — which must be
identical (relative 1e-9) or are listed with their direction. Exits 1 on
any *worse* row, and on any failed sample in B.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
EXACT_REL = 1e-9
#: Per-layer metrics that are deterministic for a seed beside the
#: count- and byte-valued ones.
EXACT_EXTRA = (
    "grid.bytes_per_edge",
    "engine.sim_s",
    "engine.sim_io_s",
    "engine.sim_compute_s",
    "engine.sim_overlap_saved_s",
    "cluster.sim_network_s",
    "scheduler.on_demand_ratio",
    "kernels.useful_edge_ratio",
    "buffer.hit_ratio",
)


def verdict(a: float, b: float, better: str, bound: float) -> str:
    """How B's value stands to A's, given which direction is better."""
    if a == b:
        return "same"
    change = (b - a) / abs(a) if a else float("inf")
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def median_spread(m: Dict[str, Any]) -> float:
    """Estimated inter-quartile spread of the reported median between runs,
    as a share of it.

    A report holds one run, so the spread between runs is estimated from
    the samples inside it: a median of n samples varies about
    ``1.25 / sqrt(n)`` times as widely as a single sample does.
    """
    return 1.25 * (m["q3"] - m["q1"]) / math.sqrt(m["n"]) / m["value"]


def end_to_end_rows(
    a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
) -> Iterator[Tuple[str, str, float, float, float, str]]:
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for m in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            spread = median_spread(ma)
            v = verdict(ma["value"], mb["value"], m["better"], m["bound"])
            if spread > m["bound"]:
                v = "unresolved"
            yield name, m["name"], ma["value"], mb["value"], spread, v


def exact_rows(
    a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
) -> Iterator[Tuple[str, str, float, float, str]]:
    exact = {
        m["name"]: m["better"]
        for m in spec["per_layer"]
        if m["unit"] in ("count", "B") or m["name"] in EXACT_EXTRA
    }
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None or "per_layer" not in wa or "per_layer" not in wb:
            continue
        for metric, better in exact.items():
            va, vb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
            if va is None or vb is None:
                if va is not vb:
                    yield name, metric, va, vb, "unmeasured"
                continue
            v = verdict(va, vb, better, EXACT_REL)
            if v != "same":
                yield name, metric, va, vb, v


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0

    print(f"{'workload':16s} {'metric':12s} {'A':>12s} {'B':>12s} {'B/A':>7s} {'A spread':>9s}  verdict")
    for name, metric, va, vb, spread, v in end_to_end_rows(a, b, spec):
        print(f"{name:16s} {metric:12s} {va:12.6g} {vb:12.6g} {vb / va:7.3f} {spread:9.1%}  {v}")
        bad += v == "worse"

    rows = list(exact_rows(a, b, spec))
    print(f"\nexact figures that differ: {len(rows)}")
    for name, metric, va, vb, v in rows:
        print(f"{name:16s} {metric:28s} {va!r:>16} {vb!r:>16}  {v}")
        bad += v == "worse"

    for name, wb in b["workloads"].items():
        if wb["failed"]:
            print(f"{name}: {wb['failed']} of {wb['attempted']} samples failed verification")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
