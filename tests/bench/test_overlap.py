"""The overlap run table (BENCH_2): report shape, record schema, gates."""

import json
from pathlib import Path

import pytest

from repro.bench import Harness
from repro.bench.runner import build_record, check_table
from repro.bench.tables import BENCH_2, overlap_report
from repro.cli import main

PR_ONLY = {"algo": ("pr",)}


def test_overlap_report():
    with Harness(P=4) as harness:
        report = overlap_report(harness, PR_ONLY)
    assert report.experiment_id == "overlap"
    assert len(report.rows) == 1
    assert "pr" in report.data["speedups"]
    assert "WARNING" not in report.render()
    assert report.notes[-1].endswith("(results bit-identical; only overlap-hidden time differs)")


def test_overlap_report_tells_model_choices_from_values():
    """At P=4 the pipelined scheduler prices the overlapped cost and picks
    SCIU where serial picks FCIU: the values stay bit-identical, but the
    traffic moves, so the row is not identical and nothing claims it is."""
    with Harness(P=4) as harness:
        report = overlap_report(harness, {"algo": ("cc",)})
    (row_note,) = [n for n in report.notes if n.startswith(("NOTE", "WARNING"))]
    assert row_note.startswith("NOTE: cc values are bit-identical, but the pipelined scheduler")
    assert report.notes[-1].endswith("(not every row is bit-identical; see the notes above)")


def test_bench_record_schema_and_invariants():
    record = build_record(BENCH_2, PR_ONLY, header={"partitions": 4})
    assert record["bench_id"] == "BENCH_2"
    assert record["partitions"] == 4
    entry = record["workloads"]["pr"]
    assert entry["identical_results"] is True
    for side in ("serial", "pipelined"):
        for key in (
            "sim_seconds",
            "io_seconds",
            "compute_seconds",
            "overlap_saved_seconds",
            "wall_seconds",
            "io_traffic_bytes",
            "buffer_hit_bytes",
        ):
            assert key in entry[side], key
    assert entry["pipelined"]["sim_seconds"] <= entry["serial"]["sim_seconds"]
    assert entry["serial"]["overlap_saved_seconds"] == 0.0
    # Per-component conservation between modes.
    assert entry["serial"]["io_seconds"] == entry["pipelined"]["io_seconds"]
    assert entry["serial"]["compute_seconds"] == entry["pipelined"]["compute_seconds"]


def test_smoke_guard_passes():
    recorded = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCH_2.json").read_text()
    )
    comparisons, gate_failures = check_table(BENCH_2, recorded, smoke=True)
    assert comparisons and all(c.ok for c in comparisons)
    assert gate_failures == []
    # The acceptance gates catch what the smoke cells must never show.
    entry = recorded["workloads"]["pr"]
    entry["pipelined"]["sim_seconds"] = 2 * entry["serial"]["sim_seconds"]
    entry["identical_results"] = False
    assert BENCH_2.accept({"workloads": {"pr": entry}}) == [
        "pr: pipelined total exceeds serial",
        "pr: serial and pipelined runs are not bit-identical",
    ]


def test_main_writes_record(tmp_path, capsys):
    rc = main(["bench", "write", "--only", "BENCH_2", "--bench-dir", str(tmp_path)])
    assert rc == 0
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_2.json"]
    payload = json.loads((tmp_path / "BENCH_2.json").read_text())
    assert set(payload["workloads"]) == {"pr", "pr-d", "cc", "sssp"}


@pytest.mark.xfail(
    strict=True,
    reason="pipelined adaptive cc on compact3 prices its first rounds as SCIU "
    "where serial picks FCIU, and runs 0.418 s against serial's 0.220 s",
)
def test_pipelined_is_not_slower_than_serial_on_compact3():
    """BENCH_2's gate, pipelined <= serial, on the compact3 layout.

    Raw, format 2 and serial compact3 open adaptive cc with FCIU rounds;
    pipelined compact3 opens with SCIU and doubles the simulated time.
    Mending the pricing moves simulated numbers, so the gap is pinned
    here until a change that re-records the BENCH files closes it.
    """
    with Harness(P=8, encoding="compact3") as harness:
        serial = harness.run("graphsd", "cc", "twitter2010")
        piped = harness.run("graphsd", "cc", "twitter2010", pipelined=True)
    assert piped.sim_seconds <= serial.sim_seconds
