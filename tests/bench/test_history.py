"""The perf-regression sentinel: tolerance rules and the check loop.

The rule layer is tested in isolation (no benchmark runs); the doctored
records exercise every run table's smoke cells end to end and pin the
CLI contract — one doctored gated field must turn into exactly one
failed comparison and exit code 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.runner import (
    BYTES_REL_TOL,
    CheckReport,
    Comparison,
    SIM_REL_TOL,
    build_record,
    check_history,
    compare,
    load_records,
)
from repro.bench.tables import BENCH_2, TABLES
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]


def _rule(rule, recorded, fresh):
    return compare("BENCH_X", "cell", "metric", rule, recorded, fresh)


def test_time_rule_tolerates_float_fold_drift():
    c = _rule("time", 0.3081409201074223, 0.30814092010742233)
    assert c.ok and c.rule == "time"


def test_time_rule_fails_a_ten_percent_regression():
    assert not _rule("time", 1.0, 1.10).ok
    assert 0.10 > SIM_REL_TOL


def test_time_rule_reports_improvement_without_failing():
    c = _rule("time", 1.0, 0.80)
    assert c.ok and c.note == "improved"


def test_bytes_rule_is_tight():
    assert _rule("bytes", 1000, 1005).ok
    assert not _rule("bytes", 1000, 1020).ok
    assert 0.02 > BYTES_REL_TOL


def test_exact_rule_rejects_any_change():
    assert _rule("exact", "abc", "abc").ok
    assert not _rule("exact", 5, 6).ok


def test_report_render_names_regressions():
    report = CheckReport(
        comparisons=[
            Comparison("B", "c", "m", 1, 1, "exact", True),
            Comparison("B", "c", "n", 1, 2, "exact", False),
        ],
        skipped=["BENCH_9: no reproducer"],
    )
    text = report.render()
    assert "REGRESSIONS: 1" in text
    assert "skip BENCH_9" in text
    assert len(report.failures()) == 1
    clean = CheckReport(comparisons=[Comparison("B", "c", "m", 1, 1, "exact", True)])
    assert "no regressions" in clean.render()


def test_load_records_rejects_non_bench_json(tmp_path):
    (tmp_path / "BENCH_9.json").write_text(json.dumps({"nope": 1}))
    with pytest.raises(ValueError, match="no bench_id"):
        load_records(tmp_path)


def test_check_history_requires_records(tmp_path):
    with pytest.raises(ValueError, match="no BENCH_"):
        check_history(tmp_path)


def test_unknown_bench_ids_are_skipped_not_passed(tmp_path):
    (tmp_path / "BENCH_99.json").write_text(json.dumps({"bench_id": "BENCH_99"}))
    report = check_history(tmp_path)
    assert report.skipped == ["BENCH_99: no reproducer"]
    assert report.comparisons == []


def _repo_record(name):
    return json.loads((REPO / f"{name}.json").read_text())


def _write(tmp_path, record):
    (tmp_path / f"{record['bench_id']}.json").write_text(json.dumps(record))


def test_clean_record_passes_through_the_cli(capsys):
    """Every committed record is compared under --smoke: none skipped."""
    rc = main(["bench", "check", "--smoke", "--bench-dir", str(REPO)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "no regressions" in out
    assert "skip" not in out
    compared = {line.split()[1] for line in out.splitlines() if line.startswith("  ok")}
    assert compared == set(TABLES)


def _scale(factor):
    return lambda v: type(v)(v * factor)


#: bench id -> (record path of one gated field of a smoke cell, metric,
#: the doctoring, the rule it must trip).
DOCTORED = {
    # Record a sim time 10% *below* what the code produces: the fresh
    # run then reads as a 10% regression.
    "BENCH_2": ("workloads.pr.serial", "sim_seconds", _scale(1 / 1.10), "time"),
    "BENCH_3": ("on_disk_bytes.unweighted", "raw_edge_bytes", lambda v: v + 1, "exact"),
    "BENCH_4": ("workloads.pr.by_workers.4", "messages_sent", lambda v: v + 1, "exact"),
    "BENCH_5": ("workloads.sssp.compact3.K4", "gather_runs_issued", lambda v: v + 1, "exact"),
    "BENCH_6": ("workloads.sssp.async", "io_bytes", _scale(0.5), "bytes"),
}


@pytest.mark.parametrize("bench_id", sorted(DOCTORED))
def test_doctored_smoke_field_fails_exactly_once(bench_id, tmp_path, capsys):
    path, metric, doctor, rule = DOCTORED[bench_id]
    record = _repo_record(bench_id)
    node = record
    for key in path.split("."):
        node = node[key]
    node[metric] = doctor(node[metric])
    _write(tmp_path, record)

    rc = main(
        ["bench", "check", "--smoke", "--bench-dir", str(tmp_path), "--only", bench_id]
    )
    out = capsys.readouterr().out
    assert rc == 1
    failed = [line for line in out.splitlines() if line.startswith("  FAIL")]
    assert len(failed) == 1, out
    assert f" {bench_id} {path}.{metric} [{rule}]:" in failed[0]
    assert "REGRESSIONS: 1" in out


def test_missing_recorded_cell_fails_instead_of_passing(tmp_path):
    record = _repo_record("BENCH_2")
    del record["workloads"]["pr"]
    _write(tmp_path, record)
    report = check_history(tmp_path, smoke=True)
    failures = report.failures()
    assert failures and len(failures) == len(report.comparisons)
    assert {(f.rule, f.note) for f in failures} == {("exact", "missing from record")}
    assert {f.cell for f in failures} == {
        "workloads.pr",
        "workloads.pr.serial",
        "workloads.pr.pipelined",
    }


def test_smoke_checks_bench3_layout(tmp_path):
    """BENCH_3's smoke cells are its preprocessing-only byte layouts."""
    _write(tmp_path, _repo_record("BENCH_3"))
    report = check_history(tmp_path, smoke=True)
    assert report.skipped == []
    assert {c.cell for c in report.comparisons} == {
        "on_disk_bytes.unweighted",
        "on_disk_bytes.weighted",
    }
    assert report.ok


def _deterministic(node):
    if not isinstance(node, dict):
        return node
    return {
        k: _deterministic(v)
        for k, v in node.items()
        if not k.startswith("wall_")
    }


def test_smoke_cell_is_deterministic():
    """Two runs of one smoke cell agree on every non-wall-clock field."""
    first, second = (build_record(BENCH_2, BENCH_2.smoke) for _ in range(2))
    assert "pr" in first["workloads"]
    assert _deterministic(first) == _deterministic(second)
    assert "wall_seconds" in first["workloads"]["pr"]["serial"]


def test_missing_bench_dir_is_a_usage_error(tmp_path):
    rc = main(["bench", "check", "--bench-dir", str(tmp_path / "nowhere")])
    assert rc == 2


def test_bench5_is_gated_not_skipped(tmp_path):
    """The K-lane selective-gather record has a reproducer: the smoke
    cells (sssp, compact3, K=1 and K=4) are compared, not skipped."""
    _write(tmp_path, _repo_record("BENCH_5"))
    report = check_history(tmp_path, smoke=True)
    assert report.skipped == []
    cells = {c.cell for c in report.comparisons}
    assert cells == {"workloads.sssp.compact3.K1", "workloads.sssp.compact3.K4"}
    rules = {c.metric: c.rule for c in report.comparisons}
    assert rules == {
        "sim_seconds": "time",
        "io_bytes": "bytes",
        "gather_runs_issued": "exact",
        "identical_results": "exact",
    }
    assert report.ok


def test_cli_import_leaves_the_runner_unloaded():
    """``graphsd run``'s import path carries no run table."""
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.bench.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    ).stdout
    assert "repro.bench.tables" not in out
    assert "repro.bench.runner" not in out
