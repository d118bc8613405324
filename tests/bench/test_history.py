"""The perf-regression sentinel: tolerance rules and the check loop.

The rule layer is tested in isolation (no benchmark runs); the doctored
BENCH_2 record exercises the real reproducer end to end and pins the
CLI contract — a 10% simulated-time slip must turn into exit code 1.
"""

import json

import pytest

from repro.bench.history import (
    BYTES_REL_TOL,
    CheckReport,
    Comparison,
    SIM_REL_TOL,
    _Cells,
    check_history,
    load_records,
)
from repro.cli import main


@pytest.fixture()
def cells():
    out = []
    return _Cells("BENCH_X", out), out


def test_time_rule_tolerates_float_fold_drift(cells):
    c, out = cells
    c.time("cell", "sim_seconds", 0.3081409201074223, 0.30814092010742233)
    assert out[-1].ok and out[-1].rule == "time"


def test_time_rule_fails_a_ten_percent_regression(cells):
    c, out = cells
    c.time("cell", "sim_seconds", 1.0, 1.10)
    assert not out[-1].ok
    assert 0.10 > SIM_REL_TOL


def test_time_rule_reports_improvement_without_failing(cells):
    c, out = cells
    c.time("cell", "sim_seconds", 1.0, 0.80)
    assert out[-1].ok and out[-1].note == "improved"


def test_bytes_rule_is_tight(cells):
    c, out = cells
    c.bytes("cell", "io_bytes", 1000, 1005)
    assert out[-1].ok
    c.bytes("cell", "io_bytes", 1000, 1020)
    assert not out[-1].ok
    assert 0.02 > BYTES_REL_TOL


def test_exact_rule_rejects_any_change(cells):
    c, out = cells
    c.exact("cell", "values_sha256", "abc", "abc")
    assert out[-1].ok
    c.exact("cell", "iterations", 5, 6)
    assert not out[-1].ok


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


def test_smoke_skips_bench3(tmp_path):
    (tmp_path / "BENCH_3.json").write_text(
        json.dumps({"bench_id": "BENCH_3", "dataset": "x", "partitions": 8})
    )
    report = check_history(tmp_path, smoke=True, only=["BENCH_3"])
    assert report.skipped == ["BENCH_3: full mode only"]


def _repo_record(name):
    from pathlib import Path

    return json.loads((Path(__file__).resolve().parents[2] / name).read_text())


@pytest.fixture(scope="module")
def repo_bench_2():
    return _repo_record("BENCH_2.json")


def test_doctored_regression_fails_and_exits_nonzero(
    tmp_path, repo_bench_2, capsys
):
    doctored = json.loads(json.dumps(repo_bench_2))
    # Record a sim time 10% *below* what the code produces: the fresh
    # run then reads as a 10% regression and must trip the gate.
    doctored["workloads"]["pr"]["serial"]["sim_seconds"] /= 1.10
    (tmp_path / "BENCH_2.json").write_text(json.dumps(doctored))

    report = check_history(tmp_path, smoke=True, only=["BENCH_2"])
    failures = report.failures()
    assert len(failures) == 1
    assert failures[0].metric == "sim_seconds"
    assert failures[0].rule == "time"

    rc = main(
        ["bench", "check", "--smoke", "--bench-dir", str(tmp_path), "--only", "BENCH_2"]
    )
    assert rc == 1
    assert "REGRESSIONS: 1" in capsys.readouterr().out


def test_clean_record_passes_through_the_cli(tmp_path, repo_bench_2, capsys):
    (tmp_path / "BENCH_2.json").write_text(json.dumps(repo_bench_2))
    rc = main(
        ["bench", "check", "--smoke", "--bench-dir", str(tmp_path), "--only", "BENCH_2"]
    )
    assert rc == 0
    assert "no regressions" in capsys.readouterr().out


def test_missing_bench_dir_is_a_usage_error(tmp_path):
    rc = main(["bench", "check", "--bench-dir", str(tmp_path / "nowhere")])
    assert rc == 2


def test_bench5_is_gated_not_skipped(tmp_path):
    """The K-lane selective-gather record has a reproducer: the smoke
    cells (sssp, compact3, K=1 and K=4) are compared, not skipped."""
    (tmp_path / "BENCH_5.json").write_text(json.dumps(_repo_record("BENCH_5.json")))
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
    assert report.failures() == []


def test_bench5_gather_runs_are_exact(tmp_path):
    doctored = _repo_record("BENCH_5.json")
    doctored["workloads"]["sssp"]["compact3"]["K4"]["gather_runs_issued"] += 1
    (tmp_path / "BENCH_5.json").write_text(json.dumps(doctored))
    failures = check_history(tmp_path, smoke=True).failures()
    assert [(f.cell, f.metric) for f in failures] == [
        ("workloads.sssp.compact3.K4", "gather_runs_issued")
    ]
