"""CLI front-end."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.obs import peak_rss_bytes


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "twitter2010" in out
    assert "kron30" in out


def test_parser_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--dataset", "nope", "--algorithm", "bfs"])


def test_parser_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["run", "--dataset", "twitter2010", "--algorithm", "apsp"]
        )


def test_run_command_with_trace_and_json(capsys):
    argv = ["run", "--dataset", "twitter2010", "--algorithm", "bfs",
            "--system", "graphsd", "--verify"]
    rc = main(argv + ["--trace"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "graphsd/bfs" in out
    assert "frontier" in out  # trace table header
    assert main(argv + ["--stats", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "graphsd"
    assert payload["converged"] is True
    assert payload["iterations"] == len(payload["per_iteration"])


def test_preprocess_command(tmp_path, capsys):
    rc = main(
        [
            "preprocess",
            "--dataset",
            "twitter2010",
            "--system",
            "lumos",
            "--out",
            str(tmp_path / "rep"),
            "-P",
            "4",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "preprocessed twitter2010" in out
    assert (tmp_path / "rep").exists()


def test_preprocess_prints_the_peak_rss(tmp_path, capsys):
    argv = ["preprocess", "--dataset", "twitter2010", "--out", str(tmp_path / "rep")]
    assert main(argv) == 0
    after = peak_rss_bytes() / (1 << 20)
    printed = re.search(r"\(wall [0-9.]+s, peak RSS ([0-9.]+) MiB\)", capsys.readouterr().out)
    assert printed is not None
    # The process's high-water mark: at least the edge list the build held.
    assert 9.0 < float(printed.group(1)) <= after + 0.05


@pytest.mark.parametrize("system", ["lumos", "husgraph"])
def test_preprocess_rejects_an_encoding_before_loading_the_dataset(
    tmp_path, capsys, monkeypatch, system
):
    def no_load(*args, **kwargs):
        raise AssertionError("the dataset was generated before the refusal")

    monkeypatch.setattr("repro.cli.load_dataset", no_load)
    argv = ["preprocess", "--dataset", "twitter2010", "--system", system,
            "--encoding", "compact3", "--out", str(tmp_path / "rep")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--encoding compact3 is only supported by the graphsd representation" in err
    assert not (tmp_path / "rep").exists()


def test_broken_workspace_exits_nonzero_with_readable_error(tmp_path, capsys):
    """Operational failures print one readable line, not a traceback."""
    bogus = tmp_path / "not-a-directory"
    bogus.write_text("this is a file where a graph directory should be")
    rc = main(
        [
            "run",
            "--dataset",
            "twitter2010",
            "--algorithm",
            "bfs",
            "--workspace",
            str(bogus),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_preprocess_with_checksums_writes_sidecars(tmp_path):
    rc = main(
        [
            "preprocess",
            "--dataset",
            "twitter2010",
            "--out",
            str(tmp_path / "rep"),
            "-P",
            "4",
            "--checksums",
        ]
    )
    assert rc == 0
    assert list((tmp_path / "rep").glob("*.crc"))


def test_run_pipeline_flags(capsys):
    argv = ["run", "--dataset", "twitter2010", "--algorithm", "pr",
            "--pipeline", "--verify"]
    rc = main(argv)
    assert rc == 0
    out = capsys.readouterr().out
    assert "overlap saved" in out
    assert main(argv + ["--stats", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["breakdown"]["overlap_saved"] > 0
    # --pipeline is a plain flag: a value is a usage error.
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--dataset", "twitter2010", "--algorithm", "pr", "--pipeline", "3"])
    assert exit_info.value.code == 2


def test_bare_pipeline_flag_runs_pipelined(capsys):
    argv = ["run", "--dataset", "twitter2010", "--algorithm", "pr", "--pipeline"]
    assert build_parser().parse_args(argv).pipeline is True
    rc = main(argv + ["--stats", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["breakdown"]["overlap_saved"] > 0


def test_no_pipeline_flag_is_serial(capsys):
    rc = main(
        ["run", "--dataset", "twitter2010", "--algorithm", "bfs"]
    )
    assert rc == 0
    assert "overlap saved" not in capsys.readouterr().out


def test_pipeline_with_zero_depth_exits_readably(capsys):
    """--pipeline takes no depth: a value after it is a usage error."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--dataset", "twitter2010", "--algorithm", "bfs", "--pipeline", "0"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: 0" in err
    assert "Traceback" not in err


def test_baselines_reject_pipeline_readably(capsys):
    rc = main(
        [
            "run",
            "--dataset",
            "twitter2010",
            "--algorithm",
            "bfs",
            "--system",
            "gridgraph",
            "--pipeline",
        ]
    )
    assert rc == 2
    assert "does not support --pipeline" in capsys.readouterr().err


# -- cluster runs (--workers, docs/CLUSTER.md) -------------------------------


def test_run_workers_shards_and_reports_recovery(capsys):
    rc = main(
        [
            "run",
            "--dataset",
            "twitter2010",
            "--algorithm",
            "pr",
            "--workers",
            "2",
            "-P",
            "4",
            "--verify",
            "--stats",
            "json",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "worker" not in captured.err
    payload = json.loads(captured.out)
    assert payload["engine"] == "cluster"
    assert payload["recovery"]["workers"] == 2
    assert payload["recovery"]["messages_sent"] > 0
    assert all(r["model"] == "cluster" for r in payload["per_iteration"])


def test_run_workers_stats_json_carries_recovery_counters(capsys):
    rc = main(
        [
            "run",
            "--dataset",
            "twitter2010",
            "--algorithm",
            "pr",
            "--workers",
            "2",
            "-P",
            "4",
            "--interconnect",
            "eth1",
            "--stats",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "cluster"
    assert payload["recovery"]["workers_final"] == 2
    assert payload["recovery"]["net_retries"] == 0


def test_workers_require_the_graphsd_system(capsys):
    rc = main(
        [
            "run",
            "--dataset",
            "twitter2010",
            "--algorithm",
            "pr",
            "--system",
            "gridgraph",
            "--workers",
            "2",
        ]
    )
    assert rc == 2
    assert "--workers requires --system graphsd" in capsys.readouterr().err


def test_workers_refuse_gather_lanes(capsys):
    argv = ["run", "--dataset", "twitter2010", "--algorithm", "pr", "--workers", "2"]
    assert main(argv + ["--gather-lanes", "4"]) == 2
    assert "--gather-lanes applies to single-process" in capsys.readouterr().err


def test_workers_and_pipeline_are_mutually_exclusive(capsys):
    rc = main(
        [
            "run",
            "--dataset",
            "twitter2010",
            "--algorithm",
            "pr",
            "--workers",
            "2",
            "--pipeline",
        ]
    )
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


# -- asynchronous execution (--system graphsd-async, docs/PERFORMANCE.md) ----


def test_run_async_executes_and_reports_sweeps(capsys):
    argv = ["run", "--dataset", "twitter2010", "--algorithm", "sssp",
            "--system", "graphsd-async"]
    rc = main(argv)
    assert rc == 0
    assert "sweeps" in capsys.readouterr().out
    assert main(argv + ["--stats", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "graphsd-async"
    assert payload["converged"] is True
    assert 0 < payload["sweeps"] <= payload["iterations"]


def test_async_requires_a_monotonic_algorithm(capsys, monkeypatch):
    def no_generate(*args, **kwargs):
        raise AssertionError("the dataset was generated before the refusal")

    # An empty cache: loading the dataset would have to generate it.
    monkeypatch.setattr("repro.datasets.registry._cache", {})
    monkeypatch.setattr("repro.datasets.registry.DatasetSpec.generate", no_generate)
    rc = main(
        ["run", "--dataset", "twitter2010", "--algorithm", "pr",
         "--system", "graphsd-async"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "monotonic" in err
    assert "Traceback" not in err


def test_async_system_and_workers_are_refused(capsys):
    rc = main(
        [
            "run",
            "--dataset",
            "twitter2010",
            "--algorithm",
            "sssp",
            "--system",
            "graphsd-async",
            "--workers",
            "2",
        ]
    )
    assert rc == 2
    assert "--workers requires --system graphsd" in capsys.readouterr().err


def test_parser_rejects_unknown_interconnect():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            [
                "run",
                "--dataset",
                "twitter2010",
                "--algorithm",
                "pr",
                "--workers",
                "2",
                "--interconnect",
                "carrier-pigeon",
            ]
        )


# -- lint subcommand ---------------------------------------------------------


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    rc = main(["lint", str(clean)])
    assert rc == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_lint_violation_exits_one_with_rendered_finding(tmp_path, capsys):
    core = tmp_path / "core"
    core.mkdir()
    bad = core / "hot.py"
    bad.write_text("try:\n    pass\nexcept Exception:\n    pass\n")
    rc = main(["lint", str(bad)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "GSD105" in out
    assert "1 new finding(s)" in out


def test_lint_json_format_shape(tmp_path, capsys):
    bad = tmp_path / "swallow.py"
    bad.write_text("try:\n    pass\nexcept Exception:\n    pass\n")
    rc = main(["lint", "--format", "json", str(bad)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["new_findings"] == 1
    assert payload["baselined"] == 0
    assert payload["parse_errors"] == []
    (finding,) = payload["findings"]
    assert finding["rule"] == "GSD105"
    assert finding["severity"] == "error"
    assert finding["path"].endswith("swallow.py")
    assert finding["line"] == 3
    assert finding["new"] is True


def test_lint_missing_path_is_operational_error(tmp_path, capsys):
    rc = main(["lint", str(tmp_path / "nope.py")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_lint_missing_baseline_is_operational_error(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    rc = main(["lint", "--baseline", str(tmp_path / "absent.json"), str(clean)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_lint_update_baseline_grandfathers_findings(tmp_path, capsys):
    bad = tmp_path / "swallow.py"
    bad.write_text("try:\n    pass\nexcept Exception:\n    pass\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"version": 1, "entries": {}}')
    rc = main(["lint", "--baseline", str(baseline), "--update-baseline", str(bad)])
    assert rc == 0
    assert "1 entry" in capsys.readouterr().out
    rc = main(["lint", "--baseline", str(baseline), str(bad)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 new finding(s), 1 baselined" in out


def test_lint_default_scope_is_the_package(capsys):
    rc = main(["lint"])
    assert rc == 0
    assert "file(s) checked" in capsys.readouterr().out


def test_lint_rules_prints_catalogue(capsys):
    rc = main(["lint", "--rules"])
    assert rc == 0
    out = capsys.readouterr().out
    for rule in ("GSD100", "GSD101", "GSD105", "GSD108"):
        assert rule in out
    for retired in ("GSD103", "GSD106", "GSD107", "GSD109"):
        assert retired not in out


def test_lint_sarif_format(tmp_path, capsys):
    bad = tmp_path / "swallow.py"
    bad.write_text("try:\n    pass\nexcept Exception:\n    pass\n")
    rc = main(["lint", "--format", "sarif", str(bad)])
    assert rc == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "graphsd"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"GSD101", "GSD102", "GSD104", "GSD105", "GSD108"} == rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "GSD105"
    assert result["baselineState"] == "new"
    assert "graphsdFindingKey/v1" in result["partialFingerprints"]


def test_lint_sarif_fingerprint_survives_line_shifts(tmp_path, capsys):
    bad = tmp_path / "swallow.py"
    body = "try:\n    pass\nexcept Exception:\n    pass\n"
    bad.write_text(body)
    main(["lint", "--format", "sarif", str(bad)])
    first = json.loads(capsys.readouterr().out)
    # Prepend unrelated lines: the finding moves, its identity must not.
    bad.write_text("# header\n# header\n" + body)
    main(["lint", "--format", "sarif", str(bad)])
    second = json.loads(capsys.readouterr().out)
    fp = lambda log: log["runs"][0]["results"][0]["partialFingerprints"]
    line = lambda log: log["runs"][0]["results"][0]["locations"][0][
        "physicalLocation"
    ]["region"]["startLine"]
    assert fp(first) == fp(second)
    assert line(second) == line(first) + 2


# -- observability surface (docs/OBSERVABILITY.md) ---------------------------


def test_run_trace_path_writes_valid_jsonl(tmp_path, capsys):
    trace = tmp_path / "run.trace.jsonl"
    rc = main(
        [
            "run",
            "--dataset",
            "twitter2010",
            "--algorithm",
            "bfs",
            "-P",
            "4",
            "--trace",
            str(trace),
        ]
    )
    assert rc == 0
    assert f"wrote {trace}" in capsys.readouterr().out
    from repro.obs import validate_trace_file

    events = validate_trace_file(str(trace))
    assert any(e["type"] == "audit" for e in events)
    assert any(e["type"] == "run" for e in events)


def test_run_stats_json_is_machine_readable(capsys):
    rc = main(
        [
            "run",
            "--dataset",
            "twitter2010",
            "--algorithm",
            "bfs",
            "-P",
            "4",
            "--stats",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "graphsd"
    assert payload["converged"] is True
    assert payload["io"]["bytes_read_seq"] > 0
    assert len(payload["per_iteration"]) == payload["iterations"]
    assert payload["values_sha256"]


def test_trace_report_prints_prediction_error(tmp_path, capsys):
    trace = tmp_path / "r.trace.jsonl"
    assert (
        main(
            [
                "run",
                "--dataset",
                "twitter2010",
                "--algorithm",
                "bfs",
                "-P",
                "4",
                "--trace",
                str(trace),
            ]
        )
        == 0
    )
    capsys.readouterr()
    rc = main(["trace", "report", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheduler decisions" in out
    assert "prediction error" in out
    assert "mean_rel" in out


def test_trace_export_produces_perfetto_json(tmp_path, capsys):
    trace = tmp_path / "e.trace.jsonl"
    chrome = tmp_path / "e.chrome.json"
    assert (
        main(
            [
                "run",
                "--dataset",
                "twitter2010",
                "--algorithm",
                "bfs",
                "-P",
                "4",
                "--trace",
                str(trace),
            ]
        )
        == 0
    )
    capsys.readouterr()
    rc = main(["trace", "export", str(trace), "--out", str(chrome)])
    assert rc == 0
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_trace_report_on_missing_file_is_operational_error(tmp_path, capsys):
    rc = main(["trace", "report", str(tmp_path / "absent.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_trace_report_on_invalid_file_is_operational_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "mystery"}\n')
    rc = main(["trace", "report", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
