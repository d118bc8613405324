"""Smoke test of the benchmark itself: ``python -m pytest perf/tests``.

Outside tier-1 ``testpaths`` on purpose — it runs the whole suite three
times at ``--smoke`` size (about a minute).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perf import compare
from perf.layers import METRICS, SITES, Sample, layer_metrics
from perf.trace import Installed, Recorder, SpanTable

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Workloads whose input is generated from the seed (the CLI's is a named dataset).
SEEDED = [w["name"] for w in SPEC["workloads"] if w["name"] != "cli_cold"]


def _suite(tmp: Path, seed: int, tag: str) -> dict:
    out = tmp / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--smoke", "--seed", str(seed), "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def suites(tmp_path_factory: pytest.TempPathFactory) -> dict:
    tmp = tmp_path_factory.mktemp("perf")
    return {
        "other_seed": _suite(tmp, 2, "other"),
        "first": _suite(tmp, 1, "first"),
        "again": _suite(tmp, 1, "again"),  # last, so perf/out/*.trace.json are its
    }


def test_every_declared_metric_is_reported_with_its_unit(suites: dict) -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(suites["first"]["workloads"])
    for report in suites["first"]["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            for declared in SPEC[kind]:
                got = report[kind][declared["name"]]
                assert got["unit"] == declared["unit"]
                assert isinstance(got["value"], (int, float)), declared["name"]
        assert report["missing_entry_points"] == []
    assert set(METRICS) == {m["name"] for m in SPEC["per_layer"]}


def test_no_sample_fails_verification(suites: dict) -> None:
    for suite in suites.values():
        for report in suite["workloads"].values():
            assert report["correct"] and report["fail_ratio"] == 0 and report["attempted"] >= 1


def test_simulated_figures_repeat_for_a_seed_and_move_with_it(suites: dict) -> None:
    def figures(suite: dict, name: str) -> tuple:
        layers = suite["workloads"][name]["per_layer"]
        return layers["engine.sim_s"]["value"], layers["engine.io_bytes"]["value"]

    for name in SEEDED:
        sim, io = figures(suites["first"], name)
        sim_again, io_again = figures(suites["again"], name)
        # The simulated clock is cumulative over an engine's runs, so a
        # run's share of it is exact only to the last few ulps.
        assert sim == pytest.approx(sim_again, rel=compare.EXACT_REL) and io == io_again
        sim_other, io_other = figures(suites["other_seed"], name)
        assert sim != pytest.approx(sim_other, rel=compare.EXACT_REL) and io != io_other
    assert list(compare.exact_rows(suites["first"], suites["again"], SPEC)) == []


def test_self_times_fit_inside_each_traced_sample(suites: dict) -> None:
    for name in suites["again"]["workloads"]:
        trace = json.loads((ROOT / "perf" / "out" / f"{name}.trace.json").read_text())
        samples = [s for s in trace["samples"] if s["sample"] != "setup"]
        assert samples
        for sample in samples:
            table = SpanTable(sample["spans"])
            assert table.rows, name
            slack = 1e-6 * len(table.rows)
            assert sum(table.row_self(r) for r in table.rows) <= sample["wall_s"] + slack
            assert sum(r[4] - r[3] for r in table.top_level()) <= sample["wall_s"] + slack


def test_compare_passes_a_rerun_and_flags_a_slowdown(suites: dict, tmp_path: Path) -> None:
    slower = copy.deepcopy(suites["first"])
    wall = slower["workloads"]["pr_stream"]["end_to_end"]["wall_s"]
    wall["value"] *= 2.0
    paths = {}
    for tag, suite in (("first", suites["first"]), ("slower", slower)):
        paths[tag] = tmp_path / f"{tag}.json"
        paths[tag].write_text(json.dumps(suite))
    assert compare.main([str(paths["first"]), str(paths["first"])]) == 0
    assert compare.main([str(paths["first"]), str(paths["slower"])]) == 1


def test_a_missing_entry_point_degrades_its_metrics_only() -> None:
    rec = Recorder()
    bogus = ("grid.stream", "repro.graph.grid:GridStore.no_such_method", None)
    installed = Installed(rec, [bogus, *SITES[:2]])
    installed.remove()
    assert installed.missing == [bogus[1]]

    gone = next(site for name, site, _hook in SITES if name == "grid.stream")
    sample = Sample(SpanTable([]), {}, {}, 1.0, 1.0, {})
    values, problems = layer_metrics(sample, [gone], set())
    assert problems == [gone]
    assert values["grid.stream_s"] is None and values["grid.decode_self_s"] is None
    assert values["kernels.gather_s"] == 0.0
