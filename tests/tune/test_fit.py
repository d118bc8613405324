"""`graphsd tune` determinism against a committed audit fixture.

The fixture files under ``fixtures/`` are hand-written trace excerpts
with exactly representable numbers, so the least-squares-through-origin
scales have closed-form golden values (docs/TUNING.md documents the
math; the comments below show the arithmetic).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tune import fit_scales
from repro.tune.fit import load_audit_samples

FIXTURES = Path(__file__).parent / "fixtures"
MIXED = str(FIXTURES / "audit_mixed.jsonl")
FULL_ONLY = str(FIXTURES / "audit_full_only.jsonl")


def test_golden_scales_from_committed_fixture():
    p = fit_scales([MIXED])
    # full: pairs (2,1),(4,2) -> (2*1 + 4*2) / (4 + 16) = 10/20
    assert p.full_cost_scale == 0.5
    # on_demand: pairs (1,2),(2,4) -> (1*2 + 2*4) / (1 + 4) = 10/5
    assert p.on_demand_cost_scale == 2.0
    assert p.samples_full == 2
    assert p.samples_on_demand == 2


def test_skip_accounting():
    samples, skipped_open, skipped_degraded = load_audit_samples(MIXED)
    assert len(samples) == 4
    assert skipped_open == 1  # iteration 5 never closed
    assert skipped_degraded == 1  # iteration 4 degraded to FCIU
    report = fit_scales([MIXED])
    assert report.skipped_open == 1
    assert report.skipped_degraded == 1


def test_full_only_trace_leaves_on_demand_neutral():
    p = fit_scales([FULL_ONLY])
    assert p.full_cost_scale == 1.5  # (1*1.5) / (1*1)
    assert p.on_demand_cost_scale == 1.0  # underdetermined -> neutral
    assert p.samples_on_demand == 0


def test_fit_is_deterministic():
    first = fit_scales([MIXED, FULL_ONLY])
    second = fit_scales([MIXED, FULL_ONLY])
    assert first == second
    assert first.render() == second.render()


def test_render_mentions_everything():
    text = fit_scales([MIXED]).render()
    assert "0.500000  (2 decisions)" in text and "2.000000  (2 decisions)" in text
    assert "audit records used    4" in text
    assert "open skipped: 1" in text and "fault-degraded skipped: 1" in text


def test_non_trace_file_fails_readably(tmp_path):
    bad = tmp_path / "notatrace.jsonl"
    bad.write_text('{"type": "span", "name": "x"}\n')
    with pytest.raises(ValueError, match="first event must be 'meta'"):
        load_audit_samples(str(bad))


def test_audit_missing_field_fails_readably(tmp_path):
    bad = tmp_path / "broken.jsonl"
    bad.write_text(
        '{"type": "meta", "schema": "graphsd-trace", "version": 1,'
        ' "program": "p", "num_vertices": 1, "num_edges": 1}\n'
        '{"type": "audit", "iteration": 0, "chosen": "full", "actual_model": "full",'
        ' "actual_sim_seconds": 1.0}\n'
    )
    with pytest.raises(ValueError, match="line 2: audit event missing field 'c_full'"):
        load_audit_samples(str(bad))


def test_cli_tune_round_trip(tmp_path, capsys):
    """A live adaptive run's trace fits; ``tune`` prints both scales."""
    from repro.cli import main

    trace = str(tmp_path / "t.jsonl")
    argv = ["run", "--dataset", "twitter2010", "--algorithm", "sssp", "--trace", trace]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["tune", trace]) == 0
    printed = capsys.readouterr().out
    report = fit_scales([trace])
    assert printed == report.render() + "\n"
    assert report.samples_full and report.samples_on_demand
    for name in ("full_cost_scale", "on_demand_cost_scale"):
        assert re.search(rf"{name}\s+\d+\.\d{{6}}  \(\d+ decisions\)", printed)


def test_cli_tune_missing_file_exits_2(tmp_path, capsys):
    from repro.cli import main

    assert main(["tune", str(tmp_path / "nope.jsonl")]) == 2


@pytest.mark.parametrize("module", ["repro.cli", "repro.core"])
def test_import_loads_no_tune_module(module):
    """The fit is a report: neither the CLI's import path nor the
    engine depends on it."""
    code = f"import sys, {module}; print([m for m in sys.modules if m.startswith('repro.tune')])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[2] / "src")},
    ).stdout
    assert out.strip() == "[]"
