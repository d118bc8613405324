"""`graphsd tune` determinism against a committed audit fixture.

The fixture files under ``fixtures/`` are hand-written trace excerpts
with exactly representable numbers, so the least-squares-through-origin
scales have closed-form golden values (docs/TUNING.md documents the
math; the comments below show the arithmetic).
"""

from pathlib import Path

import pytest

from repro.tune import TunedProfile, fit_profile
from repro.tune.fit import load_audit_samples
from repro.tune.profile import PROFILE_VERSION, Recommendation

FIXTURES = Path(__file__).parent / "fixtures"
MIXED = str(FIXTURES / "audit_mixed.jsonl")
FULL_ONLY = str(FIXTURES / "audit_full_only.jsonl")


def test_golden_scales_from_committed_fixture():
    report = fit_profile([MIXED])
    p = report.profile
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
    report = fit_profile([MIXED])
    assert report.skipped_open == 1
    assert report.skipped_degraded == 1


def test_recommendation_thresholds():
    p = fit_profile([MIXED]).profile
    rec = p.recommend("sssp", 1000, 8000)
    assert rec is not None
    # ran_share = 6000/8000 = 0.75 -> 8 lanes;
    # io_share = 8.55/9.0 = 0.95 -> depth 4.
    assert rec.gather_lanes == 8
    assert rec.prefetch_depth == 4
    assert rec.decisions == 4
    assert p.recommend("sssp", 1000, 8001) is None  # exact-match only
    assert p.recommend("bfs", 1000, 8000) is None


def test_full_only_trace_leaves_on_demand_neutral():
    p = fit_profile([FULL_ONLY]).profile
    assert p.full_cost_scale == 1.5  # (1*1.5) / (1*1)
    assert p.on_demand_cost_scale == 1.0  # underdetermined -> neutral
    assert p.recommendations == ()  # no on-demand evidence, no knob advice


def test_fit_is_deterministic():
    first = fit_profile([MIXED, FULL_ONLY], machine="m")
    second = fit_profile([MIXED, FULL_ONLY], machine="m")
    assert first.profile == second.profile
    assert first.profile.to_dict() == second.profile.to_dict()
    # Only the workload with on-demand decisions gets a recommendation.
    assert [r.program for r in first.profile.recommendations] == ["sssp"]


def test_render_mentions_everything():
    text = fit_profile([MIXED], machine="lab").render()
    assert "machine=lab" in text
    assert "0.500000" in text and "2.000000" in text
    assert "open skipped: 1" in text and "fault-degraded skipped: 1" in text
    assert "gather_lanes=8" in text and "prefetch_depth=4" in text


def test_profile_save_load_roundtrip(tmp_path):
    profile = fit_profile([MIXED], machine="lab").profile
    out = tmp_path / "profile.json"
    profile.save(str(out))
    assert TunedProfile.load(str(out)) == profile


def test_profile_version_gating():
    with pytest.raises(ValueError, match="unsupported tuned-profile version 99"):
        TunedProfile.from_dict({"profile_version": 99})


def test_profile_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        TunedProfile(full_cost_scale=0.0)
    with pytest.raises(ValueError):
        Recommendation("p", 1, 1, gather_lanes=0, prefetch_depth=1)


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


def test_to_dict_carries_version():
    d = TunedProfile().to_dict()
    assert d["profile_version"] == PROFILE_VERSION
    assert TunedProfile.from_dict(d) == TunedProfile()


def test_cli_tune_writes_profile(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "p.json"
    assert main(["tune", MIXED, "--machine", "lab", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "tuned profile (machine=lab)" in printed
    assert f"wrote {out}" in printed
    assert TunedProfile.load(str(out)).on_demand_cost_scale == 2.0


def test_cli_tune_missing_file_exits_2(tmp_path, capsys):
    from repro.cli import main

    assert main(["tune", str(tmp_path / "nope.jsonl")]) == 2
