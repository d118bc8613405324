"""Closing the loop: trace -> fit -> feed the profile back to the engine.

Two guarantees (docs/TUNING.md): a *neutral* profile (scales 1.0, no
recommendations) is float-exactly invisible — ``x * 1.0 == x`` — and a
*fitted* profile may move the §4.1 crossover but never the answers.
"""

import numpy as np
import pytest

from repro.core import GraphSDConfig, GraphSDEngine
from repro.core.result import equivalence_diff
from repro.obs import Tracer
from repro.tune import TunedProfile, fit_profile
from tests.conftest import build_store, random_edgelist
from tests.core.test_engine_equivalence import PROGRAMS


def _run(edges, tmp_path, name, trace=None, **config_kwargs):
    store = build_store(edges, tmp_path, P=4, name=name)
    engine = GraphSDEngine(store, config=GraphSDConfig(**config_kwargs))
    if trace is not None:
        engine.attach_tracer(Tracer(), path=trace)
    return engine.run(PROGRAMS["sssp"]())


def test_neutral_profile_is_bit_invisible(rng, tmp_path):
    edges = random_edgelist(rng, 400, 4000)
    plain = _run(edges, tmp_path, "plain")
    neutral = _run(edges, tmp_path, "neutral", tuned_profile=TunedProfile())
    assert equivalence_diff(plain, neutral) == []
    assert plain.model_history == neutral.model_history


def test_fitted_profile_preserves_answers(rng, tmp_path):
    """Trace an untuned adaptive run, fit on its audits, rerun tuned."""
    edges = random_edgelist(rng, 400, 4000)
    trace_path = tmp_path / "run.jsonl"
    untuned = _run(edges, tmp_path, "traced", trace=str(trace_path))

    report = fit_profile([str(trace_path)])
    assert report.samples, "adaptive SSSP must produce closed audits"
    assert report.profile.full_cost_scale > 0.0
    assert report.profile.on_demand_cost_scale > 0.0

    tuned = _run(edges, tmp_path, "tuned", tuned_profile=report.profile)
    assert np.allclose(untuned.values, tuned.values, equal_nan=True)
    assert untuned.converged == tuned.converged


def test_fit_twice_from_same_trace_is_identical(rng, tmp_path):
    edges = random_edgelist(rng, 300, 2500)
    trace_path = tmp_path / "run.jsonl"
    _run(edges, tmp_path, "t", trace=str(trace_path))
    assert (
        fit_profile([str(trace_path)]).profile.to_dict()
        == fit_profile([str(trace_path)]).profile.to_dict()
    )


def test_pinned_configs_ignore_scales(rng, tmp_path):
    """b3/b4 make no adaptive decisions: wild scales change nothing."""
    from dataclasses import replace

    edges = random_edgelist(rng, 300, 2500)
    wild = TunedProfile(full_cost_scale=100.0, on_demand_cost_scale=0.001)
    for make in (GraphSDConfig.baseline_b3, GraphSDConfig.baseline_b4):
        store_a = build_store(edges, tmp_path, P=4, name=f"{make.__name__}a")
        store_b = build_store(edges, tmp_path, P=4, name=f"{make.__name__}b")
        plain = GraphSDEngine(store_a, config=make()).run(PROGRAMS["sssp"]())
        scaled = GraphSDEngine(
            store_b, config=replace(make(), tuned_profile=wild)
        ).run(PROGRAMS["sssp"]())
        assert equivalence_diff(plain, scaled) == []
        assert plain.model_history == scaled.model_history


def test_recommendation_knobs_apply_without_changing_values(rng, tmp_path):
    """A profile's recommended lanes ride the pinned-schedule guarantee:
    the harness/CLI resolve them into ``gather_lanes``, which for b4 is
    result-invariant (tests/core/test_gather_lanes.py); here we check the
    adaptive engine stays *correct* under a recommended lane count too."""
    from repro.baselines import BSPReference

    edges = random_edgelist(rng, 400, 4000)
    ref = BSPReference(edges).run(PROGRAMS["sssp"]())
    laned = _run(edges, tmp_path, "rec", gather_lanes=4)
    assert np.allclose(ref.values, laned.values, equal_nan=True)


def test_cli_autotune_smoke(tmp_path, capsys):
    """End-to-end through the CLI: trace a run, tune, rerun --autotune."""
    from repro.cli import main

    trace = tmp_path / "t.jsonl"
    profile = tmp_path / "p.json"
    base = ["run", "--dataset", "twitter2010", "--algorithm", "sssp"]
    assert main(base + ["--trace", str(trace)]) == 0
    assert main(["tune", str(trace), "--out", str(profile)]) == 0
    capsys.readouterr()
    assert main(base + ["--autotune", str(profile), "--stats", "json"]) == 0
    out = capsys.readouterr().out
    assert '"values_sha256"' in out
