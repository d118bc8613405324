"""The §4.1 claim: the benefit evaluation is an *accurate* predictor.

The scheduler's cost formulas and the simulated disk share one
DiskProfile, so predicted per-iteration I/O cost should track the
actually-charged I/O time closely — this is what lets the adaptive
engine pick the per-iteration winner in Fig. 10. These tests pin the
prediction/actual agreement band.
"""

import pytest

from repro.algorithms import ConnectedComponents, SSSP
from repro.core import GraphSDConfig, GraphSDEngine, IOModel
from tests.conftest import build_store, random_edgelist


#: Both on-disk encodings: the Fig. 10 agreement must hold under the
#: compact byte model too (predictions and charges both derive from the
#: store's encoded per-block byte figures).
@pytest.fixture(params=["raw", "compact"])
def encoding(request):
    return request.param


@pytest.fixture
def store(rng, tmp_path, encoding):
    return build_store(
        random_edgelist(rng, 600, 7000), tmp_path, P=4, name="pred",
        encoding=encoding,
    )


def test_full_model_prediction_matches_charged_io(store):
    """Plain full iterations cost exactly what C_s predicts (±10%)."""
    engine = GraphSDEngine(
        store,
        config=GraphSDConfig(
            enable_cross_iteration=False,
            buffer_bytes=0,
            force_model=IOModel.FULL,
        ),
    )
    result = engine.run(SSSP(source=0))
    predicted = engine.scheduler.full_cost()
    for rec in result.per_iteration:
        actual = rec.breakdown.io + rec.breakdown.compute
        assert actual == pytest.approx(predicted, rel=0.10)


def test_adaptive_predictions_track_charged_io(rng, tmp_path, encoding):
    """Each round's chosen-model prediction lands within a factor band
    of the actually-charged I/O for the iteration it scheduled."""
    store = build_store(
        random_edgelist(rng, 600, 7000), tmp_path, P=4, name="ad",
        encoding=encoding,
    )
    engine = GraphSDEngine(store)
    result = engine.run(SSSP(source=0))

    records = result.per_iteration
    idx = 0
    checked = 0
    for est in engine.cost_estimates:
        rec = records[idx]
        predicted = (
            est.c_on_demand if est.chosen is IOModel.ON_DEMAND else est.c_full
        )
        actual = rec.breakdown.io + rec.breakdown.compute
        assert 0.3 * predicted <= actual <= 1.6 * predicted, (
            rec.model,
            rec.frontier_size,
            predicted,
            actual,
        )
        checked += 1
        idx += 2 if rec.model == "fciu" else 1
    assert checked >= 3  # the run exercised several decisions


def test_decisions_are_never_badly_wrong(rng, tmp_path, encoding):
    """Whenever the scheduler picked a model, executing that iteration
    must not have been more than modestly costlier than the losing
    model's *prediction* — i.e. no confidently-wrong decisions."""
    store = build_store(
        random_edgelist(rng, 500, 6000), tmp_path, P=4, name="nw",
        encoding=encoding,
    )
    engine = GraphSDEngine(store)
    result = engine.run(ConnectedComponents())
    records = result.per_iteration
    idx = 0
    for est in engine.cost_estimates:
        rec = records[idx]
        losing_prediction = (
            est.c_full if est.chosen is IOModel.ON_DEMAND else est.c_on_demand
        )
        assert rec.breakdown.io + rec.breakdown.compute <= 1.6 * losing_prediction
        idx += 2 if rec.model == "fciu" else 1


# -- overlapped predictions (the Fig. 10 property under --pipeline) ------


@pytest.mark.parametrize("pipeline", [False, True])
def test_full_model_prediction_matches_charged_time_both_modes(
    rng, tmp_path, pipeline, encoding
):
    """C_s predicts the *overlapped* per-iteration time when pipelining.

    Graph sized so the pipeline genuinely saves time (compute per column
    exceeds the fill), making the pipelined branch of the formula live.
    """
    from repro.algorithms import PageRank

    store = build_store(
        random_edgelist(rng, 2000, 60000), tmp_path, P=8, name="ov",
        encoding=encoding,
    )
    engine = GraphSDEngine(
        store,
        config=GraphSDConfig(
            enable_cross_iteration=False,
            buffer_bytes=0,
            force_model=IOModel.FULL,
            pipelined=pipeline,
        ),
    )
    result = engine.run(PageRank(iterations=4))
    predicted = engine.scheduler.full_cost()
    saw_overlap = False
    for rec in result.per_iteration:
        actual = (
            rec.breakdown.io + rec.breakdown.compute - rec.breakdown.overlap_saved
        )
        assert actual == pytest.approx(predicted, rel=0.10)
        saw_overlap |= rec.breakdown.overlap_saved > 0
    assert saw_overlap == pipeline  # serial saves nothing; pipelined must


@pytest.mark.parametrize("pipeline", [False, True])
def test_on_demand_prediction_tracks_charged_time_both_modes(
    rng, tmp_path, pipeline, encoding
):
    store = build_store(
        random_edgelist(rng, 600, 7000), tmp_path, P=4, name="ovd",
        encoding=encoding,
    )
    engine = GraphSDEngine(
        store,
        config=GraphSDConfig(pipelined=pipeline),
    )
    result = engine.run(SSSP(source=0))
    records = result.per_iteration
    idx = 0
    checked = 0
    for est in engine.cost_estimates:
        rec = records[idx]
        predicted = (
            est.c_on_demand if est.chosen is IOModel.ON_DEMAND else est.c_full
        )
        actual = (
            rec.breakdown.io + rec.breakdown.compute - rec.breakdown.overlap_saved
        )
        assert 0.3 * predicted <= actual <= 1.6 * predicted, (
            rec.model,
            predicted,
            actual,
        )
        checked += 1
        idx += 2 if rec.model == "fciu" else 1
    assert checked >= 3


def test_overlapped_formula_matches_clock_model():
    """The scheduler's static helper mirrors the OverlapRegion arithmetic."""
    from repro.core.scheduler import StateAwareScheduler
    from repro.utils.timers import COMPUTE, IO_READ, SimClock

    cases = [(2.0, 3.0, 0.5), (3.0, 2.0, 0.25), (1.0, 0.1, 10.0), (0.0, 1.0, 0.0)]
    for io, compute, fill in cases:
        clock = SimClock()
        with clock.overlap_region() as region:
            if io:
                clock.charge(IO_READ, io)
            if compute:
                clock.charge(COMPUTE, compute)
            region.add_fill(fill)
        assert StateAwareScheduler.overlapped(io, compute, fill) == pytest.approx(
            clock.elapsed()
        )
