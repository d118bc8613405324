"""Property tests for the critical-path algebra and the barrier schema.

Hypothesis drives synthetic barrier timelines built from *dyadic
rationals* (multiples of 1/1024 — exactly representable in binary
floating point), constructed with the very folds the coordinator uses
(`sum(sorted components) − saved`, component-wise `_add`). With exact
arithmetic every algebraic identity the analyzer checks bitwise must
hold, and the attribution laws become exact equalities:

* per-superstep attribution rows sum to the makespan;
* critical-path work ≤ makespan, with equality when every barrier's
  window equals its max delta (full-participation folds);
* a single-worker timeline is its own critical path (zero wait).

The doctored cases prove the float-exact checks actually bite, and the
schema test pins the round-trip of barrier timelines through the one
trace schema.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import CriticalPathError, analyze_events
from repro.obs.schema import TRACE_SCHEMA, TRACE_VERSION, validate_trace_lines
import pytest

#: Dyadic rationals: k/1024 with k bounded — float-exact sums.
_DYADIC = st.integers(min_value=0, max_value=4096).map(lambda k: k / 1024.0)

#: Worker component charges over the real component vocabulary.
_COMPONENTS = st.dictionaries(
    st.sampled_from(["io_read", "io_write", "compute", "network", "scheduling"]),
    _DYADIC,
    min_size=1,
    max_size=4,
)


def _total(components, saved):
    return float(sum(components[k] for k in sorted(components))) - saved


def _fold_barriers(per_barrier):
    """Replay the coordinator's fold over synthetic worker charges.

    ``per_barrier`` is a list of ``{wid: components}`` maps; returns the
    (barrier events, run event) a traced cluster run would publish.
    """
    events = []
    elapsed = 0.0
    local = {}
    run_sim = {}
    run_saved = 0.0
    for superstep, charges in enumerate(per_barrier):
        deltas = {wid: _total(comps, 0.0) for wid, comps in charges.items()}
        saved = float(sum(deltas[w] for w in sorted(deltas))) - max(deltas.values())
        summed = {}
        for wid in sorted(charges):
            for k, v in charges[wid].items():
                summed[k] = summed.get(k, 0.0) + v
        sim_seconds = _total(summed, saved)
        events.append(
            {
                "type": "barrier",
                "superstep": superstep,
                "kind": "init" if superstep == 0 else "superstep",
                "sim_start": elapsed,
                "workers": {
                    str(wid): {
                        "delta": deltas[wid],
                        "components": dict(charges[wid]),
                        "saved": 0.0,
                        "local_start": local.get(wid, 0.0),
                    }
                    for wid in sorted(charges)
                },
                "sim_seconds": sim_seconds,
                "sim": summed,
                "overlap_saved": saved,
            }
        )
        for wid in charges:
            local[wid] = local.get(wid, 0.0) + deltas[wid]
        for k in sorted(summed):
            run_sim[k] = run_sim.get(k, 0.0) + summed[k]
        run_saved += saved
        elapsed += sim_seconds
    run = {
        "type": "run",
        "engine": "cluster",
        "iterations": len(per_barrier),
        "converged": True,
        "sim_seconds": _total(run_sim, run_saved),
        "sim": run_sim,
        "io": {},
        "overlap_saved": run_saved,
    }
    return events, run


def _meta():
    return {"type": "meta", "schema": TRACE_SCHEMA, "version": TRACE_VERSION}


#: A timeline: 1–6 barriers over the same 1–5 workers.
_TIMELINES = st.integers(min_value=1, max_value=5).flatmap(
    lambda n_workers: st.lists(
        st.fixed_dictionaries({w: _COMPONENTS for w in range(n_workers)}),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=60, deadline=None)
@given(_TIMELINES)
def test_attribution_sums_to_makespan_exactly(per_barrier):
    barriers, run = _fold_barriers(per_barrier)
    report = analyze_events([_meta(), *barriers, run])
    acc = 0.0
    for row in report.rows:
        acc += row.sim_seconds
    assert acc == report.makespan
    # Dyadic arithmetic is exact, so each window equals its max delta
    # and the critical-path work *is* the makespan.
    assert report.path_seconds == report.makespan
    assert all(w >= 0.0 for row in report.rows for w in row.waits.values())
    # Every attributed resource second is accounted against a window.
    assert len(report.rows) == len(barriers)


@settings(max_examples=40, deadline=None)
@given(st.lists(_COMPONENTS, min_size=1, max_size=6))
def test_single_worker_timeline_is_its_own_critical_path(charges):
    barriers, run = _fold_barriers([{0: c} for c in charges])
    report = analyze_events([_meta(), *barriers, run])
    assert report.workers == [0]
    assert report.path_seconds == report.makespan
    assert report.straggler_counts == {0: len(charges)}
    assert all(row.wait == 0.0 for row in report.rows)
    assert report.resource_totals["wait"] == 0.0


@settings(max_examples=40, deadline=None)
@given(_TIMELINES, st.sampled_from(["delta", "sim_start", "run"]))
def test_doctored_timelines_are_rejected(per_barrier, field):
    barriers, run = _fold_barriers(per_barrier)
    if field == "delta":
        barriers[0]["workers"]["0"]["delta"] += 0.5
        match = "component fold"
    elif field == "sim_start":
        barriers[-1]["sim_start"] += 0.5
        match = "folded elapsed"
    else:
        run["sim_seconds"] += 0.5
        match = "run record"
    with pytest.raises(CriticalPathError, match=match):
        analyze_events([_meta(), *barriers, run])


def test_empty_trace_has_no_critical_path():
    with pytest.raises(CriticalPathError, match="no barrier events"):
        analyze_events([_meta()])


@settings(max_examples=25, deadline=None)
@given(_TIMELINES)
def test_barrier_events_round_trip_through_the_validator(per_barrier):
    barriers, run = _fold_barriers(per_barrier)
    events = [_meta(), *barriers, run]
    lines = [json.dumps(e) for e in events]
    assert validate_trace_lines(lines) == events

