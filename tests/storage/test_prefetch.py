"""Plan loads: each thunk runs inline, traced as one ``prefetch.load``.

Every block-plan consumer (``sweep_columns``, FCIU phase 1 and
``consume_plan``) runs a load thunk through
:func:`~repro.storage.gatherpool.run_load` at the point where it uses
the result, so an error surfaces exactly there and no later load runs.
"""

import numpy as np
import pytest

from repro.core import GraphSDConfig, GraphSDEngine
from repro.obs import Tracer
from repro.storage.gatherpool import run_load
from repro.utils.timers import SimClock
from tests.conftest import build_store, random_edgelist


def _loads(tracer):
    return [e for e in tracer.events if e["type"] == "span" and e["name"] == "prefetch.load"]


def test_error_raised_at_consumption_point_in_order():
    tracer = Tracer(SimClock())
    calls = []

    def good():
        calls.append("good")
        return 1

    def bad():
        calls.append("bad")
        raise OSError("disk died")

    def never():
        calls.append("never")  # pragma: no cover

    results = []
    with pytest.raises(OSError, match="disk died"):
        for index, task in enumerate([good, bad, never]):
            results.append(run_load(tracer, index, task))
    # No read past a failed op; both loads that ran closed their spans,
    # and only the one that returned is counted.
    assert results == [1]
    assert calls == ["good", "bad"]
    assert [e["attrs"]["index"] for e in _loads(tracer)] == [0, 1]
    assert tracer.metrics.snapshot()["counters"]["prefetch.loads"] == 1


def test_base_exception_is_delivered_not_swallowed():
    class Crash(BaseException):
        pass

    def task():
        raise Crash()

    tracer = Tracer(SimClock())
    with pytest.raises(Crash):
        run_load(tracer, 0, task)
    assert len(_loads(tracer)) == 1


def test_empty_plan(tmp_path):
    """A pipelined engine consuming an empty plan loads nothing and
    charges nothing."""
    store = build_store(random_edgelist(np.random.default_rng(0), 50, 200), tmp_path)
    engine = GraphSDEngine(store, config=GraphSDConfig(pipelined=True))
    tracer = Tracer()
    engine.attach_tracer(tracer)
    acc = np.zeros(store.num_vertices)
    before = engine.clock.elapsed()
    assert engine.consume_plan([], {}, acc) == []
    assert engine.clock.elapsed() == before
    assert _loads(tracer) == []
