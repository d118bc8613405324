"""RunResult / IterationRecord derived metrics."""

import numpy as np

from repro.core.result import IterationRecord, RunResult
from repro.storage.iostats import IOStats
from repro.utils.timers import COMPUTE, IO_READ, IO_WRITE, TimeBreakdown


def make_record(iteration, model, sim=1.0, traffic=100):
    return IterationRecord(
        iteration=iteration,
        model=model,
        frontier_size=10,
        edges_processed=50,
        breakdown=TimeBreakdown({IO_READ: sim}),
        io=IOStats(bytes_read_seq=traffic),
    )


def make_result():
    return RunResult(
        engine="graphsd",
        program="sssp",
        num_vertices=100,
        num_edges=500,
        iterations=2,
        converged=True,
        values=np.zeros(100),
        state={"value": np.zeros(100)},
        breakdown=TimeBreakdown({IO_READ: 2.0, IO_WRITE: 1.0, COMPUTE: 0.5}),
        io=IOStats(bytes_read_seq=1000, bytes_written_seq=200),
        wall_seconds=0.1,
        per_iteration=[make_record(1, "sciu"), make_record(2, "fciu")],
    )


def test_totals_and_derived_metrics():
    r = make_result()
    assert r.sim_seconds == 3.5
    assert r.io_seconds == 3.0
    assert r.compute_seconds == 0.5
    assert r.io_traffic == 1200
    assert r.frontier_history == [10, 10]
    assert r.model_history == ["sciu", "fciu"]


def test_iteration_record_metrics():
    rec = make_record(1, "sciu", sim=0.25, traffic=64)
    assert rec.sim_seconds == 0.25
    assert rec.io_bytes == 64


def test_summary_mentions_key_facts():
    s = make_result().summary()
    assert "graphsd/sssp" in s
    assert "2 iters" in s
    assert "converged" in s


def test_summary_flags_iteration_cap():
    r = make_result()
    r.converged = False
    assert "cap" in r.summary()


# -- observability additions (docs/OBSERVABILITY.md) -------------------------


def make_result_with(**field_overrides):
    r = make_result()
    for name, value in field_overrides.items():
        setattr(r, name, value)
    return r


def test_summary_mentions_overlap_when_pipelined():
    r = make_result()
    r.breakdown.overlap_saved = 0.25
    assert "overlap saved 0.250s" in r.summary()


def test_summary_mentions_absorbed_faults():
    r = make_result_with(fault_events=["read fault on block (0,1)"])
    assert "1 fault(s) absorbed" in r.summary()


def test_summary_quiet_without_prefetch_or_faults():
    s = make_result().summary()
    assert "prefetch" not in s
    assert "overlap" not in s
    assert "fault" not in s


def test_to_dict_is_json_stable():
    import json

    r = make_result()
    d = r.to_dict()
    # Serializable and round-trips bit-identically.
    assert json.loads(json.dumps(d, sort_keys=True)) == json.loads(
        json.dumps(r.to_dict(), sort_keys=True)
    )
    assert d["engine"] == "graphsd"
    assert d["iterations"] == 2
    assert d["breakdown"]["total"] == 3.5
    assert d["io"]["bytes_read_seq"] == 1000
    assert len(d["per_iteration"]) == 2
    assert "values" not in d
    assert d["values_sha256"] == r.values_sha256()


def test_to_dict_can_inline_values():
    d = make_result().to_dict(include_values=True)
    assert d["values"] == [0.0] * 100


def test_values_sha256_tracks_content():
    a = make_result()
    b = make_result()
    assert a.values_sha256() == b.values_sha256()
    b.values = np.ones(100)
    assert a.values_sha256() != b.values_sha256()


def test_equivalence_diff_empty_for_identical_results():
    from repro.core.result import equivalence_diff

    assert equivalence_diff(make_result(), make_result()) == []


def test_equivalence_diff_ignores_wall_clock_counters():
    from repro.core.result import equivalence_diff

    a = make_result()
    b = make_result()
    b.wall_seconds = 99.0
    assert equivalence_diff(a, b) == []


def test_equivalence_diff_reports_real_differences():
    from repro.core.result import equivalence_diff

    a = make_result()
    b = make_result()
    b.io.bytes_read_seq += 1
    diff = equivalence_diff(a, b)
    assert diff and any("bytes_read_seq" in line for line in diff)


def test_equivalence_diff_catches_value_changes():
    from repro.core.result import equivalence_diff

    a = make_result()
    b = make_result()
    b.values = np.ones(100)
    assert any("values" in line for line in equivalence_diff(a, b))
