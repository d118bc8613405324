"""Metrics registry: counters, gauges, power-of-two histograms."""

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.obs.metrics import Histogram


def test_counter_increments():
    m = MetricsRegistry()
    m.inc("reads")
    m.inc("reads", by=4)
    assert m.snapshot()["counters"] == {"reads": 5}


def test_gauge_keeps_last_value():
    m = MetricsRegistry()
    m.set_gauge("occupancy", 10)
    m.set_gauge("occupancy", 3)
    assert m.snapshot()["gauges"] == {"occupancy": 3}


def test_histogram_buckets_are_powers_of_two():
    assert Histogram.bucket_of(0) == "0"
    assert Histogram.bucket_of(1) == "0"
    assert Histogram.bucket_of(2) == "1"
    assert Histogram.bucket_of(3) == "2"
    assert Histogram.bucket_of(4) == "2"
    assert Histogram.bucket_of(1024) == "10"
    assert Histogram.bucket_of(1025) == "11"


def test_histogram_summary_stats():
    m = MetricsRegistry()
    for v in (1, 2, 4, 4, 100):
        m.observe("sizes", v)
    h = m.snapshot()["histograms"]["sizes"]
    assert h["count"] == 5
    assert h["sum"] == 111
    assert h["min"] == 1
    assert h["max"] == 100
    assert sum(h["buckets"].values()) == 5


def test_snapshot_is_detached():
    m = MetricsRegistry()
    m.inc("x")
    snap = m.snapshot()
    m.inc("x")
    assert snap["counters"] == {"x": 1}


def test_null_metrics_is_inert_and_shaped():
    NULL_METRICS.inc("x")
    NULL_METRICS.set_gauge("g", 1)
    NULL_METRICS.observe("h", 2)
    assert NULL_METRICS.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    assert NULL_METRICS.enabled is False
