"""IOStats counters and algebra."""

import pytest

from repro.storage.iostats import IOStats


def test_derived_totals():
    s = IOStats(
        bytes_read_seq=100,
        bytes_read_ran=50,
        bytes_written_seq=30,
        bytes_written_ran=20,
    )
    assert s.bytes_read == 150
    assert s.bytes_written == 50
    assert s.total_traffic == 200


def test_request_totals():
    s = IOStats(read_requests_seq=2, read_requests_ran=3, write_requests_seq=1)
    assert s.read_requests == 5
    assert s.write_requests == 1


def test_cache_hit_rate():
    assert IOStats().cache_hit_rate == 0.0
    s = IOStats(cache_hits=3, cache_misses=1)
    assert s.cache_hit_rate == pytest.approx(0.75)


def test_snapshot_subtraction_isolates_phase():
    s = IOStats(bytes_read_seq=100)
    snap = s.snapshot()
    s.bytes_read_seq += 40
    s.cache_hits += 2
    diff = s - snap
    assert diff.bytes_read_seq == 40
    assert diff.cache_hits == 2
    assert snap.bytes_read_seq == 100  # snapshot unaffected


def test_add_and_merge():
    a = IOStats(bytes_read_seq=1, cache_hits=1)
    b = IOStats(bytes_read_seq=2, bytes_written_ran=5)
    c = a + b
    assert c.bytes_read_seq == 3
    assert c.bytes_written_ran == 5
    assert c.cache_hits == 1
    a.merge(b)
    assert a.bytes_read_seq == 3


def test_reset():
    s = IOStats(bytes_read_seq=10, write_requests_ran=2)
    s.reset()
    assert s.total_traffic == 0
    assert s.write_requests == 0



def test_windows_read_their_own_queue_peak():
    """A max-gauge window reports its own peak, whatever came before it."""
    s = IOStats(bytes_read_seq=10)
    s.gather_queue_peak = 56  # an earlier window's peak
    run = s.open_window()
    assert s.gather_queue_peak == 0
    for peak in (8, 3):
        iteration = s.open_window()
        s.gather_queue_peak = peak
        s.bytes_read_seq += 1
        delta = s.close_window(iteration)
        assert delta.gather_queue_peak == peak
        assert delta.bytes_read_seq == 1
    delta = s.close_window(run)
    assert delta.gather_queue_peak == 8  # the max over its iterations
    assert delta.bytes_read_seq == 2
    assert s.gather_queue_peak == 56  # folded back into the enclosing gauge
