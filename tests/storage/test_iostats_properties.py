"""Property tests for the IOStats counter algebra.

The observability layer leans on this algebra everywhere: per-iteration
records are ``after - before`` deltas, equivalence checks compare field
dicts, and run totals are sums of deltas. These properties pin the
algebra across *every* field — including ones added later, since the
strategies enumerate ``dataclasses.fields`` rather than a hand-kept
list.
"""

from dataclasses import fields

from hypothesis import given, strategies as st

from repro.storage.iostats import IOStats

_FIELD_NAMES = [f.name for f in fields(IOStats)]

#: Counters are byte/request counts: non-negative, can be large.
_counters = st.integers(min_value=0, max_value=2**48)

stats = st.builds(
    IOStats, **{name: _counters for name in _FIELD_NAMES}
)


def _as_dict(s: IOStats) -> dict:
    return {name: getattr(s, name) for name in _FIELD_NAMES}


@given(a=stats, b=stats)
def test_sub_then_add_round_trips(a: IOStats, b: IOStats) -> None:
    """``a + (b - a) == b`` — deltas recompose into the later snapshot."""
    assert _as_dict(a + (b - a)) == _as_dict(b)


@given(a=stats, b=stats)
def test_merge_is_add(a: IOStats, b: IOStats) -> None:
    merged = a.snapshot()
    merged.merge(b)
    assert _as_dict(merged) == _as_dict(a + b)


@given(a=stats, b=stats)
def test_add_is_commutative(a: IOStats, b: IOStats) -> None:
    assert _as_dict(a + b) == _as_dict(b + a)


@given(a=stats)
def test_snapshot_is_independent(a: IOStats) -> None:
    snap = a.snapshot()
    before = _as_dict(snap)
    a.merge(a)  # mutate the original arbitrarily
    assert _as_dict(snap) == before
    assert snap is not a


@given(a=stats)
def test_zero_is_identity(a: IOStats) -> None:
    zero = IOStats()
    assert _as_dict(a + zero) == _as_dict(a)
    assert _as_dict(a - zero) == _as_dict(a)
    assert _as_dict(a - a) == _as_dict(zero)


@given(a=stats)
def test_to_dict_covers_every_field_once(a: IOStats) -> None:
    d = a.to_dict()
    assert sorted(d) == sorted(_FIELD_NAMES)
    assert d == _as_dict(a)


@given(a=stats)
def test_reset_zeroes_every_field(a: IOStats) -> None:
    a.reset()
    assert _as_dict(a) == _as_dict(IOStats())


@given(a=stats, b=stats)
def test_derived_totals_are_consistent(a: IOStats, b: IOStats) -> None:
    total = a + b
    assert total.bytes_read == a.bytes_read + b.bytes_read
    assert total.bytes_written == a.bytes_written + b.bytes_written
    assert total.total_traffic == total.bytes_read + total.bytes_written
