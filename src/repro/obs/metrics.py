"""Metrics registry: counters, gauges, and power-of-two histograms.

The registry is deliberately tiny — three instrument kinds —
because its values must stay *deterministic*: every number recorded here
derives from simulated state (byte counts, frontier sizes, buffer
occupancy), never from the wall clock. The one host measurement is the
``process.peak_rss_bytes`` gauge (:func:`peak_rss_bytes`), which traced
engines set at the end of every iteration so the resident-memory
high-water mark is visible per iteration; like the trace's wall times it
varies run to run.

Histograms use sparse base-2 exponential buckets: an observation ``v``
lands in the bucket whose upper bound is the smallest power of two
``>= v`` (non-positive values land in the ``"0"`` bucket). That covers
byte sizes (KiB..GiB) and densities (fractions of 1) with one scheme and
no per-histogram configuration, and serializes compactly.

Disabled engines hold :data:`NULL_METRICS`, whose methods are no-ops.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Optional, Union

try:
    import resource
except ImportError:  # Windows
    resource = None  # type: ignore[assignment]

Number = Union[int, float]

#: Gauge name of :func:`peak_rss_bytes`, set per iteration when tracing.
PEAK_RSS_GAUGE = "process.peak_rss_bytes"


def peak_rss_bytes() -> Optional[int]:
    """This process's peak resident set size in bytes (``ru_maxrss``,
    which Linux reports in KiB and macOS in bytes); ``None`` on platforms
    without the ``resource`` module."""
    if resource is None:
        return None
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak if sys.platform == "darwin" else peak * 1024


class Histogram:
    """Sparse power-of-two histogram with count/sum/min/max."""

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        #: exponent ``e`` -> observations with ``2**(e-1) < v <= 2**e``.
        self.buckets: Dict[str, int] = {}

    @staticmethod
    def bucket_of(value: Number) -> str:
        if value <= 0:
            return "0"
        return str(math.ceil(math.log2(value)))

    def observe(self, value: Number) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        self.min = min(self.min, v)
        self.max = max(self.max, v)
        key = self.bucket_of(v)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": dict(sorted(self.buckets.items(), key=lambda kv: _bucket_sort(kv[0]))),
        }


def _bucket_sort(key: str) -> float:
    return -math.inf if key == "0" else float(key)


class MetricsRegistry:
    """Named counters, gauges and histograms."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, Histogram] = {}

    def inc(self, name: str, by: Number = 1) -> None:
        """Add ``by`` to the counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + by

    def set_gauge(self, name: str, value: Number) -> None:
        """Set the gauge ``name`` to its latest value."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: Number) -> None:
        """Record one observation into the histogram ``name``."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram()
        hist.observe(value)

    def snapshot(self) -> Dict[str, object]:
        """Cumulative state of every instrument (JSON-serializable)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {k: h.to_dict() for k, h in self._hists.items()},
        }

    def iteration_snapshot(self) -> Dict[str, object]:
        """:meth:`snapshot` for an iteration record: the process's
        peak-RSS gauge is set first, where the platform reports one."""
        peak = peak_rss_bytes()
        if peak is not None:
            self.set_gauge(PEAK_RSS_GAUGE, peak)
        return self.snapshot()


class NullMetrics:
    """No-op registry held by engines when tracing is disabled."""

    enabled = False

    def inc(self, name: str, by: Number = 1) -> None:
        pass

    def set_gauge(self, name: str, value: Number) -> None:
        pass

    def observe(self, name: str, value: Number) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def iteration_snapshot(self) -> Dict[str, object]:
        return self.snapshot()


NULL_METRICS = NullMetrics()
