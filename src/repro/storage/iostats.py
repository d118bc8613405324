"""Raw I/O traffic counters.

These counters are the ground truth behind the paper's Fig. 7 / Fig. 9(b)
"I/O traffic" comparisons: total bytes read and written, split by access
class, plus request counts and buffer-cache hit accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class IOStats:
    """Cumulative I/O counters for one simulated disk.

    All byte counts are monotonically non-decreasing; snapshots can be
    subtracted to get per-phase traffic. ``gather_queue_peak`` is a
    max-gauge instead: subtracting snapshots cannot recover a window's
    peak, so a window reads its own only through
    :meth:`open_window`/:meth:`close_window`.
    """

    bytes_read_seq: int = 0
    bytes_read_ran: int = 0
    bytes_written_seq: int = 0
    bytes_written_ran: int = 0
    read_requests_seq: int = 0
    read_requests_ran: int = 0
    write_requests_seq: int = 0
    write_requests_ran: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    bytes_served_from_cache: int = 0
    # Fault/recovery accounting (see repro.storage.faults): requests
    # re-issued after a transient fault, and faults actually injected.
    read_retries: int = 0
    write_retries: int = 0
    faults_injected: int = 0
    # Bytes the block plan served from the §4.3 sub-block buffer
    # instead of disk.
    buffer_hit_bytes: int = 0
    # Selective-gather pool observability (see repro.storage.gatherpool):
    # merged runs routed through the lane model, cumulative modeled busy
    # time across lanes, and the deepest any lane queue got (a gauge).
    gather_runs_issued: int = 0
    gather_lane_busy_seconds: float = 0.0
    gather_queue_peak: int = 0

    # -- derived -----------------------------------------------------------

    @property
    def bytes_read(self) -> int:
        return self.bytes_read_seq + self.bytes_read_ran

    @property
    def bytes_written(self) -> int:
        return self.bytes_written_seq + self.bytes_written_ran

    @property
    def total_traffic(self) -> int:
        """Total bytes moved to/from disk (the Fig. 7 metric)."""
        return self.bytes_read + self.bytes_written

    @property
    def read_requests(self) -> int:
        return self.read_requests_seq + self.read_requests_ran

    @property
    def write_requests(self) -> int:
        return self.write_requests_seq + self.write_requests_ran

    @property
    def retries(self) -> int:
        """Total requests re-issued after an absorbed transient fault."""
        return self.read_retries + self.write_retries

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    # -- algebra -----------------------------------------------------------

    def snapshot(self) -> "IOStats":
        """An independent copy of the current counters."""
        return IOStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def to_dict(self) -> Dict[str, float]:
        """Every raw counter by field name (stable JSON form)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def open_window(self) -> "IOStats":
        """Start a measurement window; returns its :meth:`close_window` token.

        The token is a snapshot of every field. The peak gauge restarts
        at 0, so the window sees only the peak reached inside it.
        """
        before = self.snapshot()
        self.gather_queue_peak = 0
        return before

    def close_window(self, before: "IOStats") -> "IOStats":
        """The counters moved since :meth:`open_window` returned ``before``.

        ``gather_queue_peak`` holds the window's own peak, which then
        folds back into the enclosing window's gauge, so windows nest: a
        run's peak is the maximum over its iterations.
        """
        delta = self - before
        delta.gather_queue_peak = self.gather_queue_peak
        self.gather_queue_peak = max(before.gather_queue_peak, self.gather_queue_peak)
        return delta

    def __sub__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            **{f.name: getattr(self, f.name) - getattr(other, f.name) for f in fields(self)}
        )

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def merge(self, other: "IOStats") -> None:
        """Fold another counter set into this one in place."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)
