"""Simulated and wall-clock timing.

The paper reports *execution time on an HDD testbed*; pure-Python compute
is orders of magnitude slower than the authors' C++ kernels, so wall time
alone would invert the paper's I/O-dominated breakdowns (Fig. 6). We
therefore keep two clocks side by side:

* :class:`SimClock` — a deterministic, component-labelled simulated clock.
  The storage layer charges modeled disk time to it, the engines charge
  modeled compute time. All reported "execution time" numbers in the
  benchmark tables come from this clock.
* :class:`WallTimer` — real elapsed time, recorded alongside for sanity.

Dual timelines and overlap regions
----------------------------------
Every component label maps to one of two *resources* — :data:`DISK`
(``io_read``/``io_write``) or :data:`CPU` (everything else). In the
default serial mode the clock simply sums all charges, exactly as
before. Inside an :class:`OverlapRegion` (opened by an engine running
its prefetch pipeline) the two resources are modeled as running
concurrently: the region's contribution to total elapsed time is::

    min(disk + cpu,  max(disk, cpu) + fill)

where ``fill`` is the pipeline-fill latency (the I/O the consumer must
wait for before the first block is available). The difference between
the serial sum and the overlapped elapsed time accumulates in
``overlap_saved`` — per-component charges are *never* rescaled, so
breakdowns remain exact and ``total == sum(components) - overlap_saved``
always holds. Charging is thread-safe: the prefetch worker charges DISK
while the consuming engine thread charges CPU.

A *measurement window* (:meth:`SimClock.open_window`) sums every later
charge onto a given base as well, so differences of its readings carry
the base's rounding, not that of whatever the clock summed before.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.utils.validation import check_nonneg

#: Canonical component labels used across the engines.
IO_READ = "io_read"
IO_WRITE = "io_write"
COMPUTE = "compute"
SCHEDULING = "scheduling"
PREPROCESS = "preprocess"

#: The two modeled resources of the dual-timeline clock.
DISK = "disk"
CPU = "cpu"

#: Which resource each component's charges occupy. Unknown (free-form)
#: components default to CPU — only genuine disk transfers overlap with
#: computation.
RESOURCE_OF: Dict[str, str] = {
    IO_READ: DISK,
    IO_WRITE: DISK,
    COMPUTE: CPU,
    SCHEDULING: CPU,
    PREPROCESS: CPU,
}

_T = TypeVar("_T")


@dataclass
class TimeBreakdown:
    """A :class:`SimClock`'s per-component times: a snapshot, or what a
    measurement window summed (see :meth:`SimClock.open_window`).

    ``overlap_saved`` is the simulated time hidden by I/O–compute
    overlap up to the snapshot; components themselves are the full
    (serial-equivalent) charges, so ``total`` already nets the saving
    out while ``serial_total`` reports the un-overlapped sum.
    """

    components: Dict[str, float] = field(default_factory=dict)
    overlap_saved: float = 0.0

    # Sums run in sorted-key order throughout: component dicts are
    # filled concurrently (prefetch worker vs. consumer), so insertion
    # order — and with it an unordered float sum — can differ between
    # otherwise identical runs by a last-ulp rounding difference.

    @property
    def total(self) -> float:
        return (
            float(sum(self.components[k] for k in sorted(self.components)))
            - self.overlap_saved
        )

    @property
    def serial_total(self) -> float:
        """The sum of all charges with no overlap credit (serial time)."""
        return float(sum(self.components[k] for k in sorted(self.components)))

    @property
    def io(self) -> float:
        """Combined read + write disk time."""
        return self.components.get(IO_READ, 0.0) + self.components.get(IO_WRITE, 0.0)

    @property
    def compute(self) -> float:
        return self.components.get(COMPUTE, 0.0)

    @property
    def scheduling(self) -> float:
        return self.components.get(SCHEDULING, 0.0)

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON form: components, overlap saving, and net total."""
        return {
            "components": dict(self.components),
            "overlap_saved": self.overlap_saved,
            "total": self.total,
        }

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        keys = sorted(set(self.components) | set(other.components))
        return TimeBreakdown(
            {k: self.components.get(k, 0.0) + other.components.get(k, 0.0) for k in keys},
            overlap_saved=self.overlap_saved + other.overlap_saved,
        )

    def __sub__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        keys = sorted(set(self.components) | set(other.components))
        return TimeBreakdown(
            {k: self.components.get(k, 0.0) - other.components.get(k, 0.0) for k in keys},
            overlap_saved=self.overlap_saved - other.overlap_saved,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.components.items()))
        saved = f", saved={self.overlap_saved:.4f}s" if self.overlap_saved else ""
        return f"TimeBreakdown(total={self.total:.4f}s, {parts}{saved})"


class OverlapRegion:
    """One pipelined stretch of execution on a :class:`SimClock`.

    While the region is open, charges are additionally bucketed into the
    DISK and CPU timelines. On close, the region's overlap saving —
    ``(disk + cpu) - min(disk + cpu, max(disk, cpu) + fill)`` — is
    folded into the clock. ``fill`` is reported by the engine via
    :meth:`add_fill` (typically through :meth:`measure_fill` wrapping the
    first prefetch task), and is clamped so a region can never appear
    slower than serial execution.
    """

    def __init__(self, clock: "SimClock") -> None:
        self.clock = clock
        self.disk_seconds = 0.0
        self.cpu_seconds = 0.0
        self.fill_seconds = 0.0
        self.disk_credit = 0.0
        self._closed = False

    # Called by SimClock.charge, under the clock lock.
    def _absorb(self, component: str, seconds: float) -> None:
        if RESOURCE_OF.get(component, CPU) == DISK:
            self.disk_seconds += seconds
        else:
            self.cpu_seconds += seconds

    def add_fill(self, seconds: float) -> None:
        """Account pipeline-fill latency (I/O the consumer waits for)."""
        check_nonneg(seconds, "seconds")
        self.fill_seconds += seconds

    def add_disk_credit(self, seconds: float) -> None:
        """Credit DISK time hidden by intra-region lane parallelism.

        The gather pool spreads independent random reads over K modeled
        lanes; the time hidden that way shortens the region's effective
        DISK timeline without rescaling any component charge. Only the
        overlap term sees the credit — ``serial_seconds`` stays the raw
        sum, so the region still can never beat plain serial accounting
        by more than its real concurrency.
        """
        check_nonneg(seconds, "seconds")
        self.disk_credit += seconds

    def measure_fill(self, task: Callable[[], _T]) -> Callable[[], _T]:
        """Wrap a prefetch task so its DISK charge is recorded as fill.

        Valid because all in-region DISK charges come from the single
        prefetch worker executing tasks in order: the DISK-timeline delta
        around the task is exactly the task's own disk time.
        """

        def wrapped() -> _T:
            before = self.clock.resource_elapsed(DISK)
            result = task()
            self.add_fill(self.clock.resource_elapsed(DISK) - before)
            return result

        return wrapped

    @property
    def serial_seconds(self) -> float:
        return self.disk_seconds + self.cpu_seconds

    @property
    def pipelined_seconds(self) -> float:
        disk_eff = max(0.0, self.disk_seconds - self.disk_credit)
        return min(
            self.serial_seconds,
            max(disk_eff, self.cpu_seconds) + self.fill_seconds,
        )

    @property
    def saved_seconds(self) -> float:
        return self.serial_seconds - self.pipelined_seconds

    def __enter__(self) -> "OverlapRegion":
        self.clock._open_region(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.clock._close_region(self)


class SimClock:
    """Deterministic simulated clock with per-component accounting.

    Components are free-form string labels; the canonical ones are
    ``io_read``, ``io_write``, ``compute``, ``scheduling`` and
    ``preprocess``. Charging a negative duration is an error. Charging
    is thread-safe (the prefetch pipeline charges disk time from a
    background worker).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._components: Dict[str, float] = {}  # guarded-by: _lock
        #: Per resource, its components' names in sorted order: the
        #: summation order of :meth:`resource_elapsed`. Emptied when a
        #: new component name appears.
        self._resource_names: Dict[str, Tuple[str, ...]] = {}  # guarded-by: _lock
        self._overlap_saved = 0.0  # guarded-by: _lock
        self._region: Optional[OverlapRegion] = None  # guarded-by: _lock
        self._window: Optional[TimeBreakdown] = None  # guarded-by: _lock

    def _add(self, component: str, seconds: float) -> None:  # lock-held: _lock
        if component not in self._components:
            self._resource_names = {}
        self._components[component] = self._components.get(component, 0.0) + seconds
        if self._window is not None:
            window = self._window.components
            window[component] = window.get(component, 0.0) + seconds

    def _add_saving(self, seconds: float) -> None:  # lock-held: _lock
        self._overlap_saved += seconds
        if self._window is not None:
            self._window.overlap_saved += seconds

    def charge(self, component: str, seconds: float) -> None:
        """Add ``seconds`` of simulated time to ``component``."""
        check_nonneg(seconds, "seconds")
        with self._lock:
            self._add(component, seconds)
            if self._region is not None:
                self._region._absorb(component, seconds)

    def elapsed(self, component: Optional[str] = None) -> float:
        """Total simulated seconds, or the seconds of one ``component``.

        The no-argument total nets out any overlap savings; individual
        components always report their full charged time.
        """
        # Sorted-key sums: _components' insertion order is a race between
        # the prefetch worker (DISK charges) and the consumer (CPU), so
        # an unordered float sum can drift by an ulp across runs.
        with self._lock:
            if component is None:
                return (
                    float(sum(self._components[k] for k in sorted(self._components)))
                    - self._overlap_saved
                )
            return self._components.get(component, 0.0)

    def resource_elapsed(self, resource: str) -> float:
        """Charged seconds on one timeline (:data:`DISK` or :data:`CPU`),
        summed in component-name order."""
        with self._lock:
            names = self._resource_names.get(resource)
            if names is None:
                found: List[str] = []
                for component in sorted(self._components):
                    if RESOURCE_OF.get(component, CPU) == resource:
                        found.append(component)
                names = self._resource_names[resource] = tuple(found)
            total = 0.0
            for component in names:
                total += self._components[component]
            return total

    @property
    def overlap_saved(self) -> float:
        """Cumulative simulated time hidden by I/O–compute overlap."""
        with self._lock:
            return self._overlap_saved

    def add_overlap_saving(self, seconds: float) -> None:
        """Fold an externally computed overlap saving into the clock.

        Used by the gather pool outside any :class:`OverlapRegion`
        (pipeline disabled): lane-parallel disk time is hidden against
        the same ``overlap_saved`` bucket the regions use, keeping
        ``total == serial_total - overlap_saved`` exact.
        """
        check_nonneg(seconds, "seconds")
        with self._lock:
            self._add_saving(seconds)

    def resource_snapshot(self) -> "Tuple[float, float, float]":
        """``(total, disk, cpu)`` simulated seconds under one lock hold.

        One consistent read for the tracer: sampling total and the two
        resource timelines in separate lock acquisitions could tear
        against a concurrent prefetch-worker charge.
        """
        with self._lock:
            disk = 0.0
            cpu = 0.0
            for component in sorted(self._components):
                seconds = self._components[component]
                if RESOURCE_OF.get(component, CPU) == DISK:
                    disk += seconds
                else:
                    cpu += seconds
            return (disk + cpu - self._overlap_saved, disk, cpu)

    # -- overlap regions ---------------------------------------------------

    def overlap_region(self) -> OverlapRegion:
        """A context manager bracketing one pipelined execution stretch."""
        return OverlapRegion(self)

    def _open_region(self, region: OverlapRegion) -> None:
        with self._lock:
            if self._region is not None:
                raise RuntimeError("overlap regions do not nest")
            self._region = region

    def _close_region(self, region: OverlapRegion) -> None:
        with self._lock:
            if self._region is not region:
                raise RuntimeError("closing an overlap region that is not open")
            region._closed = True
            self._region = None
            self._add_saving(region.saved_seconds)

    # -- snapshots / algebra ----------------------------------------------

    def snapshot(self) -> TimeBreakdown:
        """A copy of the current per-component times."""
        with self._lock:
            return TimeBreakdown(dict(self._components), overlap_saved=self._overlap_saved)

    def open_window(self, base: TimeBreakdown) -> None:
        """Start the measurement window: running sums from ``base`` that
        every later charge and overlap saving also adds to. One window
        at a time; opening one ends the last."""
        with self._lock:
            self._window = TimeBreakdown(dict(base.components), base.overlap_saved)

    def read_window(self) -> TimeBreakdown:
        """A copy of the open window's running sums."""
        with self._lock:
            assert self._window is not None, "no measurement window is open"
            return TimeBreakdown(dict(self._window.components), self._window.overlap_saved)

    def close_window(self) -> TimeBreakdown:
        """End the measurement window; returns its final sums."""
        with self._lock:
            window, self._window = self._window, None
        assert window is not None, "no measurement window is open"
        return window

    def reset(self) -> None:
        with self._lock:
            self._components.clear()
            self._resource_names = {}
            self._overlap_saved = 0.0

    def merge(self, other: "SimClock") -> None:
        """Fold another clock's charges into this one."""
        with other._lock:
            other_components = dict(other._components)
            other_saved = other._overlap_saved
        with self._lock:
            for component, seconds in other_components.items():
                self._add(component, seconds)
            self._add_saving(other_saved)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock({self.snapshot()!r})"


class WallTimer:
    """Minimal wall-clock stopwatch usable as a context manager.

    >>> with WallTimer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed = 0.0

    def __enter__(self) -> "WallTimer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        if self._start is not None:
            raise RuntimeError("WallTimer already running")
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("WallTimer is not running")
        self._elapsed += time.perf_counter() - self._start
        self._start = None
        return self._elapsed

    @property
    def elapsed(self) -> float:
        if self._start is not None:
            return self._elapsed + (time.perf_counter() - self._start)
        return self._elapsed
