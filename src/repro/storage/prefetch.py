"""Bounded-depth asynchronous block prefetching.

The engines' scatter loops are *plan-then-consume*: a round first builds
an ordered list of load thunks (the block plan — SCIU's selected active
blocks, FCIU's destination-major column sweep), then consumes the loads
one by one: decoded blocks (:class:`~repro.graph.grid.EdgeBlock`), or a
column's encoded block handles (:class:`~repro.graph.grid.BlockHandle`). The
:class:`BlockPrefetcher` sits between the two: a single background
worker thread executes the thunks strictly in plan order and hands the
results through a bounded queue, so disk reads for block ``k+1`` overlap
with the gather/apply compute of block ``k``.

Design constraints, all load-bearing:

* **One worker, strict plan order.** Every simulated-disk charge, page
  cache access and injected fault is keyed to the *sequence* of disk
  operations; a single in-order worker reproduces exactly the serial
  operation stream, which is why pipelined runs are bit-identical to
  serial runs (results, traffic counters, fault behaviour).
* **Depth 0 == inline.** With ``depth=0`` the thunks run synchronously
  on the consumer thread; serial and pipelined execution share one code
  path and differ only in *where* (and when) the thunks run.
* **Errors surface at the consumption point.** A thunk that raises —
  including injected :class:`~repro.storage.faults.FaultError`s and
  :class:`~repro.storage.faults.SimulatedCrash` (a ``BaseException``) —
  is delivered through the queue and re-raised to the consumer in plan
  order, so existing fault-handling paths (SCIU's GatherFault fallback,
  crash-recovery tests) work unchanged.
* **No deadlocks on abandonment.** All blocking queue operations poll a
  cancellation event; closing the iterator cancels the worker, drains
  the queue (counting undelivered results as ``prefetch_wasted``) and
  joins the thread.

Real threads genuinely help wall time here: :class:`ArrayFile` reads and
the numpy gather kernels both release the GIL.
"""

from __future__ import annotations

import queue
import threading
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, TypeVar

from repro.obs.trace import NULL_TRACER
from repro.storage.iostats import IOStats
from repro.utils.validation import check_nonneg

if TYPE_CHECKING:
    from repro.obs import TracerLike

_T = TypeVar("_T")

#: Poll interval for cancellable blocking waits. Wall-clock only; has no
#: effect on simulated time or results.
_POLL_S = 0.02


class _Cancelled(Exception):
    """Internal: the pipeline was cancelled while a task was gated."""


class BlockPrefetcher:
    """Executes an ordered list of load thunks ahead of consumption.

    ``depth`` bounds how many completed results may sit undelivered in
    the hand-off queue (the pipeline's lookahead); ``depth=0`` disables
    the worker thread entirely and runs every thunk inline at its
    consumption point, which is the serial execution mode.

    ``stats`` (an :class:`~repro.storage.iostats.IOStats`) receives the
    prefetch observability counters; pass the simulated disk's stats so
    they surface in run results. ``prefetch_hits`` counts results that
    were already decoded when the consumer asked for them — it depends
    on real thread timing and is the only wall-clock-dependent counter
    in :class:`IOStats`.
    """

    def __init__(
        self,
        depth: int,
        stats: Optional[IOStats] = None,
        tracer: "Optional[TracerLike]" = None,
    ) -> None:
        check_nonneg(depth, "depth")
        self.depth = int(depth)
        self._stats_lock = threading.Lock()
        self.stats = stats  # guarded-by: _stats_lock
        #: Observability hook: each task execution (inline or on the
        #: worker thread) is bracketed in a ``prefetch.load`` span.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cancelled = threading.Event()

    def _bump(self, counter: str, by: int = 1) -> None:
        """Add ``by`` to a stats counter, atomically.

        Worker and consumer threads both record counters; an unlocked
        ``+=`` on the shared :class:`IOStats` is a lost-update race
        (read-modify-write is not atomic across threads).
        """
        with self._stats_lock:
            if self.stats is not None:
                setattr(self.stats, counter, getattr(self.stats, counter) + by)

    # -- gating (ordering dependencies between plan stages) ----------------

    def wait_gate(self, gate: threading.Event) -> None:
        """Block a task until ``gate`` is set, aborting on cancellation.

        FCIU uses this to hold the residency check for column ``j+1``
        until column ``j``'s buffer admissions are complete, keeping the
        pipelined buffer evolution identical to serial execution.
        """
        while not gate.wait(_POLL_S):
            if self.cancelled.is_set():
                raise _Cancelled()

    # -- execution ---------------------------------------------------------

    def run(self, tasks: Sequence[Callable[[], _T]]) -> Iterator[_T]:
        """Yield each task's result, in order.

        The returned iterator owns the worker thread: exhausting it,
        closing it, or abandoning it mid-way always cancels and joins
        the worker (no leaked threads, no deadlocks).
        """
        if self.depth == 0:
            return self._run_inline(tasks)
        return self._run_threaded(tasks)

    def _run_inline(self, tasks: Sequence[Callable[[], _T]]) -> Iterator[_T]:
        for index, task in enumerate(tasks):
            with self.tracer.span("prefetch.load", cat="prefetch", index=index):
                result = task()
            self.tracer.metrics.inc("prefetch.loads")
            yield result
            # Not pinned across the next load: the consumer is done with it.
            del result

    def _run_threaded(self, tasks: Sequence[Callable[[], _T]]) -> Iterator[_T]:
        q: "queue.Queue" = queue.Queue(maxsize=self.depth)

        def worker() -> None:
            for index, task in enumerate(tasks):
                if self.cancelled.is_set():
                    return
                try:
                    with self.tracer.span(
                        "prefetch.load", cat="prefetch", index=index
                    ):
                        result = task()
                except _Cancelled:
                    return
                except BaseException as exc:  # delivered, not swallowed
                    self._put(q, ("error", exc))
                    return
                self.tracer.metrics.inc("prefetch.loads")
                self._bump("prefetch_issued")
                if not self._put(q, ("ok", result)):
                    # Cancelled with this result undelivered: the work
                    # (and its charged I/O) was speculative lookahead.
                    self._bump("prefetch_wasted")
                    return
                del result  # the queue holds it now
            self._put(q, ("done", None))

        thread = threading.Thread(
            target=worker, name="graphsd-prefetch", daemon=True
        )
        thread.start()
        try:
            while True:
                try:
                    kind, payload = q.get_nowait()
                    ready = True
                except queue.Empty:
                    kind, payload = q.get()
                    ready = False
                if kind == "done":
                    return
                if kind == "error":
                    raise payload
                if ready:
                    self._bump("prefetch_hits")
                yield payload
                del payload  # not pinned while the next one is awaited
        finally:
            self.cancelled.set()
            while thread.is_alive():
                self._drain(q)
                thread.join(_POLL_S)
            thread.join()
            self._drain(q)  # results queued before the worker exited

    def _drain(self, q: "queue.Queue") -> None:
        """Empty the hand-off queue, counting undelivered results wasted."""
        while True:
            try:
                kind, _payload = q.get_nowait()
            except queue.Empty:
                return
            if kind == "ok":
                self._bump("prefetch_wasted")

    def _put(self, q: "queue.Queue", item: object) -> bool:
        """Queue ``item``, giving up (returning False) on cancellation."""
        while not self.cancelled.is_set():
            try:
                q.put(item, timeout=_POLL_S)
                return True
            except queue.Full:
                continue
        return False

