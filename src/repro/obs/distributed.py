"""Merging N worker traces + the coordinator trace into one timeline.

A traced cluster run produces one :class:`~repro.obs.trace.Tracer` per
worker (spans on the worker's *local* simulated clock, message ``send``
events) plus the coordinator's tracer (``barrier`` folds, iteration and
recovery records on *cluster* time). This module correlates them into a
single causally-ordered **distributed trace** — the same
:mod:`repro.obs.schema` as any trace, with every span tagged by its
``worker``:

* **Time rebasing.** Each ``barrier`` event records, per worker, the
  worker-local clock reading at the barrier's opening edge
  (``local_start``) alongside the cluster time the barrier opened at
  (``sim_start``). Those pairs form a piecewise-linear map from each
  worker's local clock to cluster time (slope 1 inside a barrier window
  — simulated charges advance both clocks equally); every worker span
  and send event is rebased through it.

* **Causal edges.** ``send`` events are keyed by ValueMessage identity
  ``(sender, seq)``; the merger attaches ``recv_sim_time`` — the
  receiver's rebased ``absorb`` span start for the same superstep — so
  the Perfetto export can draw flow arrows from broadcast to absorb.

* **Synthesized spans.** The merger adds what no single tracer could
  see: per-barrier coordinator slices (track ``coord``) spanning each
  fold window, and per-worker ``barrier.wait`` spans covering the gap
  between a worker finishing its superstep work and the barrier closing
  (``sim_seconds − delta``) — the critical-path analyzer's WAIT resource.

Ordering is deterministic: events sort by rebased cluster time with a
fixed type rank breaking ties, and span ids are reassigned into one
global id space (coordinator first, then workers ascending).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.schema import TRACE_SCHEMA, TRACE_VERSION
from repro.obs.trace import Tracer

#: Worker tag carried by synthesized coordinator-track events.
COORDINATOR_TRACK = "coord"

#: Name of the synthesized per-worker barrier-wait spans.
BARRIER_WAIT = "barrier.wait"

#: Tie-break rank at equal cluster time: barriers open their window
#: before the spans inside it; sends happen inside spans; bookkeeping
#: records (iteration/recovery/audit) trail the work they describe.
_TYPE_RANK = {
    "barrier": 0,
    "span": 1,
    "send": 2,
    "recovery": 3,
    "iteration": 4,
    "audit": 5,
    "priority": 5,
    "metrics": 6,
    "run": 7,
}


class TraceMergeError(ValueError):
    """The worker/coordinator traces cannot be correlated."""


class _Rebase:
    """Piecewise map from one worker's local clock to cluster time."""

    def __init__(self) -> None:
        self._locals: List[float] = []
        self._clusters: List[float] = []

    def add_segment(self, local_start: float, cluster_start: float) -> None:
        if self._locals and local_start < self._locals[-1]:
            raise TraceMergeError(
                "barrier local_start values are not monotonic "
                f"({local_start} after {self._locals[-1]})"
            )
        self._locals.append(local_start)
        self._clusters.append(cluster_start)

    def to_cluster(self, local: float) -> float:
        if not self._locals:
            return local
        i = bisect.bisect_right(self._locals, local) - 1
        if i < 0:
            i = 0
        return self._clusters[i] + (local - self._locals[i])


def _barrier_name(barrier: Dict[str, Any]) -> str:
    kind = barrier["kind"]
    if kind == "init":
        return "barrier init"
    return f"barrier {kind} s{barrier['superstep']}"


def _synth_span(
    span_id: int,
    name: str,
    worker: Any,
    sim_start: float,
    sim_dur: float,
    attrs: Dict[str, Any],
) -> Dict[str, Any]:
    """A schema-complete barrier span the merger invented (resource split
    and wall fields zeroed: a synthesized window charges nothing and has
    no host-time footprint of its own)."""
    return {
        "type": "span",
        "id": span_id,
        "parent": None,
        "thread": "merged",
        "name": name,
        "cat": "barrier",
        "worker": worker,
        "sim_start": sim_start,
        "sim_dur": sim_dur,
        "sim_disk": 0.0,
        "sim_cpu": 0.0,
        "wall_start": 0.0,
        "wall_dur": 0.0,
        "attrs": attrs,
    }


def merge_trace_events(
    coordinator_events: List[Dict[str, Any]],
    worker_events: Mapping[int, List[Dict[str, Any]]],
    meta: Dict[str, Any],
    final_metrics: Dict[str, Any],
) -> List[Dict[str, Any]]:
    """Merge raw event lists into one ordered trace (with meta line).

    ``coordinator_events`` must contain the ``barrier`` folds that anchor
    the rebase maps; ``worker_events`` maps worker id to that worker's
    local span/send events. Raises :class:`TraceMergeError` when the
    correlation anchors are missing or inconsistent.
    """
    barriers = [e for e in coordinator_events if e.get("type") == "barrier"]
    if not barriers:
        raise TraceMergeError(
            "coordinator trace has no barrier events — cannot correlate "
            "worker clocks to cluster time"
        )

    # Rebase maps + per-superstep window starts.
    rebase: Dict[int, _Rebase] = {wid: _Rebase() for wid in worker_events}
    window_start: Dict[int, float] = {}
    for b in barriers:
        window_start.setdefault(int(b["superstep"]), float(b["sim_start"]))
        for wid_s, entry in b["workers"].items():
            wid = int(wid_s)
            if wid in rebase:
                rebase[wid].add_segment(
                    float(entry["local_start"]), float(b["sim_start"])
                )

    rows: List[Tuple[float, int, Dict[str, Any]]] = []

    def emit(time: float, event: Dict[str, Any]) -> None:
        rows.append((time, _TYPE_RANK.get(event.get("type", ""), 5), event))

    # -- coordinator events (already on cluster time) -----------------------
    last_time = 0.0
    for event in coordinator_events:
        etype = event.get("type")
        if etype == "barrier":
            last_time = float(event["sim_start"])
        elif etype == "iteration":
            last_time = float(event.get("sim_start", last_time))
        elif etype == "recovery":
            last_time = window_start.get(int(event["superstep"]), last_time)
        elif etype == "run":
            last_time = float("inf")
        emit(last_time, event)

    # -- worker events (rebased), with global id reassignment ---------------
    id_offset = 1 + max(
        (int(e["id"]) for e in coordinator_events if e.get("type") == "span"),
        default=-1,
    )
    absorb_start: Dict[Tuple[int, int], float] = {}
    sends: List[Dict[str, Any]] = []
    for wid in sorted(worker_events):
        rb = rebase[wid]
        max_id = -1
        for event in worker_events[wid]:
            etype = event.get("type")
            if etype == "span":
                span = dict(event)
                span["worker"] = wid
                span["sim_start"] = rb.to_cluster(float(event["sim_start"]))
                span["id"] = id_offset + int(event["id"])
                if event.get("parent") is not None:
                    span["parent"] = id_offset + int(event["parent"])
                max_id = max(max_id, int(event["id"]))
                if span["name"] == "absorb":
                    key = (wid, int(span["attrs"].get("superstep", -1)))
                    absorb_start.setdefault(key, float(span["sim_start"]))
                emit(float(span["sim_start"]), span)
            elif etype == "send":
                send = dict(event)
                send["sim_time"] = rb.to_cluster(float(event["sim_time"]))
                sends.append(send)
                emit(float(send["sim_time"]), send)
            # Worker tracers emit only spans and sends; anything else
            # would be schema drift — surface it instead of dropping it.
            else:
                raise TraceMergeError(
                    f"unexpected {etype!r} event in worker {wid}'s trace"
                )
        id_offset += max_id + 1

    # Receiver-side annotation: the message is consumed by the dst
    # worker's absorb phase of the same superstep.
    for send in sends:
        key = (int(send["dst"]), int(send["superstep"]))
        recv = absorb_start.get(key)
        if recv is not None:
            send["recv_sim_time"] = recv

    # -- synthesized coordinator slices + barrier-wait spans ----------------
    for b in barriers:
        sim_start = float(b["sim_start"])
        sim_seconds = float(b["sim_seconds"])
        emit(
            sim_start,
            _synth_span(
                id_offset,
                _barrier_name(b),
                COORDINATOR_TRACK,
                sim_start,
                sim_seconds,
                {"superstep": b["superstep"], "kind": b["kind"],
                 "workers": sorted(int(w) for w in b["workers"])},
            ),
        )
        id_offset += 1
        for wid_s in sorted(b["workers"], key=int):
            delta = float(b["workers"][wid_s]["delta"])
            wait = sim_seconds - delta
            if wait <= 0.0:
                continue  # the straggler itself: no idle time
            emit(
                sim_start + delta,
                _synth_span(
                    id_offset,
                    BARRIER_WAIT,
                    int(wid_s),
                    sim_start + delta,
                    wait,
                    {"superstep": b["superstep"], "kind": b["kind"]},
                ),
            )
            id_offset += 1

    rows.sort(key=lambda row: (row[0], row[1]))

    header = dict(meta)
    header["type"] = "meta"
    header["schema"] = TRACE_SCHEMA
    header["version"] = TRACE_VERSION
    header["merged_workers"] = sorted(int(w) for w in worker_events)
    merged: List[Dict[str, Any]] = [header]
    merged.extend(event for _, _, event in rows)
    merged.append({"type": "metrics", "scope": "final", "metrics": final_metrics})
    return merged


def merge_cluster_trace(
    coordinator: Tracer,
    workers: Mapping[int, Tracer],
    meta: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Merge live tracers from one cluster run into one event list
    (written with :func:`~repro.obs.schema.write_trace_file`)."""
    header = coordinator.header()
    if meta:
        header.update(meta)
    return merge_trace_events(
        coordinator.events,
        {wid: t.events for wid, t in workers.items()},
        header,
        coordinator.metrics.snapshot(),
    )

