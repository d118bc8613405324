"""Export graphsd JSONL traces to Chrome / Perfetto ``trace_event`` JSON.

The output is the Trace Event Format's *JSON object* flavour
(``{"traceEvents": [...], ...}``) accepted by ``chrome://tracing`` and
https://ui.perfetto.dev. One layout serves every trace; an event's
process follows its ``worker`` tag:

* pid ``1`` — simulated time: untagged events (``sim``) and the
  coordinator's ``coord``/``all`` events of a merged cluster trace
  (``coordinator (cluster time)``). Spans sit at their ``sim_start``
  with ``sim_dur`` duration; iteration slices, the ``frontier`` and
  ``io_bytes`` counter tracks and audit/recovery instants are here too;
* pid ``10 + w`` — worker ``w``'s spans on rebased cluster time, with
  one flow arrow (``ph: s``/``f``) per delivered ``send``, keyed by the
  ValueMessage ``(sender, seq, dst)`` identity, from the sender's
  broadcast span to the receiver's absorb span;
* pid ``2`` (``wall``) — every *untagged* span again on the host
  timeline (``wall_start``/``wall_dur``). Tagged spans get no wall copy:
  each tracer's wall origin is its own creation instant, so host times
  are not comparable across the processes of a cluster run.

Each process numbers its threads from 1 in order of appearance (tid 0
holds iterations, counters and instants). Timestamps are microseconds
(the format's unit); sub-microsecond sim durations survive because the
format takes floats.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from repro.obs.schema import validate_trace_file

_SIM_PID = 1
_WALL_PID = 2
_US = 1e6

#: Worker ``w`` of a merged trace renders as pid ``_WORKER_PID0 + w``.
_WORKER_PID0 = 10


def to_chrome_trace(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert validated graphsd trace events to a trace_event object."""
    out: List[Dict[str, Any]] = []
    meta: Dict[str, Any] = {}
    named: set[int] = set()
    thread_ids: Dict[Tuple[int, str], int] = {}

    def name_process(pid: int, name: str) -> int:
        if pid not in named:
            named.add(pid)
            out.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": name},
                }
            )
        return pid

    def pid_of(worker: Any) -> int:
        if isinstance(worker, int):
            return name_process(_WORKER_PID0 + worker, f"worker {worker}")
        if worker is None:
            return name_process(_SIM_PID, "sim")
        return name_process(_SIM_PID, "coordinator (cluster time)")

    def tid_of(pid: int, thread: str) -> int:
        key = (pid, thread)
        if key not in thread_ids:
            tid = sum(1 for p, _ in thread_ids if p == pid) + 1
            thread_ids[key] = tid
            out.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": thread},
                }
            )
        return thread_ids[key]

    last_iter_ts = 0.0
    for event in events:
        etype = event["type"]
        if etype == "meta":
            meta = {k: v for k, v in event.items() if k != "type"}
        elif etype == "span":
            args = dict(event["attrs"])
            args["sim_disk"] = event["sim_disk"]
            args["sim_cpu"] = event["sim_cpu"]
            common = {
                "ph": "X",
                "name": event["name"],
                "cat": event["cat"],
                "args": args,
            }
            worker = event.get("worker")
            pid = pid_of(worker)
            out.append(
                {
                    **common,
                    "pid": pid,
                    "tid": tid_of(pid, event["thread"]),
                    "ts": event["sim_start"] * _US,
                    "dur": event["sim_dur"] * _US,
                }
            )
            if worker is None:
                wall = name_process(_WALL_PID, "wall")
                out.append(
                    {
                        **common,
                        "pid": wall,
                        "tid": tid_of(wall, event["thread"]),
                        "ts": event["wall_start"] * _US,
                        "dur": event["wall_dur"] * _US,
                    }
                )
        elif etype == "iteration":
            pid = pid_of(event.get("worker"))
            ts = last_iter_ts = event["sim_start"] * _US
            io = event["io"]
            out.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "dur": event["sim_seconds"] * _US,
                    "name": f"iter {event['iteration']} [{event['model']}]",
                    "cat": "iteration",
                    "args": {
                        "frontier_size": event["frontier_size"],
                        "edges_processed": event["edges_processed"],
                        "activated": event["activated"],
                        "io": io,
                    },
                }
            )
            out.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "name": "frontier",
                    "args": {"active": event["frontier_size"]},
                }
            )
            out.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "name": "io_bytes",
                    "args": {
                        "seq_read": io.get("bytes_read_seq", 0),
                        "ran_read": io.get("bytes_read_ran", 0),
                        "written": io.get("bytes_written_seq", 0)
                        + io.get("bytes_written_ran", 0),
                    },
                }
            )
        elif etype == "audit":
            out.append(
                {
                    "ph": "i",
                    "pid": pid_of(None),
                    "tid": 0,
                    "ts": last_iter_ts,
                    "s": "g",
                    "name": f"decision iter {event['iteration']}: {event['chosen']}",
                    "cat": "audit",
                    "args": {
                        "c_full": event["c_full"],
                        "c_on_demand": event["c_on_demand"],
                        "predicted_seconds": event["predicted_seconds"],
                        "actual_sim_seconds": event["actual_sim_seconds"],
                    },
                }
            )
        elif etype == "recovery":
            out.append(
                {
                    "ph": "i",
                    "pid": pid_of(event["worker"]),
                    "tid": 0,
                    "ts": last_iter_ts,
                    "s": "p",
                    "name": f"{event['event']} w{event['worker']} s{event['superstep']}",
                    "cat": "recovery",
                    "args": dict(event["detail"]),
                }
            )
        elif etype == "send" and "recv_sim_time" in event:
            # One flow arrow per delivered message: starts inside the
            # sender's broadcast span, ends at the receiver's absorb.
            flow_id = f"msg-w{event['worker']}-seq{event['seq']}-w{event['dst']}"
            name = f"msg s{event['superstep']} i{event['interval']}"
            src_pid = pid_of(event["worker"])
            dst_pid = pid_of(event["dst"])
            out.append(
                {
                    "ph": "s",
                    "id": flow_id,
                    "pid": src_pid,
                    "tid": tid_of(src_pid, "MainThread"),
                    "ts": event["sim_time"] * _US,
                    "name": name,
                    "cat": "message",
                    "args": {"nbytes": event["nbytes"], "status": event["status"]},
                }
            )
            out.append(
                {
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "pid": dst_pid,
                    "tid": tid_of(dst_pid, "MainThread"),
                    "ts": event["recv_sim_time"] * _US,
                    "name": name,
                    "cat": "message",
                }
            )
        # "barrier" windows are already covered by the merger's
        # synthesized coordinator spans; "metrics", "run" and "priority"
        # carry aggregates with no timeline placement.

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def export_file(trace_path: str, out_path: str) -> int:
    """Validate ``trace_path`` and write its trace_event JSON.

    Returns the number of trace events written.
    """
    events = validate_trace_file(trace_path)
    chrome = to_chrome_trace(events)
    # charged-io-ok: host-side trace export, not simulated graph I/O
    with open(out_path, "w") as f:
        json.dump(chrome, f)
    return len(chrome["traceEvents"])
