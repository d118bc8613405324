"""Trace fuzzing: a damaged trace is an operational error, never a traceback.

Two real traces are recorded once — a single-process adaptive run (spans,
iterations, audits) and a merged 2-worker cluster run (barriers, sends,
worker-tagged spans) — and each example damages one line of one of them:
drops a key, nulls it, gives it another type (at the top level or inside
a nested map), or truncates the line. Every consumer of a trace file,
run through the CLI, must then exit 0 or 2 and raise nothing.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BFS
from repro.algorithms.base import GraphContext
from repro.cli import main
from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import GraphSDEngine
from repro.graph.degree import out_degrees
from repro.obs import Tracer
from tests.conftest import build_store, random_edgelist

P = 4

#: A value of each JSON type; a retype picks one of another type.
_VALUES = ["x", 7, 0.5, True, [], {}, None]


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """The recorded traces' lines, and a scratch directory."""
    tmp = tmp_path_factory.mktemp("fuzz")
    edges = random_edgelist(np.random.default_rng(11), 200, 1600, weighted=False)
    store = build_store(edges, tmp, P=P, name="fz")
    single = tmp / "single.trace.jsonl"
    engine = GraphSDEngine(store)
    engine.attach_tracer(Tracer(), path=str(single))
    engine.run(BFS(root=0))

    ctx = GraphContext(
        num_vertices=edges.num_vertices,
        num_edges=edges.num_edges,
        out_degrees=out_degrees(edges),
    )
    merged = tmp / "merged.trace.jsonl"
    cluster = ClusterEngine(store.device.root, "fz", tmp / "ws", ClusterConfig(workers=2), ctx=ctx)
    cluster.attach_tracer(Tracer(), path=str(merged))
    cluster.run(BFS(root=0))
    return {
        "lines": [p.read_text().splitlines() for p in (single, merged)],
        "tmp": tmp,
    }


def _paths(value, prefix=()):
    """Every key path into ``value``'s nested JSON objects."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield prefix + (key,)
            yield from _paths(item, prefix + (key,))


def _mutate(data, line):
    """One drawn mutation of one JSONL line."""
    event = json.loads(line)
    kind = data.draw(st.sampled_from(["drop", "null", "retype", "truncate"]))
    if kind == "truncate":
        return line[: data.draw(st.integers(0, len(line) - 1))]
    path = data.draw(st.sampled_from(list(_paths(event))))
    *outer, key = path
    parent = event
    for step in outer:
        parent = parent[step]
    if kind == "drop":
        del parent[key]
    elif kind == "null":
        parent[key] = None
    else:
        old = type(parent[key])
        parent[key] = data.draw(st.sampled_from([v for v in _VALUES if type(v) is not old]))
    return json.dumps(event)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_trace_command_survives_one_damaged_line(traces, data):
    lines = list(data.draw(st.sampled_from(traces["lines"])))
    index = data.draw(st.integers(0, len(lines) - 1))
    lines[index] = _mutate(data, lines[index])
    path = traces["tmp"] / "damaged.trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    out = str(traces["tmp"] / "damaged.chrome.json")
    for argv in (
        ["trace", "report", str(path)],
        ["trace", "export", str(path), "--out", out],
        ["trace", "critical-path", str(path)],
        ["tune", str(path)],
    ):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv)
        assert rc in (0, 2), (argv, sink.getvalue())
