"""The layers of this repository: wrapped entry points and per-layer metrics.

Layers are the repo's modules. :data:`SITES` names the public entry
points a traced sample wraps (see :mod:`perf.trace`); :data:`METRICS`
turns one traced sample — its spans, the counts taken at the same
boundaries, and the program's own ``RunResult`` record — into the
per-layer numbers listed in ``BENCHMARK.json``.

A metric names the spans it is built from. When any entry point behind
one of those spans no longer resolves, or the ``RunResult`` field it
reads is gone, the metric is reported as ``None`` and the cause is
listed — the benchmark degrades, it does not crash.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from perf.trace import Site, SpanTable

# -- count hooks (run after the wrapped call returns) ------------------------


def _count_read(counts: Counter, parent: Optional[str], args: tuple, kwargs: dict, out: Any) -> None:
    counts["storage.read_calls"] += 1
    if parent == "grid.stream":
        counts["grid.stream_bytes"] += out.nbytes


def _count_selective(counts: Counter, parent: Optional[str], args: tuple, kwargs: dict, out: Any) -> None:
    counts["grid.selective_edges"] += out.count


def _count_gather(counts: Counter, parent: Optional[str], args: tuple, kwargs: dict, out: Any) -> None:
    _contrib, edge_mask = out
    block = args[2] if len(args) > 2 else kwargs["block"]
    counts["kernels.edges"] += block.count
    counts["kernels.useful_edges"] += (
        block.count if edge_mask is None else int(edge_mask.sum())
    )


def _count_buffer_get(counts: Counter, parent: Optional[str], args: tuple, kwargs: dict, out: Any) -> None:
    counts["buffer.hits"] += out is not None


#: Every wrapped entry point: ``(span name, "module:attr.path", hook)``.
#: Class attributes resolve wherever they are called from; the two
#: round functions are module-level names, so they are patched in the
#: module that looks them up (``repro.core.engine``).
SITES: Sequence[Site] = (
    ("datasets.generate", "repro.datasets.registry:DatasetSpec.generate", None),
    ("grid.build", "repro.graph.grid:GridStore.build", None),
    ("grid.intervals", "repro.graph.preprocess:make_intervals", None),
    ("grid.stream", "repro.graph.grid:GridStore.load_block", None),
    ("grid.stream", "repro.graph.grid:GridStore.load_block_range", None),
    ("grid.stream", "repro.graph.grid:GridStore.load_column", None),
    ("grid.selective", "repro.graph.grid:GridStore.load_active_edges", _count_selective),
    ("grid.index", "repro.graph.grid:GridStore.read_index_span", None),
    ("grid.index", "repro.graph.grid:GridStore.read_index_entries", None),
    ("grid.index", "repro.graph.grid:GridStore.read_block_index", None),
    ("storage.read", "repro.storage.blockfile:ArrayFile.read_slice", _count_read),
    ("storage.read", "repro.storage.blockfile:ArrayFile.read_all", _count_read),
    ("storage.gather", "repro.storage.blockfile:ArrayFile.read_gather", _count_read),
    ("storage.write", "repro.storage.blockfile:ArrayFile.write", None),
    ("storage.write", "repro.storage.blockfile:ArrayFile.append", None),
    ("storage.write", "repro.storage.blockfile:ArrayFile.overwrite_slice", None),
    ("storage.state", "repro.graph.vertexdata:VertexArrayStore.load_all", None),
    ("storage.state", "repro.graph.vertexdata:VertexArrayStore.store_all", None),
    ("storage.state", "repro.graph.vertexdata:VertexArrayStore.load_interval", None),
    ("storage.state", "repro.graph.vertexdata:VertexArrayStore.store_interval", None),
    ("kernels.gather", "repro.core.engine_base:EngineBase.gather_block", _count_gather),
    ("kernels.combine", "repro.core.engine_base:EngineBase.combine_block", None),
    ("kernels.apply", "repro.core.engine_base:EngineBase.apply_interval", None),
    ("scheduler.select", "repro.core.scheduler:StateAwareScheduler.select", None),
    ("scheduler.plan_index", "repro.core.scheduler:StateAwareScheduler.plan_index_access", None),
    ("buffer.get", "repro.core.buffer:SubBlockBuffer.get", _count_buffer_get),
    ("buffer.put", "repro.core.buffer:SubBlockBuffer.put", None),
    ("engine.run", "repro.core.engine_base:EngineBase.run", None),
    ("engine.run", "repro.cluster.coordinator:ClusterEngine.run", None),
    ("engine.fciu_round", "repro.core.engine:run_fciu_round", None),
    ("engine.sciu_round", "repro.core.engine:run_sciu_round", None),
    ("cluster.compute", "repro.cluster.worker:ClusterWorker.compute", None),
    ("cluster.broadcast", "repro.cluster.worker:ClusterWorker.broadcast", None),
    ("cluster.absorb", "repro.cluster.worker:ClusterWorker.absorb", None),
    ("cluster.checkpoint", "repro.cluster.worker:ClusterWorker.checkpoint", None),
    ("checkpoint.write", "repro.core.checkpoint:CheckpointManager.write", None),
)


# -- metric definitions -----------------------------------------------------


@dataclass
class Sample:
    """Everything one traced sample produced."""

    spans: SpanTable
    counts: Mapping[str, int]
    #: ``RunResult.to_dict()`` of the traced operation (``{}`` when the
    #: operation is not an engine run).
    result: Mapping[str, Any]
    wall_s: float
    #: Median wall of the same operation without wrappers.
    untraced_wall_s: float
    #: Figures only the benchmark itself can supply (edge and byte
    #: counts of a build, CLI subprocess probes, tracer overhead).
    extra: Mapping[str, float]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _sim(s: Sample, *components: str) -> float:
    parts = s.result["breakdown"]["components"] if s.result else {}
    return float(sum(parts.get(c, 0.0) for c in components))


def _sim_s(s: Sample) -> float:
    """Simulated seconds of the operation (a build reports its own)."""
    if "sim_s" in s.extra:
        return s.extra["sim_s"]
    return s.result["sim_seconds"] if s.result else 0.0


def _records(s: Sample) -> List[Mapping[str, Any]]:
    return list(s.result["per_iteration"]) if s.result else []


def _on_demand_ratio(s: Sample) -> float:
    models = [r["model"] for r in _records(s)]
    return _ratio(sum(m == "sciu" for m in models), len(models))


def _io(s: Sample, *fields: str) -> float:
    return float(sum(s.result["io"][f] for f in fields)) if s.result else 0.0


_ROUND_SPANS = ("engine.run", "engine.fciu_round", "engine.sciu_round")
_STREAM = ("grid.stream",)
_SELECTIVE = ("grid.selective", "grid.index")
_READS = ("storage.read", "storage.gather")
_KERNELS = ("kernels.gather", "kernels.combine", "kernels.apply")
_RESULT: Tuple[str, ...] = ()  # built from the RunResult record only

#: ``name -> (spans it depends on, function of the sample)``. Units live
#: in BENCHMARK.json, the one list both the driver and this code read.
METRICS: Dict[str, Tuple[Tuple[str, ...], Callable[[Sample], float]]] = {
    # datasets
    "datasets.generate_s": (("datasets.generate",), lambda s: s.spans.inclusive("datasets.generate")),
    # graph.grid, build side
    "grid.build_s": (("grid.build",), lambda s: s.spans.inclusive("grid.build")),
    "grid.build_edges_per_s": (
        ("grid.build",),
        lambda s: _ratio(s.extra.get("build_edges", 0.0), s.spans.inclusive("grid.build")),
    ),
    "grid.build_bytes_written": (_RESULT, lambda s: s.extra.get("build_bytes_written", 0.0)),
    "grid.bytes_per_edge": (_RESULT, lambda s: s.extra.get("grid_bytes_per_edge", 0.0)),
    "grid.intervals_s": (("grid.intervals",), lambda s: s.spans.inclusive("grid.intervals")),
    # graph.grid, streaming reads (self = decode, children = ArrayFile)
    "grid.stream_s": (_STREAM, lambda s: s.spans.inclusive(*_STREAM)),
    "grid.stream_calls": (_STREAM, lambda s: s.spans.outer_calls(*_STREAM)),
    "grid.stream_bytes": (_STREAM + ("storage.read",), lambda s: s.counts.get("grid.stream_bytes", 0)),
    "grid.decode_self_s": (_STREAM + ("storage.read",), lambda s: s.spans.self_time(*_STREAM)),
    # graph.grid, selective reads
    "grid.selective_s": (_SELECTIVE, lambda s: s.spans.inclusive(*_SELECTIVE)),
    "grid.selective_calls": (("grid.selective",), lambda s: s.spans.calls("grid.selective")),
    "grid.selective_edges": (("grid.selective",), lambda s: s.counts.get("grid.selective_edges", 0)),
    "grid.index_read_s": (("grid.index",), lambda s: s.spans.inclusive("grid.index")),
    # storage
    "storage.read_s": (_READS, lambda s: s.spans.inclusive(*_READS)),
    "storage.read_calls": (_READS, lambda s: s.counts.get("storage.read_calls", 0)),
    "storage.read_bytes": (_RESULT, lambda s: s.extra.get("bytes_read", _io(s, "bytes_read_seq", "bytes_read_ran"))),
    "storage.gather_s": (("storage.gather",), lambda s: s.spans.inclusive("storage.gather")),
    "storage.gather_runs": (_RESULT, lambda s: _io(s, "gather_runs_issued")),
    "storage.write_s": (("storage.write",), lambda s: s.spans.inclusive("storage.write")),
    "storage.write_bytes": (
        _RESULT,
        lambda s: s.extra.get("bytes_written", _io(s, "bytes_written_seq", "bytes_written_ran")),
    ),
    "storage.state_io_s": (("storage.state",), lambda s: s.spans.inclusive("storage.state")),
    # algorithms kernels
    "kernels.gather_s": (("kernels.gather",), lambda s: s.spans.inclusive("kernels.gather")),
    "kernels.combine_s": (("kernels.combine",), lambda s: s.spans.inclusive("kernels.combine")),
    "kernels.apply_s": (("kernels.apply",), lambda s: s.spans.inclusive("kernels.apply")),
    "kernels.edges": (("kernels.gather",), lambda s: s.counts.get("kernels.edges", 0)),
    "kernels.edges_per_s": (
        _KERNELS,
        lambda s: _ratio(s.counts.get("kernels.edges", 0), s.spans.inclusive(*_KERNELS)),
    ),
    "kernels.useful_edge_ratio": (
        ("kernels.gather",),
        lambda s: _ratio(s.counts.get("kernels.useful_edges", 0), s.counts.get("kernels.edges", 0)),
    ),
    # core.scheduler
    "scheduler.select_s": (("scheduler.select",), lambda s: s.spans.inclusive("scheduler.select")),
    "scheduler.plan_index_s": (("scheduler.plan_index",), lambda s: s.spans.inclusive("scheduler.plan_index")),
    "scheduler.decisions": (("scheduler.select",), lambda s: s.spans.calls("scheduler.select")),
    "scheduler.on_demand_ratio": (_RESULT, _on_demand_ratio),
    # core.buffer
    "buffer.gets": (("buffer.get",), lambda s: s.spans.calls("buffer.get")),
    "buffer.hit_ratio": (
        ("buffer.get",),
        lambda s: _ratio(s.counts.get("buffer.hits", 0), s.spans.calls("buffer.get")),
    ),
    "buffer.hit_bytes": (_RESULT, lambda s: _io(s, "buffer_hit_bytes")),
    # core rounds and the program's own simulated clock
    "engine.iterations": (_RESULT, lambda s: s.result["iterations"] if s.result else 0),
    "engine.edges_processed": (_RESULT, lambda s: sum(r["edges_processed"] for r in _records(s))),
    "engine.fciu_round_s": (("engine.fciu_round",), lambda s: s.spans.inclusive("engine.fciu_round")),
    "engine.sciu_round_s": (("engine.sciu_round",), lambda s: s.spans.inclusive("engine.sciu_round")),
    # Everything under run() that no wrapped entry point below it
    # covers: per-round state copies, accumulators, plan building,
    # records — the bookkeeping.
    "engine.round_self_s": (_ROUND_SPANS, lambda s: s.spans.self_time(*_ROUND_SPANS)),
    "engine.sim_s": (_RESULT, _sim_s),
    "engine.io_bytes": (
        _RESULT,
        lambda s: s.extra.get(
            "io_bytes",
            _io(s, "bytes_read_seq", "bytes_read_ran", "bytes_written_seq", "bytes_written_ran"),
        ),
    ),
    "engine.sim_io_s": (_RESULT, lambda s: _sim(s, "io_read", "io_write")),
    "engine.sim_compute_s": (_RESULT, lambda s: _sim(s, "compute")),
    "engine.sim_overlap_saved_s": (
        _RESULT,
        lambda s: s.result["breakdown"]["overlap_saved"] if s.result else 0.0,
    ),
    "engine.sim_wall_ratio": (_RESULT, lambda s: _ratio(_sim_s(s), s.untraced_wall_s)),
    "engine.edges_per_s": (_RESULT, lambda s: _ratio(s.extra.get("num_edges", 0.0), s.untraced_wall_s)),
    # core.async_engine
    "async.sweeps": (_RESULT, lambda s: s.result.get("sweeps", 0) if s.result else 0),
    "async.subblocks_processed": (
        _RESULT,
        lambda s: s.result["subblocks_processed"] if s.result and "sweeps" in s.result else 0,
    ),
    "async.pop_decisions": (_RESULT, lambda s: s.extra.get("pop_decisions", 0.0)),
    "async.run_self_s": (
        ("engine.run",),
        lambda s: s.spans.self_time("engine.run") if s.result and "sweeps" in s.result else 0.0,
    ),
    # cluster
    "cluster.compute_s": (("cluster.compute",), lambda s: s.spans.inclusive("cluster.compute")),
    "cluster.broadcast_s": (("cluster.broadcast",), lambda s: s.spans.inclusive("cluster.broadcast")),
    "cluster.absorb_s": (("cluster.absorb",), lambda s: s.spans.inclusive("cluster.absorb")),
    "cluster.checkpoint_s": (("cluster.checkpoint",), lambda s: s.spans.inclusive("cluster.checkpoint")),
    "cluster.messages_sent": (_RESULT, lambda s: s.result["recovery"].get("messages_sent", 0) if s.result else 0),
    "cluster.bytes_sent": (_RESULT, lambda s: s.result["recovery"].get("bytes_sent", 0) if s.result else 0),
    "cluster.sim_network_s": (_RESULT, lambda s: _sim(s, "network")),
    "cluster.overhead_vs_single": (_RESULT, lambda s: s.extra.get("overhead_vs_single", 0.0)),
    # core.checkpoint
    "checkpoint.write_s": (("checkpoint.write",), lambda s: s.spans.inclusive("checkpoint.write")),
    "checkpoint.writes": (("checkpoint.write",), lambda s: s.spans.calls("checkpoint.write")),
    # cli (subprocess probes, cli_cold only)
    "cli.import_s": (_RESULT, lambda s: s.extra.get("cli_import_s", 0.0)),
    "cli.import_modules": (_RESULT, lambda s: s.extra.get("cli_import_modules", 0.0)),
    "cli.engine_reported_s": (_RESULT, lambda s: s.extra.get("cli_engine_reported_s", 0.0)),
    # obs
    "obs.tracer_overhead_ratio": (_RESULT, lambda s: s.extra.get("tracer_overhead_ratio", 0.0)),
    "bench.trace_overhead_ratio": (_RESULT, lambda s: _ratio(s.wall_s, s.untraced_wall_s)),
}


def layer_metrics(
    sample: Sample, missing_sites: Sequence[str], broken_spans: Set[str]
) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Every per-layer metric of one traced sample, and what is missing.

    ``missing_sites`` are entry points that did not resolve at install
    time; ``broken_spans`` are span names whose count hook failed on the
    live objects. Metrics built on either are ``None``.
    """
    site_span = {site: name for name, site, _hook in SITES}
    dead = {site_span[site] for site in missing_sites} | set(broken_spans)
    problems = list(missing_sites) + [f"hook:{name}" for name in sorted(broken_spans)]
    values: Dict[str, Optional[float]] = {}
    for name, (deps, fn) in METRICS.items():
        if dead.intersection(deps):
            values[name] = None
            continue
        try:
            values[name] = float(fn(sample))
        except (KeyError, TypeError, AttributeError):
            # The RunResult record no longer has the field this reads.
            values[name] = None
            problems.append(f"result:{name}")
    return values, problems
