"""Preprocessing pipelines of the three compared systems (Fig. 8).

The paper breaks preprocessing into: loading the raw graph, partitioning
(+ sorting where the format needs it), and writing the preprocessed
representation. The three systems differ exactly here:

* **Lumos** — partitions edges into the grid but does **not** sort within
  sub-blocks and keeps a single copy; fastest to preprocess, but its
  representation cannot support selective (per-vertex) edge access.
* **GraphSD** — one copy, sorted by source within sub-blocks, plus the
  per-vertex offset index; moderately more expensive than Lumos.
* **HUS-Graph** — builds and sorts **two** copies of the edges (one
  organized by source for selective access, one by destination for
  sequential updates); the most expensive pipeline.

Raw-input reads and all representation writes are charged through the
device's simulated disk; partition/sort compute is charged at the machine
profile's rates (sorting is modeled as ``SORT_PASSES`` linear passes, the
regime of a bucketed radix sort, which is what these systems implement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.grid import ENCODING_RAW, GridStore
from repro.graph.partition import VertexIntervals, make_intervals
from repro.obs import NULL_TRACER, TracerLike
from repro.storage.blockfile import Device
from repro.storage.disk import MachineProfile, DEFAULT_MACHINE
from repro.utils.timers import COMPUTE, TimeBreakdown, WallTimer

#: Modeled passes over the edge array for an in-place bucketed sort.
SORT_PASSES = 6
#: Modeled passes for bucketing edges into sub-blocks without sorting.
PARTITION_PASSES = 2


@dataclass
class PreprocessResult:
    """Outcome of one preprocessing pipeline."""

    system: str
    stores: List[GridStore]
    intervals: VertexIntervals
    breakdown: TimeBreakdown
    wall_seconds: float
    #: Out-degrees from the primary store's build (its degree table's
    #: column sum, part of the already charged partition pass).
    #: Pass :attr:`context` to the engine so it does not re-derive them
    #: with a second charged full-graph scan.
    out_degrees: Optional[np.ndarray] = None

    @property
    def store(self) -> GridStore:
        """The primary (first) representation."""
        return self.stores[0]

    @property
    def context(self):
        """A :class:`~repro.algorithms.base.GraphContext` for engines.

        Carries the degrees produced during preprocessing — constructing
        an engine with ``ctx=result.context`` avoids the fallback charged
        scan in :meth:`~repro.core.engine_base.EngineBase.build_context`.
        """
        from repro.algorithms.base import GraphContext

        store = self.store
        return GraphContext(
            num_vertices=store.num_vertices,
            num_edges=store.total_edges,
            out_degrees=self.out_degrees,
        )

    @property
    def sim_seconds(self) -> float:
        """Total modeled preprocessing time (the Fig. 8 metric)."""
        return self.breakdown.total


def _charge_raw_read(device: Device, edges: EdgeList) -> None:
    device.disk.charge_read_sequential(edges.nbytes_on_disk, requests=1)


def _charge_partition(device: Device, machine: MachineProfile, edges: EdgeList) -> None:
    device.disk.clock.charge(
        COMPUTE, machine.edge_compute_time(PARTITION_PASSES * edges.num_edges)
    )


def _charge_sort(device: Device, machine: MachineProfile, edges: EdgeList) -> None:
    device.disk.clock.charge(COMPUTE, machine.edge_compute_time(SORT_PASSES * edges.num_edges))


def _run(
    system: str,
    device: Device,
    edges: EdgeList,
    intervals: VertexIntervals,
    build,
    tracer: TracerLike = NULL_TRACER,
) -> PreprocessResult:
    if tracer.enabled:
        tracer.bind_clock(device.disk.clock)
    before = device.disk.clock.snapshot()
    with WallTimer() as wall, tracer.span(
        "preprocess", cat="preprocess", system=system, edges=edges.num_edges
    ):
        stores = build()
    breakdown = device.disk.clock.snapshot() - before
    # The primary build's degree table already holds the out-degrees;
    # carrying them saves every engine the fallback charged scan.
    return PreprocessResult(
        system, stores, intervals, breakdown, wall.elapsed,
        out_degrees=stores[0].out_degrees,
    )


def _resolve_intervals(
    edges: EdgeList, P: int, intervals: Optional[VertexIntervals]
) -> VertexIntervals:
    return intervals if intervals is not None else make_intervals(edges, P)


def preprocess_graphsd(
    edges: EdgeList,
    device: Device,
    P: int = 8,
    prefix: str = "graphsd",
    intervals: Optional[VertexIntervals] = None,
    machine: MachineProfile = DEFAULT_MACHINE,
    encoding: str = ENCODING_RAW,
    tracer: TracerLike = NULL_TRACER,
) -> PreprocessResult:
    """GraphSD pipeline: one sorted, indexed grid copy.

    ``encoding`` selects the on-disk sub-block layout ("raw", "compact"
    or "compact3"); the compact encoders' per-block packing is in the
    same regime as the sort passes already charged, so preprocessing
    cost is modeled identically — what changes is the representation's
    size, and with it every later read. The result's ``out_degrees`` are
    the column sum of the build's per-(column, vertex) degree table, not
    a separate pass over the edge list.
    """
    intervals = _resolve_intervals(edges, P, intervals)

    def build() -> List[GridStore]:
        _charge_raw_read(device, edges)
        _charge_partition(device, machine, edges)
        _charge_sort(device, machine, edges)
        return [
            GridStore.build(
                edges, intervals, device, prefix=prefix, indexed=True,
                encoding=encoding,
            )
        ]

    return _run("graphsd", device, edges, intervals, build, tracer=tracer)


def preprocess_lumos(
    edges: EdgeList,
    device: Device,
    P: int = 8,
    prefix: str = "lumos",
    intervals: Optional[VertexIntervals] = None,
    machine: MachineProfile = DEFAULT_MACHINE,
    tracer: TracerLike = NULL_TRACER,
) -> PreprocessResult:
    """Lumos pipeline: one unsorted, unindexed grid copy."""
    intervals = _resolve_intervals(edges, P, intervals)

    def build() -> List[GridStore]:
        _charge_raw_read(device, edges)
        _charge_partition(device, machine, edges)
        return [
            GridStore.build(
                edges, intervals, device, prefix=prefix, indexed=False,
                sort_within_blocks=False,
            )
        ]

    return _run("lumos", device, edges, intervals, build, tracer=tracer)


def preprocess_husgraph(
    edges: EdgeList,
    device: Device,
    P: int = 8,
    prefix: str = "husgraph",
    intervals: Optional[VertexIntervals] = None,
    machine: MachineProfile = DEFAULT_MACHINE,
    tracer: TracerLike = NULL_TRACER,
) -> PreprocessResult:
    """HUS-Graph pipeline: two sorted copies (source- and destination-organized).

    The engine consumes the first (source-organized, indexed) copy; the
    second copy exists because HUS-Graph's hybrid row/column update
    strategy needs both orientations, and its build cost is what makes
    HUS-Graph the slowest preprocessor in Fig. 8.
    """
    intervals = _resolve_intervals(edges, P, intervals)

    def build() -> List[GridStore]:
        _charge_raw_read(device, edges)
        _charge_partition(device, machine, edges)
        _charge_sort(device, machine, edges)
        primary = GridStore.build(edges, intervals, device, prefix=f"{prefix}_out", indexed=True)
        _charge_sort(device, machine, edges)
        reverse_intervals = make_intervals(edges.reversed(), intervals.P)
        secondary = GridStore.build(
            edges.reversed(), reverse_intervals, device, prefix=f"{prefix}_in", indexed=True
        )
        return [primary, secondary]

    return _run("husgraph", device, edges, intervals, build, tracer=tracer)
