"""Experiment harness: systems × algorithms × datasets, with caching.

Joins the pieces: dataset proxies, per-system preprocessing pipelines,
engines, and metric collection. Preprocessed representations are cached
per (dataset variant, representation) so a 3-system × 4-algorithm sweep
preprocesses each graph once per representation, exactly like reusing
on-disk preprocessed data across runs (which the paper calls out as the
amortization argument in §5.3).
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.algorithms import make_program
from repro.algorithms.base import GraphContext, VertexProgram
from repro.baselines import (
    BSPReference,
    GraphChiEngine,
    GridGraphEngine,
    HUSGraphEngine,
    LumosEngine,
    XStreamEngine,
)
from repro.core import AsyncGraphSDEngine, GraphSDConfig, GraphSDEngine, RunResult
from repro.core.engine_base import EngineBase
from repro.datasets import load_dataset
from repro.graph import (
    EdgeList,
    GridStore,
    PreprocessResult,
    preprocess_graphsd,
    preprocess_husgraph,
    preprocess_lumos,
)
from repro.graph.grid import ENCODINGS, ENCODING_RAW
from repro.storage import (
    DEFAULT_MACHINE,
    Device,
    FaultPlan,
    MachineProfile,
    SimulatedDisk,
)
from repro.utils.validation import require

if TYPE_CHECKING:  # the cluster is imported lazily by run_cluster
    from repro.cluster import ClusterEngine


@dataclass(frozen=True)
class Workload:
    """One of the paper's evaluation workloads (§5.1)."""

    key: str
    algorithm: str
    params: Dict[str, object] = field(default_factory=dict)
    weighted: bool = False
    symmetrize: bool = False

    def make_program(self) -> VertexProgram:
        return make_program(self.algorithm, **self.params)


#: The paper's four workloads: PR runs 5 iterations, PR-D 20; CC and SSSP
#: run to convergence. CC uses the symmetrized (undirected) view; SSSP
#: needs weights.
WORKLOADS: Dict[str, Workload] = {
    "pr": Workload("pr", "pagerank", {"iterations": 5}),
    "pr-d": Workload("pr-d", "pagerank_delta", {"iterations": 20}),
    "cc": Workload("cc", "cc", symmetrize=True),
    "sssp": Workload("sssp", "sssp", {"source": 0}, weighted=True),
    "bfs": Workload("bfs", "bfs", {"root": 0}),
    "sswp": Workload("sswp", "sswp", {"source": 0}, weighted=True),
    "ppr": Workload("ppr", "ppr", {"seeds": [0]}),
}


@dataclass(frozen=True)
class SystemSpec:
    """A system under test: its representation + engine factory."""

    name: str
    representation: str  # cache key: which preprocessing pipeline
    make_engine: Callable[..., EngineBase]


def _graphsd_engine(
    config: Optional[GraphSDConfig] = None,
    label: Optional[str] = None,
    engine_cls: type = GraphSDEngine,
):
    def make(
        store: GridStore,
        machine: MachineProfile,
        ctx: GraphContext,
        prefetch_depth: int = 0,
        gather_lanes: int = 1,
    ) -> EngineBase:
        from dataclasses import replace

        cfg = config if config is not None else GraphSDConfig()
        cfg = replace(cfg, prefetch_depth=prefetch_depth, gather_lanes=gather_lanes)
        return engine_cls(store, machine, config=cfg, ctx=ctx, label=label)

    return make


def _simple_engine(cls):
    def make(
        store: GridStore,
        machine: MachineProfile,
        ctx: GraphContext,
        prefetch_depth: int = 0,
        gather_lanes: int = 1,
    ) -> EngineBase:
        # Baseline engines model strictly serial systems; the pipeline
        # and gather knobs do not apply to them.
        require(prefetch_depth == 0, f"{cls.__name__} does not support --pipeline")
        require(gather_lanes == 1, f"{cls.__name__} does not support --gather-lanes")
        return cls(store, machine, ctx=ctx)

    return make


SYSTEMS: Dict[str, SystemSpec] = {
    "graphsd": SystemSpec("graphsd", "graphsd", _graphsd_engine()),
    "graphsd-async": SystemSpec(
        "graphsd-async",
        "graphsd",
        _graphsd_engine(engine_cls=AsyncGraphSDEngine),
    ),
    "graphsd-b1": SystemSpec(
        "graphsd-b1", "graphsd", _graphsd_engine(GraphSDConfig.baseline_b1(), "graphsd-b1")
    ),
    "graphsd-b3": SystemSpec(
        "graphsd-b3", "graphsd", _graphsd_engine(GraphSDConfig.baseline_b3(), "graphsd-b3")
    ),
    "graphsd-b4": SystemSpec(
        "graphsd-b4", "graphsd", _graphsd_engine(GraphSDConfig.baseline_b4(), "graphsd-b4")
    ),
    "graphsd-nobuffer": SystemSpec(
        "graphsd-nobuffer",
        "graphsd",
        _graphsd_engine(GraphSDConfig.no_buffering(), "graphsd-nobuffer"),
    ),
    "husgraph": SystemSpec("husgraph", "husgraph", _simple_engine(HUSGraphEngine)),
    "lumos": SystemSpec("lumos", "lumos", _simple_engine(LumosEngine)),
    "gridgraph": SystemSpec("gridgraph", "lumos", _simple_engine(GridGraphEngine)),
    "graphchi": SystemSpec("graphchi", "lumos", _simple_engine(GraphChiEngine)),
    "xstream": SystemSpec("xstream", "lumos", _simple_engine(XStreamEngine)),
}

_PREPROCESSORS = {
    "graphsd": preprocess_graphsd,
    "husgraph": preprocess_husgraph,
    "lumos": preprocess_lumos,
}


class Harness:
    """Runs (system, workload, dataset) combinations with representation caching."""

    def __init__(
        self,
        workspace: Optional[str] = None,
        machine: MachineProfile = DEFAULT_MACHINE,
        P: int = 8,
        verify: bool = False,
        checksums: bool = False,
        encoding: str = ENCODING_RAW,
        trace_dir: Optional[str] = None,
    ) -> None:
        if workspace is None:
            self._tmpdir = tempfile.mkdtemp(prefix="graphsd-bench-")
            self.workspace = Path(self._tmpdir)
            self._owns_workspace = True
        else:
            self.workspace = Path(workspace)
            self.workspace.mkdir(parents=True, exist_ok=True)
            self._owns_workspace = False
        require(encoding in ENCODINGS, f"unknown grid encoding {encoding!r}")
        self.machine = machine
        self.P = P
        self.verify = verify
        self.checksums = checksums
        #: Sub-block encoding for the graphsd representation. Baseline
        #: representations (lumos, husgraph) always build raw grids —
        #: the compared systems do not have the compact layout.
        self.encoding = encoding
        #: When set, every *executed* run writes a structured trace
        #: (docs/OBSERVABILITY.md) into this directory, named after its
        #: cell. Memoized cells execute once, so each unique cell yields
        #: exactly one trace file per sweep.
        self.trace_dir: Optional[Path] = Path(trace_dir) if trace_dir else None
        self._stores: Dict[Tuple, Tuple[GridStore, PreprocessResult]] = {}
        self._edges: Dict[Tuple, EdgeList] = {}
        self._reference_cache: Dict[Tuple, np.ndarray] = {}
        self._run_cache: Dict[Tuple, RunResult] = {}
        self._cluster_runs = 0

    # -- inputs --------------------------------------------------------

    def edges_for(self, dataset: str, workload: Workload) -> EdgeList:
        key = (dataset, workload.weighted, workload.symmetrize)
        if key not in self._edges:
            self._edges[key] = load_dataset(
                dataset, weighted=workload.weighted, symmetrize=workload.symmetrize
            )
        return self._edges[key]

    # -- preprocessing (cached) ---------------------------------------------

    def preprocess(
        self, representation: str, dataset: str, workload: Workload
    ) -> Tuple[GridStore, PreprocessResult]:
        require(representation in _PREPROCESSORS, f"unknown representation {representation!r}")
        encoding = self.encoding if representation == "graphsd" else ENCODING_RAW
        key = (
            representation, dataset, workload.weighted, workload.symmetrize,
            self.P, encoding,
        )
        if key not in self._stores:
            edges = self.edges_for(dataset, workload)
            tag = f"{dataset}-{'w' if workload.weighted else 'u'}{'s' if workload.symmetrize else 'd'}"
            device = Device(
                self.workspace / representation / encoding / tag,
                SimulatedDisk(self.machine.disk),
                checksums=self.checksums,
            )
            kwargs = {"encoding": encoding} if representation == "graphsd" else {}
            result = _PREPROCESSORS[representation](
                edges, device, P=self.P, machine=self.machine, **kwargs
            )
            self._stores[key] = (result.store, result)
        return self._stores[key]

    def preprocess_result(self, system: str, dataset: str) -> PreprocessResult:
        """Preprocessing metrics for Fig. 8 (unweighted directed input)."""
        spec = SYSTEMS[system]
        _store, result = self.preprocess(spec.representation, dataset, WORKLOADS["pr"])
        return result

    # -- execution -----------------------------------------------------

    def run(
        self,
        system: str,
        workload_key: str,
        dataset: str,
        use_cache: bool = True,
        prefetch_depth: int = 0,
        gather_lanes: int = 1,
        trace_path: Optional[str] = None,
    ) -> RunResult:
        """Execute one (system, workload, dataset) cell.

        Executions are deterministic (simulated clock, fixed seeds), so
        results are memoized by default; experiments that share cells
        (Table 4 / Fig. 5 / Fig. 6 / Fig. 7 all reuse the same runs, as
        the paper's evaluation does) pay for each cell once.

        ``prefetch_depth`` 0 runs serial and N >= 1 pipelined with N
        loads of lookahead. Cells with different ``prefetch_depth``/
        ``gather_lanes`` settings are cached separately (they produce
        identical values but different modeled times/counters).
        ``graphsd-async`` is the asynchronous priority-driven engine
        (monotonic programs only; see :mod:`repro.core.async_engine`).

        ``trace_path`` (or the harness-level ``trace_dir``) attaches a
        structured tracer to the engine — every engine, baselines
        included, supports it via
        :meth:`~repro.core.engine_base.EngineBase.attach_tracer`.
        Memoized cells do not re-execute, so no trace is written for a
        cache hit.
        """
        workload = WORKLOADS[workload_key]
        key = (system, workload_key, dataset, int(prefetch_depth), int(gather_lanes))
        if use_cache and key in self._run_cache:
            return self._run_cache[key]
        spec = SYSTEMS[system]
        # Preprocessing already produced the degrees; reuse its context
        # so no engine pays a second full-graph scan (charged or not).
        store, prep = self.preprocess(spec.representation, dataset, workload)
        engine = spec.make_engine(
            store,
            self.machine,
            prep.context,
            prefetch_depth=prefetch_depth,
            gather_lanes=gather_lanes,
        )
        if trace_path is None and self.trace_dir is not None:
            suffix = "-pipelined" if prefetch_depth > 0 else ""
            name = f"{system}-{workload_key}-{dataset}{suffix}.trace.jsonl"
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = str(self.trace_dir / name)
        result = self._execute(engine, workload, dataset, trace_path)
        if use_cache:
            self._run_cache[key] = result
        return result

    def run_cluster(
        self,
        workload_key: str,
        dataset: str,
        workers: int,
        interconnect: str = "eth10",
        fault_plan: Optional[FaultPlan] = None,
        worker_disk_factors: Optional[Dict[int, float]] = None,
        straggler_factor: Optional[float] = 3.0,
        max_iterations: Optional[int] = None,
        trace_path: Optional[str] = None,
    ) -> RunResult:
        """Execute one workload on the simulated N-worker cluster.

        Reuses the cached graphsd grid representation; each invocation
        gets a fresh scratch directory (worker value slices and
        checkpoints are per-run state). Cluster runs are not memoized —
        their point is usually a distinct fault schedule per call.
        """
        from repro.cluster import ClusterConfig, ClusterEngine, INTERCONNECT_PROFILES

        require(
            interconnect in INTERCONNECT_PROFILES,
            f"unknown interconnect profile {interconnect!r} "
            f"(choose from {sorted(INTERCONNECT_PROFILES)})",
        )
        workload = WORKLOADS[workload_key]
        store, prep = self.preprocess("graphsd", dataset, workload)
        self._cluster_runs += 1
        scratch = (
            self.workspace
            / "cluster"
            / f"{workload_key}-{dataset}-n{workers}-{self._cluster_runs}"
        )
        config = ClusterConfig(
            workers=workers,
            interconnect=INTERCONNECT_PROFILES[interconnect],
            machine=self.machine,
            worker_disk_factors=dict(worker_disk_factors or {}),
            fault_plan=fault_plan,
            straggler_factor=straggler_factor,
        )
        engine = ClusterEngine(
            store.device.root, store.prefix, scratch, config, ctx=prep.context
        )
        return self._execute(engine, workload, dataset, trace_path, max_iterations)

    def _execute(
        self,
        engine: "Union[EngineBase, ClusterEngine]",
        workload: Workload,
        dataset: str,
        trace_path: Optional[str],
        max_iterations: Optional[int] = None,
    ) -> RunResult:
        """Run ``engine`` (traced to ``trace_path`` when set) and verify it."""
        if trace_path is not None:
            from repro.obs import Tracer

            engine.attach_tracer(Tracer(), path=trace_path)
        result = engine.run(workload.make_program(), max_iterations=max_iterations)
        if self.verify:
            self.check_against_reference(result, workload, dataset)
        return result

    def check_against_reference(
        self, result: RunResult, workload: Workload, dataset: str
    ) -> None:
        """Assert the engine's values match the in-memory BSP oracle."""
        key = (workload.key, dataset)
        if key not in self._reference_cache:
            edges = self.edges_for(dataset, workload)
            ref = BSPReference(edges).run(workload.make_program())
            self._reference_cache[key] = ref.values
        expected = self._reference_cache[key]
        require(
            bool(np.allclose(expected, result.values, equal_nan=True)),
            f"{result.engine} produced wrong {workload.key} values on {dataset}",
        )

    # -- lifecycle -------------------------------------------------------

    def cleanup(self) -> None:
        if self._owns_workspace:
            shutil.rmtree(self.workspace, ignore_errors=True)
        self._stores.clear()

    def __enter__(self) -> "Harness":
        return self

    def __exit__(self, *exc: object) -> None:
        self.cleanup()
