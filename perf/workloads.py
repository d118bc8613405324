"""The seven workloads: seeded fixtures, the timed operation, verification.

Each workload times one operation of the program (an engine run, a grid
build, a CLI invocation) on inputs generated here from ``--seed``; the
program only ever receives the generated :class:`EdgeList` (or, for the
CLI, a dataset name). Why each exists is recorded next to it — that
text is what ``BENCHMARK.json`` and ``perf/README.md`` quote.

For the five engine workloads the grid is built by a separate child
process (``perf.child setup``) and handed over on disk together with the
out-degrees, so the process that takes the timed samples opens it with
``GridStore.open`` and never holds the edge list: its peak RSS is the
engine's out-of-core footprint.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.algorithms import make_program
from repro.algorithms.base import GraphContext
from repro.baselines.bsp_reference import BSPReference
from repro.cluster import ETH10_PROFILE, ClusterConfig, ClusterEngine
from repro.core import AsyncGraphSDEngine, GraphSDEngine
from repro.datasets.rmat import SOCIAL, WEB, rmat_edges
from repro.graph.edgelist import EdgeList
from repro.graph.grid import GridStore
from repro.graph.preprocess import preprocess_graphsd
from repro.obs import NULL_TRACER, Tracer
from repro.storage.blockfile import Device

from perf.trace import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

P = 8
EDGE_FACTOR = 16
CHAIN_SEGMENT = 48
PREFIX = "graphsd"
#: R-MAT scale of the fixtures. 17 (131 072 V, ~2.1–3.2 M E) is the
#: largest at which every run — three set-ups, warm-ups, the timed
#: window and oracle verification — fits the per-run time the driver
#: allows; --smoke uses 12.
FULL_SCALE = 17
SMOKE_SCALE = 12
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "engine" | "async" | "cluster" | "build" | "cli"
    graph: str = "social"  # "social" | "web_chain"
    weighted: bool = False
    symmetrize: bool = False
    encoding: str = "raw"
    algorithm: str = "pagerank"
    params: Mapping[str, Any] = field(default_factory=dict)
    scale: int = FULL_SCALE

    def program(self) -> Any:
        return make_program(self.algorithm, **self.params)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pr_stream",
            "All-active PageRank streams every block: gather/combine kernels dominate, "
            "sequential read+decode is second, scheduler and selective path are idle.",
            kind="engine",
            params={"iterations": 5},
        ),
        Workload(
            "sssp_selective",
            "SSSP on a tendril graph: ~50 tiny-frontier SCIU rounds, so selective index reads, "
            "read_gather, scheduler and per-round bookkeeping dominate; kernels are minor.",
            kind="engine",
            graph="web_chain",
            weighted=True,
            algorithm="sssp",
            params={"source": 0},
        ),
        Workload(
            "cc_compact3",
            "CC on the symmetrized tendril graph in compact3: compact decode, MIN combine "
            "and both I/O models in one run; catches raw/ADD-path gains that cost this path.",
            kind="engine",
            graph="web_chain",
            symmetrize=True,
            encoding="compact3",
            algorithm="cc",
        ),
        Workload(
            "grid_build",
            "preprocess_graphsd raw then compact3: the write side of graph.grid/storage; "
            "GridStore.build is the hottest single function end to end.",
            kind="build",
            # Two builds per sample: one scale down keeps ~6 samples in the window.
            scale=FULL_SCALE - 1,
        ),
        Workload(
            "cli_cold",
            "One `python -m repro run` process: the only workload where import cost and "
            "small-scale fixed overheads show and the engine is under a tenth of the time.",
            kind="cli",
        ),
        Workload(
            "sssp_async",
            "AsyncGraphSDEngine on the sssp_selective grid: the third engine loop, which the "
            "one-execution-core refactor rewrites and must not slow.",
            kind="async",
            graph="web_chain",
            weighted=True,
            algorithm="sssp",
            params={"source": 0},
        ),
        Workload(
            "pr_cluster4",
            "4-worker ClusterEngine PageRank on the pr_stream graph: compute/broadcast/absorb/"
            "checkpoint loop, so cluster overhead over one worker is a direct subtraction.",
            kind="cluster",
            params={"iterations": 5},
        ),
    )
}

CLI_ARGS = ["run", "--dataset", "twitter2010", "--algorithm", "pr"]
CLI_ITERATIONS = 5
CLI_EXPECT = f"{CLI_ITERATIONS} iters"  # in the summary line of a correct run


# -- fixtures ---------------------------------------------------------------


def make_edges(w: Workload, seed: int, scale: int) -> EdgeList:
    """The workload's input graph; the same seed gives the same graph."""
    if w.graph == "social":
        return rmat_edges(scale, EDGE_FACTOR, SOCIAL, seed=seed)
    base = rmat_edges(scale, EDGE_FACTOR, WEB, seed=seed + 1)
    n = base.num_vertices
    # Tendrils: v -> v+1 chains broken every CHAIN_SEGMENT ids give
    # CC/SSSP a long tail of tiny-frontier iterations (plain R-MAT
    # converges in ~5).
    chain = np.arange(n - 1, dtype=np.int64)
    chain = chain[(chain + 1) % CHAIN_SEGMENT != 0]
    src = np.concatenate([base.src.astype(np.int64), chain])
    dst = np.concatenate([base.dst.astype(np.int64), chain + 1])
    weights = None
    if w.symmetrize:
        # Both directions, duplicates dropped (sort + neighbour compare:
        # np.unique is ~50x slower on these keys).
        keys = np.concatenate([src * n + dst, dst * n + src])
        keys.sort()
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        src, dst = keys // n, keys % n
    if w.weighted:
        rng = np.random.default_rng(seed + 2)
        weights = rng.uniform(0.05, 1.0, src.shape[0]).astype(np.float32)
    return EdgeList(n, src, dst, weights)


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment of every process the benchmark spawns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(tmp)  # keeps the CLI's scratch workspace inside the checkout
    return env


def run_child(argv: List[str], tmp: Path) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(tmp),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def build_inputs(
    w: Workload, seed: int, scale: int, out: Path, rec: Recorder
) -> Dict[str, float]:
    """Child side of the hand-over: generate, build the grid, save degrees.

    Returns the facts of the inputs the measuring side needs."""
    with rec.span("datasets.generate"):
        edges = make_edges(w, seed, scale)
    device = Device(out / "grid")
    pre = preprocess_graphsd(edges, device, P=P, prefix=PREFIX, encoding=w.encoding)
    np.save(out / "degrees.npy", pre.out_degrees)
    return {
        "num_vertices": edges.num_vertices,
        "num_edges": edges.num_edges,
        "build_edges": edges.num_edges,
        "build_bytes_written": device.disk.stats.bytes_written,
        "grid_bytes_per_edge": device.total_bytes() / edges.num_edges,
    }


# -- the timed operation ------------------------------------------------------


@dataclass
class Outcome:
    """What one sample produced, beside its wall time."""

    ok: bool
    #: Identical across all samples of a workload, or the sample failed;
    #: ``None`` when this sample's output has another form than the rest.
    digest: Optional[str]
    #: ``RunResult.to_dict()`` for engine runs, else ``{}``.
    result: Dict[str, Any] = field(default_factory=dict)
    #: Result values, compared with the BSP oracle after the samples.
    values: Optional[np.ndarray] = None
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Timed:
    """One sample: the ``perf_counter`` window of the operation alone.

    ``finish`` does the untimed rest (digests, validation, clean-up); a
    traced sample calls it only after the wrappers are removed, so
    verification work never shows up as layer time.
    """

    start: float
    end: float
    finish: Callable[[], Outcome]

    @property
    def wall(self) -> float:
        return self.end - self.start


#: ``sample(obs_tracer=False) -> Timed``; with ``obs_tracer`` the
#: program's own ``repro.obs`` tracing is on.
SampleFn = Callable[..., Timed]


@dataclass
class Prepared:
    sample: SampleFn
    #: Static facts of the inputs (edge counts, build bytes).
    info: Dict[str, float]
    #: Spans/counts recorded while setting up (``perf.child`` payload).
    setup_trace: Dict[str, Any] = field(default_factory=dict)
    #: The same program on one plain GraphSDEngine (cluster workload
    #: only): the base of ``cluster.overhead_vs_single``.
    baseline: Optional[SampleFn] = None
    #: Runs one sample under the entry-point wrappers in a child and
    #: returns ``(timed, perf.child payload)``; set when the operation is
    #: itself a subprocess and cannot be wrapped in this one.
    traced_child: Optional[Callable[[], "tuple[Timed, Dict[str, Any]]"]] = None
    #: Extra subprocess measurements of a traced run (``cli.*``).
    probes: Optional[Callable[[int], Dict[str, float]]] = None


def _engine_sample(engine: Any, w: Workload) -> SampleFn:
    def sample(obs_tracer: bool = False) -> Timed:
        engine.attach_tracer(Tracer() if obs_tracer else NULL_TRACER)
        start = perf_counter()
        result = engine.run(w.program())
        end = perf_counter()
        engine.attach_tracer(NULL_TRACER)
        return Timed(start, end, lambda: _run_outcome(result, engine))

    return sample


def _run_outcome(result: Any, engine: Any) -> Outcome:
    extra = {}
    if isinstance(engine, AsyncGraphSDEngine):
        extra["pop_decisions"] = float(len(engine.priority_decisions))
    return Outcome(
        ok=True,
        digest=result.values_sha256(),
        result=result.to_dict(),
        values=result.values,
        extra=extra,
    )


def prepare(w: Workload, seed: int, scale: int, work: Path, trace: bool) -> Prepared:
    """Set the workload up in ``work`` and return its timed operation.

    Everything this does is what ``setup_s`` measures.
    """
    work.mkdir(parents=True)
    if w.kind == "cli":
        return _prepare_cli(work)
    if w.kind == "build":
        return _prepare_build(w, seed, scale, work)

    argv = ["-m", "perf.child", "setup", w.name, str(seed), str(scale), str(work)]
    if trace:
        argv.append("--trace")
    done = run_child(argv, work)
    if done.returncode != 0:
        raise RuntimeError(f"setup child failed ({done.returncode}):\n{done.stderr}")
    setup_trace = json.loads((work / "setup.json").read_text())
    info = setup_trace.pop("info")
    device = Device(work / "grid")
    store = GridStore.open(device, prefix=PREFIX)
    ctx = GraphContext(
        num_vertices=info["num_vertices"],
        num_edges=info["num_edges"],
        out_degrees=np.load(work / "degrees.npy"),
    )
    engine_cls = AsyncGraphSDEngine if w.kind == "async" else GraphSDEngine
    single = _engine_sample(engine_cls(store, ctx=ctx), w)
    if w.kind != "cluster":
        return Prepared(single, info, setup_trace)

    config = ClusterConfig(workers=4, interconnect=ETH10_PROFILE)
    counter = itertools.count()

    def sample(obs_tracer: bool = False) -> Timed:
        scratch = work / f"cluster-{next(counter)}"  # worker state is per-run
        engine = ClusterEngine(device.root, PREFIX, scratch, config, ctx=ctx)
        if obs_tracer:
            engine.attach_tracer(Tracer())
        start = perf_counter()
        result = engine.run(w.program())
        end = perf_counter()

        def finish() -> Outcome:
            shutil.rmtree(scratch, ignore_errors=True)
            return _run_outcome(result, engine)

        return Timed(start, end, finish)

    return Prepared(sample, info, setup_trace, baseline=single)


def _digest_files(roots: List[Path]) -> str:
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _prepare_build(w: Workload, seed: int, scale: int, work: Path) -> Prepared:
    rec = Recorder()
    with rec.span("datasets.generate"):
        edges = make_edges(w, seed, scale)
    counter = itertools.count()

    def sample(obs_tracer: bool = False) -> Timed:
        k = next(counter)
        roots = [work / f"raw-{k}", work / f"compact3-{k}"]
        devices = [Device(root) for root in roots]
        tracer = Tracer() if obs_tracer else NULL_TRACER
        start = perf_counter()
        results = [
            preprocess_graphsd(edges, dev, P=P, prefix=PREFIX, encoding=enc, tracer=tracer)
            for dev, enc in zip(devices, ("raw", "compact3"))
        ]
        end = perf_counter()

        def finish() -> Outcome:
            written = sum(dev.disk.stats.bytes_written for dev in devices)
            extra = {
                "build_edges": 2.0 * edges.num_edges,
                "build_bytes_written": float(written),
                "bytes_written": float(written),
                "bytes_read": float(sum(dev.disk.stats.bytes_read for dev in devices)),
                "grid_bytes_per_edge": sum(dev.total_bytes() for dev in devices) / edges.num_edges,
                "sim_s": sum(pre.sim_seconds for pre in results),
                "io_bytes": float(written),
            }
            ok = True
            for dev, pre in zip(devices, results):
                try:
                    pre.store.validate()
                except ValueError:  # a corrupt representation
                    ok = False
                ok = ok and GridStore.open(dev, prefix=PREFIX).total_edges == edges.num_edges
            outcome = Outcome(ok=ok, digest=_digest_files(roots), extra=extra)
            for root in roots:
                shutil.rmtree(root)
            return outcome

        return Timed(start, end, finish)

    info = {"num_vertices": edges.num_vertices, "num_edges": edges.num_edges}
    return Prepared(sample, info, rec.payload())


def _cli_outcome(done: "subprocess.CompletedProcess[str]") -> Outcome:
    summary = [line for line in done.stdout.splitlines() if CLI_EXPECT in line]
    ok = done.returncode == 0 and len(summary) == 1
    return Outcome(ok=ok, digest=hashlib.sha256("".join(summary).encode()).hexdigest())


def _prepare_cli(work: Path) -> Prepared:
    counter = itertools.count()

    def sample(obs_tracer: bool = False) -> Timed:
        argv = ["-m", "repro", *CLI_ARGS]
        if obs_tracer:
            argv += ["--trace", str(work / f"obs-{next(counter)}.jsonl")]
        start = perf_counter()
        done = run_child(argv, work)
        end = perf_counter()
        return Timed(start, end, lambda: _cli_outcome(done))

    def stats_json(argv: List[str]) -> Timed:
        """``ARGV... run ... --stats json``: the RunResult document on stdout."""
        start = perf_counter()
        done = run_child([*argv, *CLI_ARGS, "--stats", "json"], work)
        end = perf_counter()
        result = json.loads(done.stdout) if done.returncode == 0 else {}
        edges = float(result.get("num_edges", 0))
        outcome = Outcome(
            ok=result.get("iterations") == CLI_ITERATIONS,
            digest=None,  # a JSON document, not the summary line
            result=result,
            extra={"num_edges": edges, "build_edges": edges},
        )
        return Timed(start, end, lambda: outcome)

    def traced_child() -> "tuple[Timed, Dict[str, Any]]":
        out = work / f"cli-trace-{next(counter)}.json"
        timed = stats_json(["-m", "perf.child", "cli", str(out), "--"])
        return timed, json.loads(out.read_text())

    def probes(reps: int) -> Dict[str, float]:
        def wall(code: str) -> "tuple[float, str]":
            start = perf_counter()
            done = run_child(["-c", code], work)
            return perf_counter() - start, done.stdout

        bare = sorted(wall("pass")[0] for _ in range(reps))
        count_repro = (
            "import repro.cli, sys; "
            "print(sum(m == 'repro' or m.startswith('repro.') for m in sys.modules))"
        )
        imports = sorted(wall(count_repro) for _ in range(reps))
        reported = stats_json(["-m", "repro"]).finish().result
        return {
            "cli_import_s": imports[reps // 2][0] - bare[reps // 2],
            "cli_import_modules": float(imports[0][1]),
            "cli_engine_reported_s": float(reported.get("wall_seconds", 0.0)),
        }

    # A CLI run needs no inputs prepared; what precedes the first timed
    # sample is the cache-filling first invocation, so that is its set-up.
    if not sample().finish().ok:
        raise RuntimeError("warm-up CLI invocation failed")
    info = {"num_vertices": 0, "num_edges": 0}
    return Prepared(sample, info, traced_child=traced_child, probes=probes)


# -- verification -----------------------------------------------------------------


def oracle_agrees(w: Workload, seed: int, scale: int, values: np.ndarray) -> bool:
    """``values`` match the in-memory BSP oracle on the same edges."""
    edges = make_edges(w, seed, scale)
    expected = BSPReference(edges).run(w.program()).values
    return bool(np.allclose(expected, values, equal_nan=True))
