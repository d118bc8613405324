"""The selective disk-op stream, pinned: what every on-demand read charges.

On-demand rounds, async pops and the async diagonal chase read their
blocks' index entries and active edges through one batched data pass
(``GridStore.read_selective``) and replay each block's accounting —
bounds check, fault poll, CRC verification, page-cache filter, seq/ran
charges — from the block's own plan thunk. These goldens were recorded
at 45d4279, where every thunk still did its own index read and
``read_gather``; the batch may only change wall time, so every exact
figure of every run below must still be the recorded one:
every ``IOStats`` counter, the simulated components, the values hash
and the fault events — under transient faults that are absorbed or
exhaust their retries, bit rot behind CRC sidecars, and a simulated
page cache. The digests were re-derived once when ``IOStats`` lost its
three prefetch counters: each is the digest of the same document,
recorded at 45d4279 and matched there, with those fields dropped.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import ConnectedComponents, PageRankDelta, SSSP
from repro.core import AsyncGraphSDEngine, GraphSDConfig, GraphSDEngine
from repro.core.scheduler import INDEX_GATHER, INDEX_SPAN, StateAwareScheduler
from repro.datasets.rmat import WEB, rmat_edges
from repro.graph import EdgeList, GridStore, make_intervals
from repro.storage import Device, HDD_PROFILE, PageCache, SimulatedDisk
from repro.storage.blockfile import MAX_IO_RETRIES
from repro.storage.faults import ChecksumError, FaultInjector, FaultPlan, FaultSpec

PREFIX = "g"
SYSTEMS = {
    "graphsd": GraphSDConfig,  # the §4.1 scheduler picks per round
    "graphsd-b4": GraphSDConfig.baseline_b4,  # on-demand every round
    "async": GraphSDConfig,  # AsyncGraphSDEngine: pops + diagonal chase
}
PROGRAMS = {
    "sssp": lambda: SSSP(source=0),
    "cc": ConnectedComponents,
    "pr-d": PageRankDelta,
}


def _edges(weighted: bool, scale: int) -> EdgeList:
    """Web R-MAT plus ``v -> v+1`` chains broken every 32 ids: wide early
    frontiers (full-row spans), chain waves (spans) and a tail of a few
    scattered vertices (entry gathers)."""
    base = rmat_edges(scale, 8, WEB, seed=3)
    n = base.num_vertices
    chain = np.arange(n - 1, dtype=np.int64)
    chain = chain[(chain + 1) % 32 != 0]
    src = np.concatenate([base.src.astype(np.int64), chain])
    dst = np.concatenate([base.dst.astype(np.int64), chain + 1])
    weights = None
    if weighted:
        weights = np.random.default_rng(4).uniform(0.05, 1.0, src.size).astype(np.float32)
    return EdgeList(n, src, dst, weights)


def _store(tmp_path, encoding: str, weighted: bool, scale: int = 9, **device_kw) -> GridStore:
    """A fresh grid on a fresh simulated disk (stats, clock and peaks
    start at zero for every run)."""
    edges = _edges(weighted, scale)
    device = Device(tmp_path / "dev", SimulatedDisk(HDD_PROFILE), **device_kw)
    return GridStore.build(
        edges, make_intervals(edges, 4), device, prefix=PREFIX, encoding=encoding
    )


def _engine(system: str, store: GridStore, lanes: int = 1, pipeline: bool = False):
    config = replace(SYSTEMS[system](), gather_lanes=lanes, pipelined=pipeline)
    cls = AsyncGraphSDEngine if system == "async" else GraphSDEngine
    return cls(store, config=config)


def _exact(result) -> dict:
    return {
        "io": result.io.to_dict(),
        "sim": dict(result.breakdown.components),
        "values_sha256": result.values_sha256(),
        "fault_events": list(result.fault_events),
    }


def _digest(doc: object) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# -- the configuration grid ----------------------------------------------------

GRID = [
    (system, encoding, algo, lanes, pipeline)
    for system in ("graphsd", "graphsd-b4")
    for encoding in ("raw", "compact", "compact3")
    for algo in ("sssp", "cc", "pr-d")
    for lanes in (1, 4)
    for pipeline in (False, True)
] + [
    ("async", encoding, algo, lanes, pipeline)
    for encoding in ("raw", "compact3")
    for algo in ("sssp", "cc")
    for lanes in (1, 4)
    for pipeline in (False, True)
]


def _grid_key(system, encoding, algo, lanes, pipeline) -> str:
    return f"{system}/{encoding}/{algo}/K{lanes}/{'pipelined' if pipeline else 'serial'}"


def run_grid_case(tmp_path, system, encoding, algo, lanes, pipeline) -> dict:
    store = _store(tmp_path, encoding, weighted=algo == "sssp")
    return _exact(_engine(system, store, lanes, pipeline).run(PROGRAMS[algo]()))


#: ``_grid_key(...) -> _digest(_exact(run))``, recorded at 45d4279.
GRID_GOLDEN = {
    "async/compact3/cc/K1/pipelined": "d0c64cad98a9a2ce",
    "async/compact3/cc/K1/serial": "d0c64cad98a9a2ce",
    "async/compact3/cc/K4/pipelined": "f05e026487013dcd",
    "async/compact3/cc/K4/serial": "f05e026487013dcd",
    "async/compact3/sssp/K1/pipelined": "34775ca5dbcb125e",
    "async/compact3/sssp/K1/serial": "34775ca5dbcb125e",
    "async/compact3/sssp/K4/pipelined": "d29c728c936cde12",
    "async/compact3/sssp/K4/serial": "d29c728c936cde12",
    "async/raw/cc/K1/pipelined": "a0f3852985ad2131",
    "async/raw/cc/K1/serial": "a0f3852985ad2131",
    "async/raw/cc/K4/pipelined": "c10218a066a1b682",
    "async/raw/cc/K4/serial": "c10218a066a1b682",
    "async/raw/sssp/K1/pipelined": "716f86d9575397af",
    "async/raw/sssp/K1/serial": "716f86d9575397af",
    "async/raw/sssp/K4/pipelined": "89c2cf936a474a92",
    "async/raw/sssp/K4/serial": "89c2cf936a474a92",
    "graphsd-b4/compact/cc/K1/pipelined": "7e0d8a4738b7d36e",
    "graphsd-b4/compact/cc/K1/serial": "7e0d8a4738b7d36e",
    "graphsd-b4/compact/cc/K4/pipelined": "0fd0cbaee7e42813",
    "graphsd-b4/compact/cc/K4/serial": "0fd0cbaee7e42813",
    "graphsd-b4/compact/pr-d/K1/pipelined": "900ad603115c7393",
    "graphsd-b4/compact/pr-d/K1/serial": "900ad603115c7393",
    "graphsd-b4/compact/pr-d/K4/pipelined": "f60ee31487d9f9a1",
    "graphsd-b4/compact/pr-d/K4/serial": "f60ee31487d9f9a1",
    "graphsd-b4/compact/sssp/K1/pipelined": "2afa4d03d1ca74be",
    "graphsd-b4/compact/sssp/K1/serial": "2afa4d03d1ca74be",
    "graphsd-b4/compact/sssp/K4/pipelined": "a99d2006ed81a1cb",
    "graphsd-b4/compact/sssp/K4/serial": "a99d2006ed81a1cb",
    "graphsd-b4/compact3/cc/K1/pipelined": "dde8d0849d8c902f",
    "graphsd-b4/compact3/cc/K1/serial": "dde8d0849d8c902f",
    "graphsd-b4/compact3/cc/K4/pipelined": "3f0d57599ed4bd15",
    "graphsd-b4/compact3/cc/K4/serial": "3f0d57599ed4bd15",
    "graphsd-b4/compact3/pr-d/K1/pipelined": "da9a4f4acd9a365a",
    "graphsd-b4/compact3/pr-d/K1/serial": "da9a4f4acd9a365a",
    "graphsd-b4/compact3/pr-d/K4/pipelined": "fd795ef9f5294567",
    "graphsd-b4/compact3/pr-d/K4/serial": "fd795ef9f5294567",
    "graphsd-b4/compact3/sssp/K1/pipelined": "8ab78aabf0fe44c3",
    "graphsd-b4/compact3/sssp/K1/serial": "8ab78aabf0fe44c3",
    "graphsd-b4/compact3/sssp/K4/pipelined": "d3761838359402c0",
    "graphsd-b4/compact3/sssp/K4/serial": "d3761838359402c0",
    "graphsd-b4/raw/cc/K1/pipelined": "68fd2add8548ecf3",
    "graphsd-b4/raw/cc/K1/serial": "68fd2add8548ecf3",
    "graphsd-b4/raw/cc/K4/pipelined": "3576c422a081f731",
    "graphsd-b4/raw/cc/K4/serial": "3576c422a081f731",
    "graphsd-b4/raw/pr-d/K1/pipelined": "daf726b016f108a3",
    "graphsd-b4/raw/pr-d/K1/serial": "daf726b016f108a3",
    "graphsd-b4/raw/pr-d/K4/pipelined": "12369d3ace5866e8",
    "graphsd-b4/raw/pr-d/K4/serial": "12369d3ace5866e8",
    "graphsd-b4/raw/sssp/K1/pipelined": "1af6ee81311d271a",
    "graphsd-b4/raw/sssp/K1/serial": "1af6ee81311d271a",
    "graphsd-b4/raw/sssp/K4/pipelined": "5746749c7bd38ed7",
    "graphsd-b4/raw/sssp/K4/serial": "5746749c7bd38ed7",
    "graphsd/compact/cc/K1/pipelined": "114bb17b33310286",
    "graphsd/compact/cc/K1/serial": "114bb17b33310286",
    "graphsd/compact/cc/K4/pipelined": "424a4da2b0b3be21",
    "graphsd/compact/cc/K4/serial": "424a4da2b0b3be21",
    "graphsd/compact/pr-d/K1/pipelined": "2ac298873e0b9e5e",
    "graphsd/compact/pr-d/K1/serial": "2ac298873e0b9e5e",
    "graphsd/compact/pr-d/K4/pipelined": "f23d31c3f0c70cd1",
    "graphsd/compact/pr-d/K4/serial": "f23d31c3f0c70cd1",
    "graphsd/compact/sssp/K1/pipelined": "7707347e61c123a8",
    "graphsd/compact/sssp/K1/serial": "7707347e61c123a8",
    "graphsd/compact/sssp/K4/pipelined": "b6d685906f19a4c4",
    "graphsd/compact/sssp/K4/serial": "b6d685906f19a4c4",
    "graphsd/compact3/cc/K1/pipelined": "efcbdcb6e7840e4d",
    "graphsd/compact3/cc/K1/serial": "efcbdcb6e7840e4d",
    "graphsd/compact3/cc/K4/pipelined": "8b3cb7d0cb988052",
    "graphsd/compact3/cc/K4/serial": "8b3cb7d0cb988052",
    "graphsd/compact3/pr-d/K1/pipelined": "e47c907deca028d0",
    "graphsd/compact3/pr-d/K1/serial": "e47c907deca028d0",
    "graphsd/compact3/pr-d/K4/pipelined": "51f31d48acca6464",
    "graphsd/compact3/pr-d/K4/serial": "51f31d48acca6464",
    "graphsd/compact3/sssp/K1/pipelined": "a802210d0eceb0f2",
    "graphsd/compact3/sssp/K1/serial": "e86ac450c993d564",
    "graphsd/compact3/sssp/K4/pipelined": "b9fabdba1d063a28",
    "graphsd/compact3/sssp/K4/serial": "b9fabdba1d063a28",
    "graphsd/raw/cc/K1/pipelined": "fba6a3a1e7521506",
    "graphsd/raw/cc/K1/serial": "fba6a3a1e7521506",
    "graphsd/raw/cc/K4/pipelined": "18aa5b95401ef1ab",
    "graphsd/raw/cc/K4/serial": "18aa5b95401ef1ab",
    "graphsd/raw/pr-d/K1/pipelined": "d307b72b41982250",
    "graphsd/raw/pr-d/K1/serial": "d307b72b41982250",
    "graphsd/raw/pr-d/K4/pipelined": "cc9bbc356ba49f23",
    "graphsd/raw/pr-d/K4/serial": "cc9bbc356ba49f23",
    "graphsd/raw/sssp/K1/pipelined": "2ffad5d9596b296e",
    "graphsd/raw/sssp/K1/serial": "2ffad5d9596b296e",
    "graphsd/raw/sssp/K4/pipelined": "0f071f6dee12152f",
    "graphsd/raw/sssp/K4/serial": "0f071f6dee12152f",
}


@pytest.fixture
def index_modes(monkeypatch):
    """The index access modes the scheduler plans, as a growing set."""
    seen = set()
    real = StateAwareScheduler.plan_index_access

    def record(self, frontier):
        plan = real(self, frontier)
        seen.update(int(m) for m in plan.mode[plan.active_per_row > 0])
        return plan

    monkeypatch.setattr(StateAwareScheduler, "plan_index_access", record)
    return seen


@pytest.mark.parametrize("case", GRID, ids=[_grid_key(*case) for case in GRID])
def test_selective_stream_matches_the_golden(tmp_path, case):
    doc = run_grid_case(tmp_path, *case)
    assert _digest(doc) == GRID_GOLDEN[_grid_key(*case)], json.dumps(doc, indent=1)


def test_the_grid_reads_the_index_in_every_mode(tmp_path, index_modes):
    """Index spans and entry gathers both feed the recorded stream."""
    for algo in ("sssp", "cc"):
        run_grid_case(tmp_path / algo, "graphsd-b4", "raw", algo, 1, False)
    assert index_modes == {INDEX_SPAN, INDEX_GATHER}


# -- transient read faults -------------------------------------------------------

#: ``name -> (system, encoding, pattern, at_op, count)``. ``count`` beyond
#: the retry budget exhausts it: an on-demand round then degrades to full
#: streaming, an async pop to gated full loads.
FAULTS = {
    "b4-raw-idx-absorbed": ("graphsd-b4", "raw", "*.idx", 1, 1),
    "b4-raw-idx-absorbed-late": ("graphsd-b4", "raw", "*.idx", 57, MAX_IO_RETRIES),
    "b4-raw-idx-exhausted": ("graphsd-b4", "raw", "*.idx", 30, MAX_IO_RETRIES + 1),
    "b4-raw-edges-absorbed": ("graphsd-b4", "raw", "*.edges", 4, 2),
    "b4-raw-edges-exhausted": ("graphsd-b4", "raw", "*.edges", 41, MAX_IO_RETRIES + 1),
    "b4-compact3-idx-exhausted": ("graphsd-b4", "compact3", "*.idx", 12, MAX_IO_RETRIES + 1),
    "b4-compact3-edges-absorbed": ("graphsd-b4", "compact3", "*.edges", 77, 3),
    "graphsd-compact-edges-exhausted": ("graphsd", "compact", "*.edges", 50, MAX_IO_RETRIES + 1),
    "async-raw-idx-exhausted": ("async", "raw", "*.idx", 5, MAX_IO_RETRIES + 1),
    "async-compact3-edges-exhausted": ("async", "compact3", "*.edges", 23, MAX_IO_RETRIES + 1),
    "async-compact3-idx-absorbed": ("async", "compact3", "*.idx", 7, 2),
}


def run_fault_case(tmp_path, system, encoding, pattern, at_op, count) -> dict:
    store = _store(tmp_path, encoding, weighted=True)
    engine = _engine(system, store)
    injector = FaultInjector(
        FaultPlan(specs=(FaultSpec("transient-read", pattern, at_op=at_op, count=count),))
    )
    store.device.disk.injector = injector  # after construction: ctx is built
    doc = _exact(engine.run(SSSP(source=0)))
    doc["injector_events"] = list(injector.events)
    return doc


#: ``name -> (digest, read retries, degraded)``, recorded at 45d4279.
FAULT_GOLDEN = {
    "async-compact3-edges-exhausted": ("410159e516f80bbf", 4, True),
    "async-compact3-idx-absorbed": ("9a1adbacbbf83a90", 2, False),
    "async-raw-idx-exhausted": ("4a376f7a4c477069", 4, True),
    "b4-compact3-edges-absorbed": ("6a52fad3f1f0662f", 3, False),
    "b4-compact3-idx-exhausted": ("040b14550d4ce540", 4, True),
    "b4-raw-edges-absorbed": ("0214a1f70693b581", 2, False),
    "b4-raw-edges-exhausted": ("3d99aaa0344d1a0b", 4, True),
    "b4-raw-idx-absorbed": ("3c7b5bdfa21326d1", 1, False),
    "b4-raw-idx-absorbed-late": ("a079510405f5312c", 4, False),
    "b4-raw-idx-exhausted": ("fca56195fcd6c78c", 4, True),
    "graphsd-compact-edges-exhausted": ("9a7ac0366fa8a6b6", 4, True),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_faults_replay_exactly(tmp_path, name):
    doc = run_fault_case(tmp_path, *FAULTS[name])
    degraded = any("degraded" in event for event in doc["fault_events"])
    assert (_digest(doc), doc["io"]["read_retries"], degraded) == FAULT_GOLDEN[name], (
        json.dumps(doc, indent=1)
    )


# -- bit rot behind CRC sidecars ----------------------------------------------------

#: ``name -> (system, encoding, file suffix, bit)``, on a scale-11 grid
#: whose files span several 64 KiB CRC chunks: a flip past the first
#: chunk surfaces only when a read first touches its chunk.
BIT_ROT = {
    "b4-raw-idx": ("graphsd-b4", "raw", ".idx", 8 * 65_600 + 3),
    "b4-raw-edges": ("graphsd-b4", "raw", ".edges", 8 * 150_000 + 5),
    "b4-compact-edges": ("graphsd-b4", "compact", ".edges", 8 * 70_000),
    "b4-compact3-idx": ("graphsd-b4", "compact3", ".idx", 8 * 2_000 + 1),
    "graphsd-compact3-edges": ("graphsd", "compact3", ".edges", 8 * 9_000),
    "async-raw-edges": ("async", "raw", ".edges", 8 * 100_000 + 7),
}


def run_bit_rot_case(tmp_path, system, encoding, suffix, bit):
    store = _store(tmp_path, encoding, weighted=True, scale=11, checksums=True)
    engine = _engine(system, store)
    plan = FaultPlan(specs=(FaultSpec("bit-flip", f"*{suffix}", bit=bit),))
    assert FaultInjector(plan).apply_bit_flips(store.device) == [(PREFIX + suffix, bit)]
    try:
        engine.run(SSSP(source=0))
    except ChecksumError:
        return ("ChecksumError", engine._iterations_done, store.device.disk.stats.bytes_read)
    return ("completed", engine._iterations_done, store.device.disk.stats.bytes_read)


#: ``name -> (outcome, iterations done, bytes read)``, recorded at 45d4279.
BIT_ROT_GOLDEN = {
    "async-raw-edges": ("ChecksumError", 0, 248680),
    "b4-compact-edges": ("ChecksumError", 0, 129069),
    "b4-compact3-idx": ("ChecksumError", 0, 123749),
    "b4-raw-edges": ("ChecksumError", 0, 244808),
    "b4-raw-idx": ("ChecksumError", 7, 971472),
    "graphsd-compact3-edges": ("ChecksumError", 0, 123753),
}


@pytest.mark.parametrize("name", sorted(BIT_ROT))
def test_bit_rot_surfaces_at_the_same_read(tmp_path, name):
    assert run_bit_rot_case(tmp_path, *BIT_ROT[name]) == BIT_ROT_GOLDEN[name]


# -- a simulated page cache ---------------------------------------------------------

PAGE_CACHE = [
    (system, encoding)
    for system in ("graphsd", "graphsd-b4", "async")
    for encoding in ("raw", "compact3")
]


def run_page_cache_case(tmp_path, system, encoding) -> dict:
    cache = PageCache(48 * 1024)
    store = _store(tmp_path, encoding, weighted=True, page_cache=cache)
    doc = _exact(_engine(system, store).run(SSSP(source=0)))
    doc["page_cache"] = vars(cache.stats)
    return doc


#: ``"system/encoding" -> digest``, recorded at 45d4279.
PAGE_CACHE_GOLDEN = {
    "async/compact3": "6ac9ea26cb5ee8d3",
    "async/raw": "8f14bdf53a5f297d",
    "graphsd-b4/compact3": "079d8906174cccbd",
    "graphsd-b4/raw": "a9f3b9a1f927c935",
    "graphsd/compact3": "ad8447f5ba401cff",
    "graphsd/raw": "b07c24f97774e5ab",
}


@pytest.mark.parametrize("case", PAGE_CACHE, ids=["/".join(c) for c in PAGE_CACHE])
def test_page_cache_filters_the_same_reads(tmp_path, case):
    doc = run_page_cache_case(tmp_path, *case)
    assert _digest(doc) == PAGE_CACHE_GOLDEN["/".join(case)], json.dumps(doc, indent=1)
