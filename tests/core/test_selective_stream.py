"""The selective disk-op stream, pinned: what every on-demand read charges.

On-demand rounds, async pops and the async diagonal chase read their
blocks' index entries and active edges through one batched data pass
(``GridStore.read_selective``) and replay each block's accounting —
bounds check, fault poll, CRC verification, page-cache filter, seq/ran
charges — from the block's own plan thunk. These goldens were recorded
at 45d4279, where every thunk still did its own index read and
``read_gather``; the batch may only change wall time, so every exact
figure of every run below must still be the recorded one:
``IOStats`` (minus the wall-clock-dependent ``prefetch_hits``), the
simulated components, the values hash and the fault events — under
transient faults that are absorbed or exhaust their retries, bit rot
behind CRC sidecars, and a simulated page cache.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import ConnectedComponents, PageRankDelta, SSSP
from repro.core import AsyncGraphSDEngine, GraphSDConfig, GraphSDEngine
from repro.core.scheduler import (
    INDEX_GATHER,
    INDEX_SCAN,
    INDEX_SPAN,
    StateAwareScheduler,
)
from repro.datasets.rmat import WEB, rmat_edges
from repro.graph import EdgeList, GridStore, make_intervals
from repro.storage import Device, HDD_PROFILE, PageCache, SimulatedDisk
from repro.storage.blockfile import MAX_IO_RETRIES
from repro.storage.faults import ChecksumError, FaultInjector, FaultPlan, FaultSpec
from repro.storage.iostats import WALL_CLOCK_DEPENDENT_FIELDS

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
    frontiers (row scans), chain waves (spans) and a tail of a few
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
    config = replace(
        SYSTEMS[system](), gather_lanes=lanes, pipeline=pipeline, prefetch_depth=2
    )
    cls = AsyncGraphSDEngine if system == "async" else GraphSDEngine
    return cls(store, config=config)


def _exact(result) -> dict:
    io = result.io.to_dict()
    for name in WALL_CLOCK_DEPENDENT_FIELDS:
        io.pop(name)
    return {
        "io": io,
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
    "async/compact3/cc/K1/pipelined": "97e6723dd8f9d093",
    "async/compact3/cc/K1/serial": "5029f065ce569d72",
    "async/compact3/cc/K4/pipelined": "d4868d933503e640",
    "async/compact3/cc/K4/serial": "4c7e35029b24b7e5",
    "async/compact3/sssp/K1/pipelined": "09d9635df9d29694",
    "async/compact3/sssp/K1/serial": "834d5300f15473bc",
    "async/compact3/sssp/K4/pipelined": "10a27ca4bd1901e2",
    "async/compact3/sssp/K4/serial": "c896949513c444bd",
    "async/raw/cc/K1/pipelined": "d5c4c8e9740ff0e0",
    "async/raw/cc/K1/serial": "509186e771dacda3",
    "async/raw/cc/K4/pipelined": "1d126152c7ba267b",
    "async/raw/cc/K4/serial": "90e7962afc7c054d",
    "async/raw/sssp/K1/pipelined": "8aafa68328c5c0e6",
    "async/raw/sssp/K1/serial": "d57519cc919e5c11",
    "async/raw/sssp/K4/pipelined": "3b243fdfe21ffbd2",
    "async/raw/sssp/K4/serial": "8fad05cdef721ab5",
    "graphsd-b4/compact/cc/K1/pipelined": "c7aa07a8040d2baf",
    "graphsd-b4/compact/cc/K1/serial": "97fc98ec82b1c6bb",
    "graphsd-b4/compact/cc/K4/pipelined": "10d9f9d0c3c0e57a",
    "graphsd-b4/compact/cc/K4/serial": "20c8b99e965c8cad",
    "graphsd-b4/compact/pr-d/K1/pipelined": "1fd07618102a2451",
    "graphsd-b4/compact/pr-d/K1/serial": "63e646d152b672f8",
    "graphsd-b4/compact/pr-d/K4/pipelined": "6cbb2a1d33933d6f",
    "graphsd-b4/compact/pr-d/K4/serial": "1a2fbaba6dca3bc0",
    "graphsd-b4/compact/sssp/K1/pipelined": "742129479eb2c9a7",
    "graphsd-b4/compact/sssp/K1/serial": "bf12f0a43fdaa695",
    "graphsd-b4/compact/sssp/K4/pipelined": "8eece2ec17d0f5dc",
    "graphsd-b4/compact/sssp/K4/serial": "403e24217ad66206",
    "graphsd-b4/compact3/cc/K1/pipelined": "a18240ed5ebf1940",
    "graphsd-b4/compact3/cc/K1/serial": "b33f3bceca52ec37",
    "graphsd-b4/compact3/cc/K4/pipelined": "e5ef4d16fd3c41df",
    "graphsd-b4/compact3/cc/K4/serial": "00357458ba015e11",
    "graphsd-b4/compact3/pr-d/K1/pipelined": "e6bb973c64e7f879",
    "graphsd-b4/compact3/pr-d/K1/serial": "5a7d7c1ffbaf200b",
    "graphsd-b4/compact3/pr-d/K4/pipelined": "2727a15e1a5892b0",
    "graphsd-b4/compact3/pr-d/K4/serial": "cc30361ba15b4f33",
    "graphsd-b4/compact3/sssp/K1/pipelined": "b804261b1be519e4",
    "graphsd-b4/compact3/sssp/K1/serial": "8b413584dfe63b3b",
    "graphsd-b4/compact3/sssp/K4/pipelined": "b36e5627e954549f",
    "graphsd-b4/compact3/sssp/K4/serial": "8bc34517e1189159",
    "graphsd-b4/raw/cc/K1/pipelined": "26fe0a996fd33a08",
    "graphsd-b4/raw/cc/K1/serial": "0bebda612767121b",
    "graphsd-b4/raw/cc/K4/pipelined": "a67dccfcee487a57",
    "graphsd-b4/raw/cc/K4/serial": "8eeb74a4d7870449",
    "graphsd-b4/raw/pr-d/K1/pipelined": "36ae5cde2002c0ff",
    "graphsd-b4/raw/pr-d/K1/serial": "29575d6cf347ba72",
    "graphsd-b4/raw/pr-d/K4/pipelined": "fb24671d5042eb18",
    "graphsd-b4/raw/pr-d/K4/serial": "e994b9fdaa9c1ea5",
    "graphsd-b4/raw/sssp/K1/pipelined": "1851ce2f81a4d04a",
    "graphsd-b4/raw/sssp/K1/serial": "c46cd2478546f04e",
    "graphsd-b4/raw/sssp/K4/pipelined": "36368f68f636da3a",
    "graphsd-b4/raw/sssp/K4/serial": "476fbc6cd031f342",
    "graphsd/compact/cc/K1/pipelined": "4bcd9f06eaf510f5",
    "graphsd/compact/cc/K1/serial": "c1da47e7bfcde03e",
    "graphsd/compact/cc/K4/pipelined": "3f0abfc1f8b239d3",
    "graphsd/compact/cc/K4/serial": "7b24da0c1647986d",
    "graphsd/compact/pr-d/K1/pipelined": "7cb571aae1dc3b72",
    "graphsd/compact/pr-d/K1/serial": "77997c97b5308e71",
    "graphsd/compact/pr-d/K4/pipelined": "87fdcf97c015e49a",
    "graphsd/compact/pr-d/K4/serial": "cf8f6d56fef847da",
    "graphsd/compact/sssp/K1/pipelined": "6ab9ee0ea759b752",
    "graphsd/compact/sssp/K1/serial": "a58e124fcbc984f9",
    "graphsd/compact/sssp/K4/pipelined": "193d22a8b18ed0dc",
    "graphsd/compact/sssp/K4/serial": "355635ac588325e6",
    "graphsd/compact3/cc/K1/pipelined": "90773401e5bb7f84",
    "graphsd/compact3/cc/K1/serial": "fb196a849a3f38cb",
    "graphsd/compact3/cc/K4/pipelined": "0b85b24e020ed48a",
    "graphsd/compact3/cc/K4/serial": "b3f6a6b3493a9c7d",
    "graphsd/compact3/pr-d/K1/pipelined": "e6599b1b8b27fbc9",
    "graphsd/compact3/pr-d/K1/serial": "c07a1b965ff7089e",
    "graphsd/compact3/pr-d/K4/pipelined": "81a892b140d31f9c",
    "graphsd/compact3/pr-d/K4/serial": "4fe6511499b6d7a6",
    "graphsd/compact3/sssp/K1/pipelined": "632042203e16f5a6",
    "graphsd/compact3/sssp/K1/serial": "68f9cf5617a924cb",
    "graphsd/compact3/sssp/K4/pipelined": "35423c60afe4f4e5",
    "graphsd/compact3/sssp/K4/serial": "ec7e28cdea5dd554",
    "graphsd/raw/cc/K1/pipelined": "5880aa31299cd03d",
    "graphsd/raw/cc/K1/serial": "c0a3c5755429ab38",
    "graphsd/raw/cc/K4/pipelined": "18eda854c961d072",
    "graphsd/raw/cc/K4/serial": "9ac56646abde8a3d",
    "graphsd/raw/pr-d/K1/pipelined": "6529ec08217d40c4",
    "graphsd/raw/pr-d/K1/serial": "b0025cdb6ef596d9",
    "graphsd/raw/pr-d/K4/pipelined": "5e4479068011e7c9",
    "graphsd/raw/pr-d/K4/serial": "2348005b273c15f5",
    "graphsd/raw/sssp/K1/pipelined": "543e4a2d1c491467",
    "graphsd/raw/sssp/K1/serial": "d50e31f5825fd010",
    "graphsd/raw/sssp/K4/pipelined": "235d02bd7f7df992",
    "graphsd/raw/sssp/K4/serial": "867b322bc5864891",
}


@pytest.fixture(autouse=True)
def index_modes(monkeypatch):
    """Relabel every full-row index span as a row scan; record the modes.

    The scheduler never picks ``INDEX_SCAN`` itself: a span is never wider
    than its row, so it never costs more than the scan and wins the tie.
    A span covering the whole row reads exactly the scan's extent (same
    first entry, same entry count), so relabelling it leaves the recorded
    stream unchanged and puts the scan path under the goldens too.
    """
    seen = set()
    real = StateAwareScheduler.plan_index_access

    def relabel(self, frontier):
        plan = real(self, frontier)
        rows = plan.active_per_row > 0
        last = self.store.intervals.sizes() - 1
        full_row = rows & (plan.lo_local == 0) & (plan.hi_local == last)
        plan.mode[full_row & (plan.mode == INDEX_SPAN)] = INDEX_SCAN
        seen.update(int(m) for m in plan.mode[rows])
        return plan

    monkeypatch.setattr(StateAwareScheduler, "plan_index_access", relabel)
    return seen


@pytest.mark.parametrize("case", GRID, ids=[_grid_key(*case) for case in GRID])
def test_selective_stream_matches_the_golden(tmp_path, case):
    doc = run_grid_case(tmp_path, *case)
    assert _digest(doc) == GRID_GOLDEN[_grid_key(*case)], json.dumps(doc, indent=1)


def test_the_grid_reads_the_index_in_every_mode(tmp_path, index_modes):
    """Row scans, spans and entry gathers all feed the recorded stream."""
    for algo in ("sssp", "cc"):
        run_grid_case(tmp_path / algo, "graphsd-b4", "raw", algo, 1, False)
    assert index_modes == {INDEX_SCAN, INDEX_SPAN, INDEX_GATHER}


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
    "async-compact3-edges-exhausted": ("1e35c558fd12ab98", 4, True),
    "async-compact3-idx-absorbed": ("855b8d42075a7992", 2, False),
    "async-raw-idx-exhausted": ("c1ade482c754a1c9", 4, True),
    "b4-compact3-edges-absorbed": ("db7448c457b81935", 3, False),
    "b4-compact3-idx-exhausted": ("e2aa24ff82063cbc", 4, True),
    "b4-raw-edges-absorbed": ("e8ba1107962bd91e", 2, False),
    "b4-raw-edges-exhausted": ("21c5b25f0132b988", 4, True),
    "b4-raw-idx-absorbed": ("cf5cca7d9b77dc8b", 1, False),
    "b4-raw-idx-absorbed-late": ("e2535c265805c25e", 4, False),
    "b4-raw-idx-exhausted": ("07d3f6beb03f5c3b", 4, True),
    "graphsd-compact-edges-exhausted": ("424b33da3f561f8c", 4, True),
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
    "async/compact3": "10d5ee185c508a16",
    "async/raw": "af9b4abadb5ab965",
    "graphsd-b4/compact3": "f9b08fd53e0c0bc9",
    "graphsd-b4/raw": "8dd71387a5dd7dde",
    "graphsd/compact3": "2d2beb4e923cd764",
    "graphsd/raw": "a7b2455e3c418a6c",
}


@pytest.mark.parametrize("case", PAGE_CACHE, ids=["/".join(c) for c in PAGE_CACHE])
def test_page_cache_filters_the_same_reads(tmp_path, case):
    doc = run_page_cache_case(tmp_path, *case)
    assert _digest(doc) == PAGE_CACHE_GOLDEN["/".join(case)], json.dumps(doc, indent=1)
