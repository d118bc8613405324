"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro.graph import EdgeList, GridStore, make_intervals
from repro.storage import Device, SimulatedDisk, HDD_PROFILE


@pytest.fixture
def device(tmp_path):
    """A fresh device on a simulated HDD in a pytest tmpdir."""
    return Device(tmp_path / "dev", SimulatedDisk(HDD_PROFILE))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_edgelist(
    rng: np.random.Generator,
    num_vertices: int = 200,
    num_edges: int = 1200,
    weighted: bool = True,
) -> EdgeList:
    """A uniformly random directed multigraph (weights in (0, 1])."""
    src = rng.integers(0, num_vertices, num_edges)
    dst = rng.integers(0, num_vertices, num_edges)
    weights = None
    if weighted:
        weights = (rng.random(num_edges).astype(np.float32) + 1e-3).clip(max=1.0)
    return EdgeList(num_vertices, src, dst, weights)


def build_store(
    edges: EdgeList,
    tmp_path,
    P: int = 4,
    indexed: bool = True,
    sort_within_blocks: bool = True,
    name: str = "g",
    encoding: str = "raw",
) -> GridStore:
    """Build a grid store for ``edges`` in a fresh subdirectory."""
    dev = Device(tmp_path / f"store-{name}", SimulatedDisk(HDD_PROFILE))
    intervals = make_intervals(edges, P)
    return GridStore.build(
        edges, intervals, dev, prefix=name, indexed=indexed,
        sort_within_blocks=sort_within_blocks, encoding=encoding,
    )


@pytest.fixture
def small_graph(rng) -> EdgeList:
    """A 200-vertex random weighted multigraph shared by many tests."""
    return random_edgelist(rng)


def edge_multiset(src, dst) -> dict:
    """Multiset of (src, dst) pairs for content comparisons."""
    pairs = {}
    for s, d in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
        pairs[(s, d)] = pairs.get((s, d), 0) + 1
    return pairs


def mapped_rss_bytes(path) -> Optional[int]:
    """Resident bytes of this process's mappings of ``path``: the sum of
    their ``Rss`` in ``/proc/self/smaps``; ``None`` where that file is
    missing (every platform but Linux)."""
    smaps = Path("/proc/self/smaps")
    if not smaps.exists():
        return None
    target = str(Path(path).resolve())
    total = 0
    counting = False
    for line in smaps.read_text().splitlines():
        head = line.split(None, 5)
        if not head:
            continue
        if not head[0].endswith(":"):  # a mapping's header: range perms offset dev inode [path]
            counting = len(head) == 6 and head[5] == target
        elif counting and head[0] == "Rss:":
            total += int(head[1]) * 1024
    return total


def fault_folio_bytes() -> int:
    """The most one read fault can map of a file: a PMD-sized folio
    (2 MiB on x86-64 and on arm64 with 4 KiB pages)."""
    pmd = Path("/sys/kernel/mm/transparent_hugepage/hpage_pmd_size")
    try:
        return int(pmd.read_text())
    except (OSError, ValueError):
        return 2 << 20
