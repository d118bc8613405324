"""The execution core: one block step, two consumers, nothing else.

Every engine — FCIU, SCIU, async pops, the baselines, cluster shards —
runs its gather/combine/apply through ``EngineBase``. These tests keep
that true structurally (no private kernel loop can reappear) and pin
the ``mid-scatter`` fault schedule, which is defined by where the shared
consumers poll.
"""

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro.algorithms import PageRank, SSSP
from repro.core import AsyncGraphSDEngine, GraphSDEngine
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash
from tests.conftest import build_store, random_edgelist

SRC = pathlib.Path(repro.__file__).parent
#: In-memory semantic oracles: deliberately independent kernel loops.
ORACLES = {"baselines/bsp_reference.py", "core/scalar_ref.py"}
#: The vertex-program kernels, and the block step that pairs them.
KERNEL_CALLS = {"gather", "apply", "scatter_combine", "gather_block", "combine_block"}


def _kernel_calls(path: pathlib.Path) -> set:
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "scatter_combine":
            found.add(func.id)
        elif isinstance(func, ast.Attribute) and func.attr in KERNEL_CALLS:
            receiver = ast.unparse(func.value)
            if func.attr in ("gather", "apply") and not receiver.endswith("program"):
                continue  # e.g. np.take-style helpers on other objects
            found.add(func.attr)
    return found


def test_kernels_are_called_from_engine_base_only():
    offenders = {}
    for package in ("core", "cluster", "baselines"):
        for path in sorted((SRC / package).glob("*.py")):
            rel = f"{package}/{path.name}"
            if rel in ORACLES or rel == "core/engine_base.py":
                continue
            calls = _kernel_calls(path)
            if calls:
                offenders[rel] = sorted(calls)
    assert offenders == {}
    assert _kernel_calls(SRC / "core" / "engine_base.py") == KERNEL_CALLS


#: ``crash_points={"mid-scatter": k}`` -> (iterations/sweeps completed,
#: bytes read) at the moment the crash fires, recorded at the commit
#: before the consumers were merged. One poll per planned primary block
#: load; cross pushes and diagonal-chase re-gathers do not poll.
CRASH_GOLDEN = {
    "graphsd-pr": {1: (0, 47532), 5: (0, 57276), 17: (1, 81264), 40: (3, 133560), 90: None},
    "graphsd-sssp": {1: (0, 38400), 5: (1, 40960), 17: (2, 57212), 40: (4, 109508),
                     90: (8, 223844)},
    "async-sssp": {1: (0, 38400), 5: (0, 52624), 17: (1, 91024), 40: (3, 163360), 90: None},
}
_CRASH_CASES = {
    "graphsd-pr": (GraphSDEngine, lambda: PageRank(iterations=6)),  # FCIU-heavy
    "graphsd-sssp": (GraphSDEngine, lambda: SSSP(source=0)),  # SCIU-heavy
    "async-sssp": (AsyncGraphSDEngine, lambda: SSSP(source=0)),
}


@pytest.mark.parametrize("case", sorted(CRASH_GOLDEN))
def test_mid_scatter_crash_ordinals_are_pinned(tmp_path, case):
    engine_cls, make_program = _CRASH_CASES[case]
    for k, expected in CRASH_GOLDEN[case].items():
        edges = random_edgelist(np.random.default_rng(2024), 300, 3000)
        store = build_store(edges, tmp_path, P=4, name=f"k{k}")
        engine = engine_cls(store)
        store.device.disk.injector = FaultInjector(
            FaultPlan(crash_points={"mid-scatter": k})
        )
        try:
            engine.run(make_program())
            site = None  # fewer than k primary block loads in the whole run
        except SimulatedCrash:
            site = (engine._iterations_done, store.device.disk.stats.bytes_read)
        assert site == expected, f"{case}: mid-scatter #{k}"
