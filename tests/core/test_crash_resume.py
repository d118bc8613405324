"""Crash-consistency of checkpoints under injected mid-checkpoint crashes.

The scenarios here kill a checkpoint write (or a whole checkpointed run)
at the worst possible moments and assert that recovery restores a
consistent, previous state — bit-identical to an uninterrupted run where
an engine is involved.
"""

import json

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank, SSSP
from repro.baselines import BSPReference
from repro.core import GraphSDConfig, GraphSDEngine
from repro.core.checkpoint import CheckpointCorruptError, CheckpointManager, CheckpointMeta
from repro.graph import GridStore, make_intervals
from repro.storage import (
    ChecksumError,
    Device,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
    SimulatedDisk,
)
from repro.storage.blockfile import MAX_IO_RETRIES
from repro.storage.disk import HDD_PROFILE
from repro.utils.bitset import VertexSubset
from tests.conftest import build_store, random_edgelist


def test_previous_checkpoint_survives_crash_in_sidecar_window(device, monkeypatch):
    """A crash after the checkpoint's array writes but before the sidecar
    lands must leave the *previous* checkpoint fully restorable.

    This is the crash window that in-place array overwrites corrupt: if
    the second write() clobbers the first checkpoint's array files before
    its own sidecar commits, the surviving sidecar describes arrays that
    no longer hold its data.
    """
    manager = CheckpointManager(device, "w")
    manager.write("cc", 1, VertexSubset.from_indices(16, [1, 2, 3]), {})

    # Second checkpoint: the array files land, then the process dies just
    # before the sidecar is serialized/replaced.
    boom = RuntimeError("crash before sidecar replace")

    def die(self):
        raise boom

    monkeypatch.setattr(CheckpointMeta, "to_json", die)
    with pytest.raises(RuntimeError, match="crash before sidecar"):
        manager.write("cc", 2, VertexSubset.from_indices(16, [9]), {})
    monkeypatch.undo()

    recovered = CheckpointManager(device, "w")
    assert recovered.exists
    meta = recovered.load_meta("cc")
    assert meta.iterations_done == 1
    assert sorted(recovered.load_frontier(16)) == [1, 2, 3]


def test_injected_crash_between_arrays_and_sidecar(device):
    """Same window, driven by the injector's mid-checkpoint crash point."""
    manager = CheckpointManager(device, "w")
    manager.write("cc", 1, VertexSubset.from_indices(16, [4, 5]), {"v": np.zeros(16)})

    # The injector attaches fresh, so this write is its first (and fatal)
    # mid-checkpoint hit.
    device.disk.injector = FaultInjector(FaultPlan(crash_points={"mid-checkpoint": 1}))
    with pytest.raises(SimulatedCrash):
        manager.write("cc", 2, VertexSubset.from_indices(16, [8]), {"v": np.ones(16)})
    device.disk.injector = None

    recovered = CheckpointManager(device, "w")
    meta = recovered.load_meta("cc")
    assert meta.iterations_done == 1
    assert sorted(recovered.load_frontier(16)) == [4, 5]
    assert np.array_equal(recovered.load_state("v", 16, np.float64), np.zeros(16))


def test_exists_requires_referenced_array_files(device):
    manager = CheckpointManager(device, "w")
    manager.write("cc", 1, VertexSubset.from_indices(8, [1]), {"v": np.arange(8.0)})
    assert manager.exists

    victim = device.root / CheckpointManager(device, "w")._select(False).state_arrays["v"]
    payload = victim.read_bytes()
    victim.unlink()
    assert not manager.exists  # sidecar alone is not a checkpoint

    victim.write_bytes(payload[:-8])  # present but truncated
    assert not manager.exists

    victim.write_bytes(payload)
    assert manager.exists


def test_discard_removes_stale_tmp_and_sidecars(device):
    manager = CheckpointManager(device, "w")
    manager.write("cc", 1, VertexSubset.from_indices(8, [1]), {"v": np.arange(8.0)})
    manager.write("cc", 2, VertexSubset.from_indices(8, [2]), {"v": np.arange(8.0)})
    # A crash can strand the uncommitted temp sidecar; discard must sweep it.
    (device.root / "w.s0.ckpt.json.tmp").write_text("{}")
    (device.root / "w.ckpt.json").write_text("{}")  # pre-generation layout

    manager.discard()

    leftovers = [
        p.name
        for p in device.root.iterdir()
        if p.name.startswith("w.") and ".ckpt" in p.name
    ]
    assert leftovers == []
    assert not manager.exists


# -- whole-engine crash/resume (the capstone) --------------------------------

#: Kill a checkpointed PageRank at three distinct crash points: during a
#: block scatter, inside the checkpoint write (arrays on disk, sidecar
#: not yet committed), and after an apply but before its checkpoint.
CRASH_PLANS = {
    "mid-scatter": {"mid-scatter": 30},
    "mid-checkpoint": {"mid-checkpoint": 2},
    "post-apply": {"post-apply": 2},
}


@pytest.mark.parametrize("point", sorted(CRASH_PLANS))
def test_crash_killed_run_resumes_bit_identical(tmp_path, rng, point):
    edges = random_edgelist(rng, 120, 1500)
    store = build_store(edges, tmp_path, P=4, name=f"cap-{point}")
    straight = GraphSDEngine(store).run(PageRank(iterations=6))

    store.device.disk.injector = FaultInjector(
        FaultPlan(crash_points=CRASH_PLANS[point])
    )
    with pytest.raises(SimulatedCrash):
        GraphSDEngine(store).run(PageRank(iterations=6), checkpoint_tag="t")
    store.device.disk.injector = None  # the crashed process is gone

    resumed = GraphSDEngine(store).run(
        PageRank(iterations=6), checkpoint_tag="t", resume=True
    )
    # Bit-identical, not merely close: resume replays the exact same
    # float operations from the checkpointed state.
    assert np.array_equal(straight.values, resumed.values)
    assert resumed.iterations == straight.iterations
    assert resumed.converged == straight.converged
    # The resume genuinely continued mid-run rather than starting over.
    assert 0 < len(resumed.per_iteration) < straight.iterations


def test_resume_on_different_graph_is_rejected(tmp_path, rng):
    edges = random_edgelist(rng, 120, 900)
    store = build_store(edges, tmp_path, P=4, name="fp")
    store.device.disk.injector = FaultInjector(
        FaultPlan(crash_points={"after-checkpoint": 1})
    )
    with pytest.raises(SimulatedCrash):
        GraphSDEngine(store).run(PageRank(iterations=6), checkpoint_tag="t")
    store.device.disk.injector = None

    # The graph is rebuilt in place (same prefix, same device) from a
    # different edge list; the stale checkpoint must not be applied to it.
    other = random_edgelist(rng, 150, 1100)
    store2 = GridStore.build(
        other, make_intervals(other, 4), store.device, prefix="fp", indexed=True
    )
    with pytest.raises(ValueError, match="different graph"):
        GraphSDEngine(store2).run(
            PageRank(iterations=6), checkpoint_tag="t", resume=True
        )


def test_resume_refuses_a_checkpoint_without_state_snapshots(tmp_path, rng):
    """The live value files may have run ahead of the sidecar, so a
    checkpoint that lists no state arrays cannot be resumed from them."""
    edges = random_edgelist(rng, 120, 900)
    store = build_store(edges, tmp_path, P=4, name="nosnap")
    store.device.disk.injector = FaultInjector(FaultPlan(crash_points={"post-apply": 2}))
    with pytest.raises(SimulatedCrash):
        GraphSDEngine(store).run(BFS(), checkpoint_tag="t")
    store.device.disk.injector = None

    (sidecar,) = store.device.root.glob("*.ckpt.json")
    meta = json.loads(sidecar.read_text())
    assert meta["state_arrays"]
    meta["state_arrays"] = {}  # every listed file still matches its checksum
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(CheckpointCorruptError, match=r"checkpoint '.*\.bfs\.t'"):
        GraphSDEngine(store).run(BFS(), checkpoint_tag="t", resume=True)


def test_gather_fault_degrades_round_to_full_streaming(tmp_path, rng):
    """An unrecoverable fault during an on-demand gather falls back to
    full streaming for that iteration — correct results, event recorded."""
    edges = random_edgelist(rng, 150, 1000)
    ref = BSPReference(edges).run(SSSP(source=0))
    store = build_store(edges, tmp_path, P=4, name="deg")
    engine = GraphSDEngine(store, config=GraphSDConfig.baseline_b4())
    # Enough consecutive faults on the edge file to exhaust the retry
    # budget of SCIU's first selective load; FCIU's later read is clean.
    # (Attached after engine construction: the context-building scan of
    # the edge file must not consume the fault window.)
    store.device.disk.injector = FaultInjector(
        FaultPlan(
            specs=(
                FaultSpec("transient-read", "*.edges", count=MAX_IO_RETRIES + 1),
            )
        )
    )
    result = engine.run(SSSP(source=0))

    assert result.fault_events and "full streaming" in result.fault_events[0]
    assert result.per_iteration[0].model in ("fciu", "full")  # the degraded round
    assert result.converged
    assert np.allclose(ref.values, result.values)
    assert store.device.disk.stats.read_retries == MAX_IO_RETRIES
    assert store.device.disk.stats.faults_injected == MAX_IO_RETRIES + 1


def test_checksummed_store_surfaces_corruption_during_run(tmp_path, rng):
    edges = random_edgelist(rng, 120, 900)
    device = Device(tmp_path / "flip", SimulatedDisk(HDD_PROFILE), checksums=True)
    store = GridStore.build(
        edges, make_intervals(edges, 4), device, prefix="g", indexed=True
    )
    engine = GraphSDEngine(store)  # context built while data is intact

    FaultInjector(
        FaultPlan(specs=(FaultSpec("bit-flip", "g.edges"),), seed=7)
    ).apply_bit_flips(device)

    with pytest.raises(ChecksumError):
        engine.run(PageRank(iterations=3))
