"""Checkpoint/resume: crash mid-run, continue, get identical results."""

import numpy as np
import pytest

from repro.algorithms import ConnectedComponents, PageRank, PageRankDelta, SSSP
from repro.baselines import BSPReference
from repro.core import GraphSDEngine, GraphSDConfig
from repro.core.checkpoint import CheckpointManager
from tests.conftest import build_store, random_edgelist


class CrashingEngine(GraphSDEngine):
    """Failure injection: dies after a configured number of rounds."""

    class InjectedCrash(RuntimeError):
        pass

    def __init__(self, *args, crash_after_rounds: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.crash_after_rounds = crash_after_rounds
        self._rounds = 0

    def _run_round(self):
        if self._rounds >= self.crash_after_rounds:
            raise self.InjectedCrash(f"injected crash after {self._rounds} rounds")
        self._rounds += 1
        return super()._run_round()


@pytest.fixture
def edges(rng):
    return random_edgelist(rng, 200, 1400)


@pytest.mark.parametrize("crash_after", [1, 2, 4])
@pytest.mark.parametrize(
    "maker",
    [lambda: SSSP(source=0), ConnectedComponents, lambda: PageRankDelta(iterations=14)],
)
def test_crash_and_resume_matches_straight_run(edges, tmp_path, crash_after, maker):
    ref = BSPReference(edges).run(maker())
    store = build_store(edges, tmp_path, P=4, name="ck")

    crasher = CrashingEngine(store, crash_after_rounds=crash_after)
    try:
        result = crasher.run(maker(), checkpoint_tag="t")
        crashed = False
    except CrashingEngine.InjectedCrash:
        crashed = True

    if crashed:
        result = GraphSDEngine(store).run(maker(), checkpoint_tag="t", resume=True)
    assert np.allclose(ref.values, result.values, equal_nan=True)
    assert result.iterations == ref.iterations  # cumulative count
    assert result.converged


def test_resume_preserves_carried_accumulator(tmp_path, rng):
    """Cross-iteration contributions pending at the crash must survive.

    Pin the on-demand model so every round cross-pushes; crash right
    after a round with pending pushes; a resume that dropped them would
    lose rank mass and diverge from the oracle.
    """
    edges = random_edgelist(rng, 150, 1000)
    ref = BSPReference(edges).run(PageRankDelta(tol=0.0, iterations=10))
    store = build_store(edges, tmp_path, P=3, name="acc")
    cfg = GraphSDConfig.baseline_b4()

    crasher = CrashingEngine(store, config=cfg, crash_after_rounds=3)
    with pytest.raises(CrashingEngine.InjectedCrash):
        crasher.run(PageRankDelta(tol=0.0, iterations=10), checkpoint_tag="t")
    # Premise: work was pending — flagged, and off the ADD identity somewhere.
    assert crasher.next_landed and np.any(crasher.acc_next != 0.0)

    resumed = GraphSDEngine(store, config=cfg).run(
        PageRankDelta(tol=0.0, iterations=10), checkpoint_tag="t", resume=True
    )
    assert np.allclose(ref.values, resumed.values)


def test_resumed_result_reports_only_post_crash_work(edges, tmp_path):
    store = build_store(edges, tmp_path, P=4, name="post")
    straight = GraphSDEngine(store).run(ConnectedComponents())

    crasher = CrashingEngine(store, crash_after_rounds=1)
    with pytest.raises(CrashingEngine.InjectedCrash):
        crasher.run(ConnectedComponents(), checkpoint_tag="t")
    resumed = GraphSDEngine(store).run(
        ConnectedComponents(), checkpoint_tag="t", resume=True
    )
    assert resumed.iterations == straight.iterations
    assert len(resumed.per_iteration) < straight.iterations
    assert resumed.io_traffic < straight.io_traffic


def test_checkpoint_discarded_after_convergence(edges, tmp_path):
    store = build_store(edges, tmp_path, P=4, name="disc")
    engine = GraphSDEngine(store)
    engine.run(ConnectedComponents(), checkpoint_tag="t")
    manager = engine._checkpoint_manager("t")
    assert not manager.exists
    for leftover in ("*.ckpt", "*.ckpt.json", "*.ckpt.json.tmp", "*.ckpt.crc"):
        assert not list(store.device.root.glob(leftover))


def test_resume_without_checkpoint_runs_from_scratch(edges, tmp_path):
    ref = BSPReference(edges).run(ConnectedComponents())
    store = build_store(edges, tmp_path, P=4, name="fresh")
    result = GraphSDEngine(store).run(
        ConnectedComponents(), checkpoint_tag="t", resume=True
    )
    assert np.allclose(ref.values, result.values)
    assert result.iterations == ref.iterations


def test_resume_requires_tag(edges, tmp_path):
    store = build_store(edges, tmp_path, P=4, name="notag")
    with pytest.raises(ValueError, match="checkpoint_tag"):
        GraphSDEngine(store).run(ConnectedComponents(), resume=True)


def test_checkpoint_namespaced_per_program(edges, tmp_path):
    """A different program's resume finds no checkpoint (names are
    namespaced per program) and correctly starts from scratch."""
    store = build_store(edges, tmp_path, P=4, name="prog")
    crasher = CrashingEngine(store, crash_after_rounds=1)
    with pytest.raises(CrashingEngine.InjectedCrash):
        crasher.run(ConnectedComponents(), checkpoint_tag="t")
    ref = BSPReference(edges).run(PageRank(iterations=3))
    result = GraphSDEngine(store).run(
        PageRank(iterations=3), checkpoint_tag="t", resume=True
    )
    assert np.allclose(ref.values, result.values)


def test_manager_rejects_wrong_program(device):
    from repro.utils.bitset import VertexSubset

    manager = CheckpointManager(device, "wp")
    manager.write("cc", 1, VertexSubset(4), {"value": np.zeros(4)})
    with pytest.raises(ValueError, match="belongs to program"):
        manager.load_meta("pagerank")


def test_both_generations_corrupt_is_a_readable_error(device):
    """Damage both slots of the double buffer: the failure must name the
    checkpoint, the dead generations, and the graph fingerprint instead
    of surfacing a checksum traceback."""
    from repro.core.checkpoint import CheckpointCorruptError
    from repro.utils.bitset import VertexSubset

    manager = CheckpointManager(device, "dead")
    for gen in (1, 2):
        manager.write(
            "cc",
            gen,
            VertexSubset(8),
            {"value": np.full(8, float(gen))},
            fingerprint=(8, 20, 4),
        )
    for path in device.root.glob("dead.*.ckpt"):
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
    fresh = CheckpointManager(device, "dead")
    with pytest.raises(CheckpointCorruptError) as exc:
        fresh.load_meta("cc")
    message = str(exc.value)
    assert "'dead'" in message
    assert "1, 2" in message  # both generations are named
    assert "(8, 20, 4)" in message  # ... and the graph they belonged to
    assert "restart the run from scratch" in message


def test_single_corrupt_generation_falls_back_to_the_other(device):
    """One damaged slot is the tolerated case: restore uses the survivor."""
    from repro.utils.bitset import VertexSubset

    manager = CheckpointManager(device, "fb")
    manager.write("cc", 1, VertexSubset(8), {"value": np.full(8, 1.0)})
    manager.write("cc", 2, VertexSubset(8), {"value": np.full(8, 2.0)})
    # generation 2 lives in slot 0; tear its state array
    (slot0,) = device.root.glob("fb.state.value.s0.ckpt")
    slot0.write_bytes(slot0.read_bytes()[:-8])
    fresh = CheckpointManager(device, "fb")
    assert fresh.load_meta("cc").generation == 1
    assert np.array_equal(fresh.load_state("value", 8, np.float64), np.full(8, 1.0))


def test_checkpoint_manager_sidecar_is_atomic(tmp_path, device):
    manager = CheckpointManager(device, "m")
    from repro.utils.bitset import VertexSubset

    manager.write("cc", 3, VertexSubset.from_indices(10, [1, 2]), {"value": np.arange(10.0)})
    assert manager.exists
    meta = manager.load_meta("cc")
    assert meta.iterations_done == 3
    frontier = manager.load_frontier(10)
    assert sorted(frontier) == [1, 2]
    assert np.array_equal(manager.load_state("value", 10, np.float64), np.arange(10.0))
    # a second write supersedes the first
    manager.write("cc", 5, VertexSubset.from_indices(10, [7]), {"value": np.ones(10)})
    assert manager.load_meta("cc").iterations_done == 5
    assert np.array_equal(manager.load_state("value", 10, np.float64), np.ones(10))
    manager.discard()
    assert not manager.exists
