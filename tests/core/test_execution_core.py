"""The execution core: one block step, two consumers, nothing else.

Every engine — FCIU, SCIU, async pops, the baselines, cluster shards —
runs its gather/combine/apply through ``EngineBase``. These tests keep
that true structurally (no private kernel loop can reappear), pin the
``mid-scatter`` fault schedule, which is defined by where the shared
consumers poll, and pin the block step itself: whatever edges it
selects before gathering, it leaves the bits that gathering every edge
and neutralizing the inactive ones would.
"""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms import ConnectedComponents, PageRank, PageRankDelta, SSSP
from repro.algorithms.base import SPARSE_ADD_RATIO, Combine, GraphContext, add_is_dense
from repro.algorithms.ppr import PersonalizedPageRank
from repro.core import AsyncGraphSDEngine, GraphSDConfig, GraphSDEngine
from repro.core.engine_base import DENSE_GATE, EngineBase
from repro.datasets.rmat import WEB, rmat_edges
from repro.graph import EdgeList
from repro.graph.grid import EdgeBlock
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.utils.timers import COMPUTE
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


# -- ADD goldens: SCIU's batched pushes keep every sum's order ----------------

#: b4 (SCIU pinned) PageRank-delta and PPR runs, recorded at the commit
#: before a round's selective edges were gathered and combined in one
#: batch. ``io`` holds every non-zero ``IOStats`` field but the
#: lane-dependent ``gather_queue_peak`` (``peak`` by lanes); ``sim`` is
#: keyed ``(lanes, pipelined)``.
ADD_GOLDEN = {
    "pagerank_delta": {
        "values_sha256": "da3213a196b7e695f996f87647684b15d5a02468d1cde0c44e9c31c6e112554d",
        "raw": {
            "io": {"bytes_read_seq": 451072, "bytes_read_ran": 246904,
                   "bytes_written_seq": 304128, "read_requests_seq": 147,
                   "read_requests_ran": 1899, "write_requests_seq": 30,
                   "gather_runs_issued": 2019,
                   "gather_lane_busy_seconds": 0.020862401326497373},
            "sim": {(1, False): 0.0245831317692057, (1, True): 0.0245831317692057,
                    (4, False): 0.009011410374348947, (4, True): 0.010050451959635404},
        },
        "compact3": {
            "io": {"bytes_read_seq": 266768, "bytes_read_ran": 30951,
                   "bytes_written_seq": 242032, "read_requests_seq": 147,
                   "read_requests_ran": 1899, "write_requests_seq": 30,
                   "gather_runs_issued": 2019,
                   "gather_lane_busy_seconds": 0.0027698230743408206},
            "sim": {(1, False): 0.006490553517049158, (1, True): 0.006359989495646163,
                    (4, False): 0.004422558445638026, (4, True): 0.004293991134033207},
        },
    },
    "ppr": {
        "values_sha256": "b2fe7d08a8f58e009a0b8e0dd6ec12df0a77405643a1484845830970f202b42d",
        "raw": {
            "io": {"bytes_read_seq": 751264, "bytes_read_ran": 257976,
                   "bytes_written_seq": 368128, "read_requests_seq": 267,
                   "read_requests_ran": 9390, "write_requests_seq": 38,
                   "gather_runs_issued": 9622,
                   "gather_lane_busy_seconds": 0.02324399312337233},
            "sim": {(1, False): 0.02790905090983066, (1, True): 0.02790905090983066,
                    (4, False): 0.010691745408528623, (4, True): 0.011862873413085916},
        },
        "compact3": {
            "io": {"bytes_read_seq": 389816, "bytes_read_ran": 32503,
                   "bytes_written_seq": 306032, "read_requests_seq": 267,
                   "read_requests_ran": 9390, "write_requests_seq": 38,
                   "gather_runs_issued": 9622,
                   "gather_lane_busy_seconds": 0.003268582026163732},
            "sim": {(1, False): 0.007933639812622064, (1, True): 0.007819934949137363,
                    (4, False): 0.005509164460652667, (4, True): 0.00539877670796712},
        },
    },
}
_ADD_PROGRAMS = {
    "pagerank_delta": lambda: PageRankDelta(tol=2e-2),
    "ppr": lambda: PersonalizedPageRank([0, 7], tol=1e-5),
}
_ADD_PEAK = {1: 16, 4: 6}  # gather_queue_peak by lanes
_UNPINNED = {"gather_queue_peak"}


@pytest.mark.parametrize("encoding", ["raw", "compact3"])
@pytest.mark.parametrize("algo", sorted(ADD_GOLDEN))
def test_sciu_add_runs_match_the_golden_recorded_before_batching(
    tmp_path, monkeypatch, algo, encoding
):
    """Selective entries on ADD's sparse path are gathered and combined
    as one batch, flushed around every dense one: the per-destination
    addition order, and with it every bit, is the one-push-per-entry
    order, at any lane count, serial or pipelined."""
    n = 1000
    retained = []
    real_consume = EngineBase.consume_plan

    def spy(self, plan, snapshot, acc):
        blocks = real_consume(self, plan, snapshot, acc)
        retained.extend(add_is_dense(block.count, n) for block in blocks)
        return blocks

    monkeypatch.setattr(EngineBase, "consume_plan", spy)
    golden = ADD_GOLDEN[algo]
    for (lanes, pipelined), sim in golden[encoding]["sim"].items():
        edges = random_edgelist(np.random.default_rng(36), n, 6000, weighted=False)
        store = build_store(edges, tmp_path / f"K{lanes}p{pipelined:d}", P=4, encoding=encoding)
        config = GraphSDConfig.baseline_b4(gather_lanes=lanes, pipelined=pipelined)
        run = GraphSDEngine(store, config=config).run(_ADD_PROGRAMS[algo]())
        assert run.values_sha256() == golden["values_sha256"]
        assert run.sim_seconds == sim, (lanes, pipelined)
        io = store.device.disk.stats.to_dict()
        assert io["gather_queue_peak"] == _ADD_PEAK[lanes]
        pinned = {k: v for k, v in io.items() if k not in _UNPINNED and v}
        assert pinned == golden[encoding]["io"], (lanes, pipelined)
    # Both kinds of selective entry occurred: dense ones split the batch.
    assert sum(retained) > 0 and retained.count(False) > 0


# -- the block step: select before gather, combine interval-locally ----------

_N, _P = 256, 4  # |V| / SPARSE_ADD_RATIO = 32 edges is the ADD dispatch line


class _HalfUlp(PageRankDelta):
    """ADD program built to expose any regrouping of the float sums.

    Every edge contributes half an ulp of 1.0 and the test carries 1.0
    in the accumulator: added one at a time (``np.add.at``) each
    contribution rounds away, summed first (``np.bincount``) two of them
    survive — so a push that takes the other path than the oracle, or
    adds a different edge set, cannot land on the same bits.
    """

    name = "half_ulp"

    def gather(self, state, lo, hi, src, weights):
        return np.full(src.shape, 2.0**-53)


_PROGRAMS = {
    "sssp": lambda: SSSP(source=0),  # MIN, reads weights
    "cc": ConnectedComponents,  # MIN, no weights
    "pagerank_delta": PageRankDelta,  # ADD
    "half_ulp": _HalfUlp,
}


@pytest.fixture(scope="module")
def step_engine(tmp_path_factory):
    """A bare ``EngineBase`` over a 4-interval store; tests hand it blocks."""
    edges = random_edgelist(np.random.default_rng(5), _N, 2000)
    store = build_store(edges, tmp_path_factory.mktemp("step"), P=_P)
    return EngineBase(store, ctx=GraphContext.from_edges(edges))


def _neutralize_then_combine(program, n, snapshot, block, acc, gate):
    """The block step as it was before selection existed — the oracle.

    Gather every edge (from the whole state, by global id), ``np.where``
    the inactive sources' contributions to the combine identity, reduce
    all of them into the *global* accumulator, with the ADD path chosen
    from ``block.count`` and |V|. Returns whether a non-neutralized
    edge was combined.
    """
    contrib = program.gather(snapshot, 0, n, block.src, block.wgt)
    mask = None
    if gate is not None:
        mask = gate[block.src]
        contrib = np.where(mask, contrib, program.combine.identity)
    if block.count:
        if program.combine is Combine.MIN:
            np.minimum.at(acc, block.dst, contrib)
        elif block.count * SPARSE_ADD_RATIO < n:
            np.add.at(acc, block.dst, contrib)
        else:
            acc += np.bincount(block.dst, weights=contrib, minlength=n)
    return bool(block.count) and (mask is None or bool(mask.any()))


def _random_block(rng, intervals, i, j, count, source_sorted, weighted, crowded=False):
    lo_i, hi_i = intervals.bounds(i)
    lo_j, hi_j = intervals.bounds(j)
    src = rng.integers(lo_i, hi_i, count).astype(np.uint32)
    if source_sorted:
        src.sort()
    # crowded: a handful of destinations, so even a few edges collide.
    dst = rng.integers(lo_j, lo_j + 4 if crowded else hi_j, count).astype(np.uint32)
    wgt = rng.random(count).astype(np.float32) if weighted else None
    return EdgeBlock(i, j, src, dst, wgt, source_sorted=source_sorted)


def _random_gate(rng, intervals, i, density):
    """A |V| gate whose interval-``i`` slice has the named density."""
    gate = rng.random(_N) < 0.5  # other intervals: irrelevant to the push
    lo, hi = intervals.bounds(i)
    share = {
        "empty": 0.0,
        "sparse": 0.1,
        "at-crossover": DENSE_GATE,
        "dense": 0.9,
        "all": 1.0,
    }[density]
    k = int(share * (hi - lo))
    gate[lo:hi] = False
    gate[lo + rng.choice(hi - lo, k, replace=False)] = True
    return gate


@settings(max_examples=150, deadline=None)
# Either side of the ADD dispatch line (the slice is narrower than |V|,
# the gate keeps fewer edges than were loaded), then the unsorted fallback.
@example(seed=1, program_name="half_ulp", source_sorted=True, count=31, density="ungated", as_ids=False)
@example(seed=2, program_name="half_ulp", source_sorted=True, count=32, density="sparse", as_ids=False)
@example(seed=3, program_name="half_ulp", source_sorted=False, count=300, density="sparse", as_ids=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    program_name=st.sampled_from(sorted(_PROGRAMS)),
    source_sorted=st.booleans(),
    count=st.one_of(
        st.sampled_from([0, 1, _N // SPARSE_ADD_RATIO - 1, _N // SPARSE_ADD_RATIO]),
        st.integers(0, 400),
    ),
    density=st.sampled_from(["ungated", "empty", "sparse", "at-crossover", "dense", "all"]),
    as_ids=st.booleans(),
)
def test_block_step_is_bit_identical_to_neutralize_then_combine(
    step_engine, seed, program_name, source_sorted, count, density, as_ids
):
    rng = np.random.default_rng(seed)
    engine = step_engine
    intervals = engine.store.intervals
    program = engine.program = _PROGRAMS[program_name]()
    snapshot = program.init_state(engine.ctx)
    for name, array in snapshot.items():
        fresh = rng.random(_N) * 10
        fresh[rng.random(_N) < 0.2] = np.inf if program.combine is Combine.MIN else 0.0
        snapshot[name] = fresh.astype(array.dtype)
    i, j = (int(x) for x in rng.integers(0, _P, 2))
    half_ulp = isinstance(program, _HalfUlp)
    block = _random_block(
        rng, intervals, i, j, count, source_sorted,
        weighted=program.needs_weights or seed % 2 == 0, crowded=half_ulp,
    )
    gate = None if density == "ungated" else _random_gate(rng, intervals, i, density)

    # A carried accumulator, not a fresh one: earlier pushes already landed
    # (large next to the contributions, so regrouped float sums show).
    acc = program.acc_array(_N)
    landed = rng.random(_N) < 0.6
    acc[landed] = 1.0 if half_ulp else rng.random(int(landed.sum())) * 1e6
    want_acc = acc.copy()
    want_landed = _neutralize_then_combine(program, _N, snapshot, block, want_acc, gate)

    before = engine.clock.snapshot()
    if gate is not None and as_ids:  # the caller already holds the local ids
        lo, hi = intervals.bounds(i)
        pushed = engine.push_block(snapshot, block, acc, active=np.flatnonzero(gate[lo:hi]))
    else:
        pushed = engine.push_block(snapshot, block, acc, gate)
    assert np.array_equal(acc.view(np.uint64), want_acc.view(np.uint64))
    assert pushed == want_landed
    # The modeled charge is the loaded block's, whatever the gate kept.
    charged = dict((engine.clock.snapshot() - before).components)
    assert charged.pop(COMPUTE) == pytest.approx(engine.machine.edge_compute_time(count))
    assert not any(charged.values())


def test_sparse_gated_push_gathers_only_the_active_edges(step_engine, monkeypatch):
    """Proportionality, by counting (no timing): a sparse gate reaches
    ``program.gather`` as exactly the active edges, on a source-sorted
    block and on one of unknown order alike."""
    engine, rng = step_engine, np.random.default_rng(11)
    program = engine.program = SSSP(source=0)
    seen = []
    real_gather = program.gather
    monkeypatch.setattr(
        program,
        "gather",
        lambda state, lo, hi, src, wgt: seen.append(src.size) or real_gather(state, lo, hi, src, wgt),
    )
    state = program.init_state(engine.ctx)
    for source_sorted in (True, False):
        block = _random_block(rng, engine.store.intervals, 1, 2, 300, source_sorted, True)
        gate = _random_gate(rng, engine.store.intervals, 1, "sparse")
        acc = engine.fresh_accumulator()
        engine.push_block(state, block, acc, gate)
        active_edges = int(np.count_nonzero(gate[block.src]))
        assert 0 < active_edges < block.count
        assert seen.pop() == active_edges and not seen


def test_gated_cuts_look_edges_up_and_id_cuts_reuse_offsets(step_engine, monkeypatch):
    """The cut rule: a mask cut of a block without a run-length header
    never derives source offsets (they would be used once); an id-list
    cut derives them once and every later cut of the retained block
    reuses them; a block with a header is cut through its offsets."""
    engine, rng = step_engine, np.random.default_rng(12)
    intervals = engine.store.intervals
    program = engine.program = SSSP(source=0)
    state = program.init_state(engine.ctx)
    derived = []  # per source_offsets call: were the offsets cached?
    real_offsets = EdgeBlock.source_offsets

    def spy(self, lo, hi):
        derived.append(self._offsets is not None)
        return real_offsets(self, lo, hi)

    monkeypatch.setattr(EdgeBlock, "source_offsets", spy)
    lo, hi = intervals.bounds(1)
    block = _random_block(rng, intervals, 1, 2, 300, source_sorted=True, weighted=True)
    gate = _random_gate(rng, intervals, 1, "sparse")
    acc = engine.fresh_accumulator()
    engine.push_block(state, block, acc, gate)
    assert derived == []
    for _ in range(3):
        engine.push_block(state, block, acc, active=np.flatnonzero(gate[lo:hi]))
    assert derived == [False, True, True]
    headed = dataclasses.replace(
        block, runs=np.bincount(block.src - lo, minlength=hi - lo).astype(np.uint16)
    )
    derived.clear()
    engine.push_block(state, headed, acc, gate)
    assert derived == [False]


def test_add_combine_never_allocates_more_than_the_interval(tmp_path, monkeypatch):
    """Proportionality of the combine: PageRank's dense ADD path sums
    into a bincount of the destination interval, never of |V|."""
    edges = random_edgelist(np.random.default_rng(3), 400, 6000, weighted=False)
    store = build_store(edges, tmp_path, P=4)
    engine = GraphSDEngine(store, ctx=GraphContext.from_edges(edges))
    widest = int(store.intervals.sizes().max())
    minlengths = []
    real_bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        if weights is not None:
            minlengths.append(minlength)
        return real_bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", spy)
    engine.run(PageRank(iterations=3))
    assert minlengths and max(minlengths) <= widest < store.num_vertices


# -- async golden: the chase and the gated pops, recorded before selection -----


def _tendril_graph(symmetrize: bool) -> EdgeList:
    """Scale-10 web R-MAT plus ``v -> v+1`` chains broken every 64 ids:
    a few wide sweeps, then a tail of tiny frontiers chasing diagonals."""
    base = rmat_edges(10, 8, WEB, seed=7)
    n = base.num_vertices
    chain = np.arange(n - 1, dtype=np.int64)
    chain = chain[(chain + 1) % 64 != 0]
    src = np.concatenate([base.src.astype(np.int64), chain])
    dst = np.concatenate([base.dst.astype(np.int64), chain + 1])
    weights = np.random.default_rng(9).uniform(0.05, 1.0, src.size).astype(np.float32)
    edges = EdgeList(n, src, dst, weights)
    return edges.symmetrized() if symmetrize else edges


#: Recorded at 2b5b806, the commit before the block step selected edges.
#: ``priority_decisions`` rows are ``PriorityDecision`` fields in order:
#: sweep, rank, interval, score, candidates, pending_vertices,
#: new_activations, selective_blocks, full_blocks.
ASYNC_GOLDEN = {
    "sssp": {
        "values_sha256": "01336181ec9e4cc1b72a3268b4c0c2b986bb1a77b2bdf9e755ffaa1e61eb96c6",
        "edges_processed": [44341, 17212, 2535, 5],
        "subblocks_processed": [55, 39, 13, 4],
        "priority_decisions": [
            (1, 1, 0, 1.0, 4, 1, 17, 3, 1),
            (1, 2, 1, 12.083423521369696, 3, 18, 113, 5, 1),
            (1, 3, 2, 88.31908692419529, 2, 129, 298, 14, 2),
            (1, 4, 3, 328.3567436821759, 1, 423, 595, 26, 3),
            (2, 1, 0, 842.3420119173825, 3, 991, 5, 2, 3),
            (2, 2, 1, 766.5859276428819, 3, 885, 44, 4, 2),
            (2, 3, 2, 537.1048017628491, 2, 634, 86, 15, 2),
            (2, 4, 3, 38.52683791145682, 1, 132, 55, 9, 2),
            (3, 1, 0, 40.717195473611355, 3, 180, 0, 1, 2),
            (3, 2, 1, 30.160664595663548, 2, 137, 2, 1, 2),
            (3, 3, 2, 2.832710660994053, 2, 55, 0, 1, 1),
            (3, 4, 3, 0.1627739705145359, 1, 2, 4, 5, 0),
            (4, 1, 0, 0.3925737328827381, 3, 6, 0, 2, 0),
            (4, 2, 1, 0.2297997623682022, 2, 4, 0, 1, 0),
            (4, 3, 2, 0.2297997623682022, 1, 4, 0, 1, 0),
        ],
        "breakdown": {
            "compute": 0.0007298349999999993,
            "io_read": 0.0016314188639322922,
            "io_write": 0.00032552083333333326,
            "scheduling": 3.050833333333334e-05,
        },
    },
    "cc": {
        "values_sha256": "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
        "edges_processed": [71860, 3539],
        "subblocks_processed": [66, 6],
        "priority_decisions": [
            (1, 1, 0, 1024.0, 4, 1024, 54, 2, 4),
            (1, 2, 1, 2113.0, 3, 1024, 181, 5, 4),
            (1, 3, 2, 27253.0, 2, 1024, 286, 16, 4),
            (1, 4, 3, 134633.0, 1, 1024, 502, 27, 4),
            (2, 1, 0, 516097.0, 3, 969, 0, 0, 3),
            (2, 2, 1, 490776.0, 2, 788, 0, 0, 2),
            (2, 3, 2, 383110.0, 1, 502, 0, 0, 1),
        ],
        "breakdown": {
            "compute": 0.0008057175000000007,
            "io_read": 0.001242853800455729,
            "io_write": 0.00019531249999999996,
            "scheduling": 5.319166666666667e-05,
        },
    },
}


@pytest.mark.parametrize("algo", sorted(ASYNC_GOLDEN))
def test_async_run_matches_the_golden_recorded_before_selection(tmp_path, algo):
    """Every sweep loads, charges, pops and activates exactly what it did
    when each gated push still gathered the whole block: selection may
    only shrink wall work."""
    edges = _tendril_graph(symmetrize=algo == "cc")
    engine = AsyncGraphSDEngine(build_store(edges, tmp_path, P=4, name=algo))
    run = engine.run(SSSP(source=0) if algo == "sssp" else ConnectedComponents())
    golden = ASYNC_GOLDEN[algo]
    assert run.values_sha256() == golden["values_sha256"]
    assert run.sweeps == len(golden["edges_processed"])
    assert [r.edges_processed for r in run.per_iteration] == golden["edges_processed"]
    assert [r.subblocks_processed for r in run.per_iteration] == golden["subblocks_processed"]
    decisions = [dataclasses.astuple(d) for d in engine.priority_decisions]
    assert decisions == golden["priority_decisions"]
    assert dict(run.breakdown.components) == golden["breakdown"]


def test_chase_rounds_apply_only_where_their_push_landed(tmp_path, monkeypatch):
    """No diagonal-chase round applies a whole interval: each applies at
    the destinations of the edges it pushed, and at no other vertex."""
    edges = _tendril_graph(symmetrize=False)
    engine = AsyncGraphSDEngine(build_store(edges, tmp_path, P=4, name="spy"))
    events = []
    chasing = []

    def chase(self, *args, **kwargs):
        chasing.append(True)
        try:
            return real_chase(self, *args, **kwargs)
        finally:
            chasing.pop()

    def combine(self, acc, block, contrib, dense_add=None, window=None):
        if chasing:
            lo = self.store.intervals.bounds(block.j)[0]
            events.append(("push", block.dst.astype(np.int64) - lo))
        return real_combine(self, acc, block, contrib, dense_add, window)

    def apply(self, interval, acc, activated_mask, ids=None):
        if chasing:
            events.append(("apply", ids))
        return real_apply(self, interval, acc, activated_mask, ids)

    real_chase = AsyncGraphSDEngine._chase_diagonal
    real_combine = EngineBase.combine_block
    real_apply = EngineBase.apply_interval
    monkeypatch.setattr(AsyncGraphSDEngine, "_chase_diagonal", chase)
    monkeypatch.setattr(EngineBase, "combine_block", combine)
    monkeypatch.setattr(EngineBase, "apply_interval", apply)
    run = engine.run(SSSP(source=0))
    assert run.values_sha256() == ASYNC_GOLDEN["sssp"]["values_sha256"]

    rounds = 0
    pushed = np.zeros(0, dtype=np.int64)
    for kind, ids in events:
        if kind == "push":
            pushed = np.concatenate([pushed, ids])
            continue
        assert ids is not None, "a chase round applied its whole interval"
        assert np.array_equal(ids, np.unique(ids))
        assert np.isin(ids, pushed).all()
        rounds += 1
        pushed = np.zeros(0, dtype=np.int64)
    assert rounds > 10  # the tendrils make the chase run
