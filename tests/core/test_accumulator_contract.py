"""The accumulator is the only record of what landed.

``VertexProgram.apply(state, lo, hi, acc)`` gets no per-vertex array of
the destinations a contribution reached: ``acc`` holds the combine
identity exactly where none did, and the engine's one landed flag says
whether any did. ``gather`` reads its source interval's window through
ids local to it. For every registered program, every gate path of the
block step and a raw and a compact3 grid, this checks bit for bit that

* ``acc`` is the identity (ADD: ``+0.0``, no sign bit) at every
  destination no non-neutralized edge reached, and the flag
  :meth:`~repro.core.engine_base.EngineBase.push_block` returns is
  "some non-neutralized edge was combined";
* ``apply`` equals the form it had with ``touched`` (``np.where(touched,
  ...)``), given the ``touched`` those edges make;
* the interval-local ``gather`` equals the global fancy-indexed one,
  on blocks with more edges than their window and with fewer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_program, registered_program_classes
from repro.algorithms.base import Combine, GraphContext
from repro.core.engine_base import DENSE_GATE, EngineBase
from tests.conftest import build_store, random_edgelist

_N, _P = 256, 4  # windows of ~64 vertices; full blocks hold ~190 edges
PARAMS = {"ppr": {"seeds": [0, 7]}}


#: Each program's gather as it was: global ids, widened, fancy-indexed.
OLD_GATHER = {
    "pagerank": lambda p, s, src, w: s["value"][src] * p._inv_out_deg[src],
    "pagerank_delta": lambda p, s, src, w: s["delta"][src] * p._inv_out_deg[src],
    "ppr": lambda p, s, src, w: s["delta"][src] * p._inv_out_deg[src],
    "cc": lambda p, s, src, w: s["value"][src],
    "sssp": lambda p, s, src, w: s["value"][src] + w,
    "sswp": lambda p, s, src, w: np.maximum(s["value"][src], -w.astype(np.float64)),
    "bfs": lambda p, s, src, w: s["value"][src] + 1.0,
}


def _old_apply_min(p, s, lo, hi, acc, touched):
    current = s["value"][lo:hi]
    new = np.minimum(current, acc)
    activated = new < current
    s["value"][lo:hi] = new
    return activated


def _old_apply_pagerank(p, s, lo, hi, acc, touched):
    s["value"][lo:hi] = (1.0 - p.damping) + p.damping * acc
    return np.ones(hi - lo, dtype=bool)


def _old_apply_delta(p, s, lo, hi, acc, touched):
    increment = np.where(touched, p.damping * acc, 0.0)
    s["value"][lo:hi] += increment
    s["delta"][lo:hi] = increment
    return np.abs(increment) > p.tol


#: Each program's apply as it was, when it still received ``touched``.
OLD_APPLY = {
    "pagerank": _old_apply_pagerank,
    "pagerank_delta": _old_apply_delta,
    "ppr": _old_apply_delta,
    "cc": _old_apply_min,
    "sssp": _old_apply_min,
    "sswp": _old_apply_min,
    "bfs": _old_apply_min,
}
NAMES = sorted(cls.name for cls in registered_program_classes())


def test_every_registered_program_has_its_old_forms():
    assert set(OLD_GATHER) == set(OLD_APPLY) == set(NAMES)


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """A bare ``EngineBase`` per encoding, over the same weighted graph."""
    edges = random_edgelist(np.random.default_rng(17), _N, 3000)
    ctx = GraphContext.from_edges(edges)
    root = tmp_path_factory.mktemp("contract")
    return {
        encoding: EngineBase(build_store(edges, root, P=_P, name=encoding, encoding=encoding), ctx=ctx)
        for encoding in ("raw", "compact3")
    }


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(NAMES),
    encoding=st.sampled_from(["raw", "compact3"]),
    path=st.sampled_from(["ungated", "dense", "select", "no-active", "empty"]),
)
def test_acc_holds_the_identity_wherever_nothing_landed(engines, seed, name, encoding, path):
    rng = np.random.default_rng(seed)
    engine = engines[encoding]
    store, n = engine.store, engine.ctx.num_vertices
    program = engine.program = make_program(name, **PARAMS.get(name, {}))
    state = program.init_state(engine.ctx)
    for key, array in state.items():
        fresh = rng.random(n) * 10
        # Identities, signed zeros and infinities as source values too.
        special = rng.random(n)
        fresh[special < 0.1] = 0.0
        fresh[(special >= 0.1) & (special < 0.15)] = -0.0
        fresh[(special >= 0.15) & (special < 0.25)] = np.inf
        state[key] = fresh.astype(array.dtype)

    i, j = (int(x) for x in rng.integers(0, _P, 2))
    lo, hi = store.intervals.bounds(i)
    (handle,) = [h for h in store.load_column(j) if h.i == i]
    block = handle.decode()
    gate = None
    if path == "empty":
        block = block.select(np.zeros(0, dtype=np.intp), lo, hi)
    elif path != "ungated":
        share = {"dense": (1 + DENSE_GATE) / 2, "select": 0.1, "no-active": 0.0}[path]
        gate = rng.random(n) < 0.5  # other intervals: irrelevant to the push
        gate[lo:hi] = rng.random(hi - lo) < share

    acc = program.acc_array(n)
    landed = engine.push_block(state, block, acc, gate)

    src = block.src.astype(np.intp)
    kept = np.ones(block.count, dtype=bool) if gate is None else gate[src]
    touched = np.zeros(n, dtype=bool)
    touched[block.dst[kept].astype(np.intp)] = True
    identity = program.acc_array(n)
    assert np.array_equal(_bits(acc[~touched]), _bits(identity[~touched]))
    if program.combine is Combine.ADD:
        assert not np.signbit(acc[~touched]).any()
    assert landed == bool(kept.any())

    # Interval-local gather == the global one, bit for bit.
    local = block.src - np.uint32(lo)
    got = program.gather(state, lo, hi, local, block.wgt)
    want = OLD_GATHER[name](program, state, src, block.wgt)
    assert np.array_equal(_bits(got), _bits(want))

    # apply == its np.where(touched, ...) form.
    lo_j, hi_j = store.intervals.bounds(j)
    new_state = program.copy_state(state)
    old_state = program.copy_state(state)
    new_act = program.apply(new_state, lo_j, hi_j, acc[lo_j:hi_j].copy())
    old_act = OLD_APPLY[name](program, old_state, lo_j, hi_j, acc[lo_j:hi_j].copy(), touched[lo_j:hi_j])
    assert np.array_equal(new_act, old_act)
    for key in state:
        assert np.array_equal(_bits(new_state[key]), _bits(old_state[key]))
