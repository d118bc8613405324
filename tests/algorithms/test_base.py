"""Combine semantics, scatter_combine, the registry, and program plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BFS,
    Combine,
    ConnectedComponents,
    GraphContext,
    PageRank,
    PageRankDelta,
    SSSP,
    available_programs,
    make_program,
    scatter_combine,
)


def test_combine_identities():
    assert Combine.ADD.identity == 0.0
    assert Combine.MIN.identity == np.inf


def test_scatter_combine_add_accumulates_duplicates():
    acc = np.zeros(4)
    scatter_combine(Combine.ADD, acc, np.array([1, 1, 3]), np.array([1.0, 2.0, 5.0]))
    assert acc.tolist() == [0.0, 3.0, 0.0, 5.0]


def test_scatter_combine_min_keeps_minimum():
    acc = np.full(4, np.inf)
    scatter_combine(Combine.MIN, acc, np.array([2, 2, 0]), np.array([7.0, 3.0, 1.0]))
    assert acc[2] == 3.0 and acc[0] == 1.0 and np.isinf(acc[1])


def test_scatter_combine_empty_is_noop():
    acc = np.ones(3)
    scatter_combine(Combine.ADD, acc, np.array([], dtype=np.int64), np.array([]))
    assert acc.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("combine", [Combine.ADD, Combine.MIN])
@pytest.mark.parametrize("dense_add", [None, True, False])
def test_scatter_combine_into_an_interval_slice(combine, dense_add):
    """The engines' call: one interval's slice of the accumulator, ids
    local to it. It writes through the view, and only inside it."""
    lo, hi = 4, 9
    start = 1.0 if combine is Combine.ADD else 6.0
    acc = np.full(12, start)
    local = np.array([0, 4, 4, 2])  # vertices 4, 8, 8, 6
    contrib = np.array([5.0, 1.0, 2.0, 9.0])
    scatter_combine(combine, acc[lo:hi], local, contrib, dense_add)
    whole = np.full(12, start)
    scatter_combine(combine, whole, local + lo, contrib, dense_add)
    assert np.array_equal(acc, whole)
    if combine is Combine.ADD:
        assert acc.tolist() == [1, 1, 1, 1, 6, 1, 10, 1, 4, 1, 1, 1]
    else:
        assert acc.tolist() == [6, 6, 6, 6, 5, 6, 6, 6, 1, 6, 6, 6]


def test_scatter_combine_dense_add_picks_the_grouping():
    """``dense_add`` chooses how ADD groups its float additions — sum per
    destination first (bincount) or add one by one (``at``) — and, left
    unset, follows the sizes passed. Engines pin it to the loaded block
    and |V| so slicing the accumulator cannot regroup a recorded sum."""
    half_ulp = 2.0**-53  # 1.0 + half_ulp rounds back to 1.0
    dst, contrib = np.zeros(2, dtype=np.intp), np.full(2, half_ulp)

    def combined(size, dense_add=None):
        acc = np.ones(size)
        scatter_combine(Combine.ADD, acc, dst, contrib, dense_add)
        return acc[0]

    assert combined(4, dense_add=False) == 1.0  # (1 + h) + h
    assert combined(4, dense_add=True) == 1.0 + 2 * half_ulp  # 1 + (h + h)
    # By size: 2 edges are dense for 16 vertices, sparse for 17.
    assert combined(16) == combined(16, dense_add=True)
    assert combined(17) == combined(17, dense_add=False)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 20),
    pushes=st.lists(
        st.tuples(st.integers(0, 19), st.floats(0, 100, allow_nan=False)), max_size=40
    ),
    combine=st.sampled_from([Combine.ADD, Combine.MIN]),
)
def test_scatter_combine_matches_sequential_reduction(n, pushes, combine):
    pushes = [(d % n, v) for d, v in pushes]
    acc = np.full(n, combine.identity)
    if pushes:
        dst = np.array([d for d, _ in pushes])
        contrib = np.array([v for _, v in pushes])
        scatter_combine(combine, acc, dst, contrib)
    expected = np.full(n, combine.identity)
    for d, v in pushes:
        expected[d] = expected[d] + v if combine is Combine.ADD else min(expected[d], v)
    assert np.allclose(acc, expected)


def test_registry_canonical_names():
    assert available_programs() == [
        "pagerank", "pagerank_delta", "ppr", "cc", "sssp", "sswp", "bfs",
    ]


@pytest.mark.parametrize(
    "name,cls",
    [
        ("pagerank", PageRank),
        ("pr", PageRank),
        ("PR-D", PageRankDelta),
        ("pagerank_delta", PageRankDelta),
        ("cc", ConnectedComponents),
        ("SSSP", SSSP),
        ("bfs", BFS),
    ],
)
def test_registry_resolves_aliases(name, cls):
    assert isinstance(make_program(name), cls)


def test_registry_passes_params():
    p = make_program("sssp", source=5)
    assert p.source == 5


def test_registry_unknown_name():
    with pytest.raises(KeyError, match="unknown program"):
        make_program("pagerankk")


def test_context_requires_degrees_when_needed():
    ctx = GraphContext(num_vertices=3, num_edges=0)
    with pytest.raises(ValueError):
        ctx.require_out_degrees()
    with pytest.raises(ValueError):
        PageRank().init_state(ctx)


def test_state_value_bytes_counts_all_arrays():
    ctx = GraphContext(3, 0, out_degrees=np.zeros(3, dtype=np.int64))
    prd = PageRankDelta()
    state = prd.init_state(ctx)
    assert prd.state_value_bytes(state) == 16  # value + delta, float64 each
    pr = PageRank()
    assert pr.state_value_bytes(pr.init_state(ctx)) == 8


def test_copy_state_is_deep():
    ctx = GraphContext(3, 0, out_degrees=np.zeros(3, dtype=np.int64))
    p = ConnectedComponents()
    state = p.init_state(ctx)
    snap = p.copy_state(state)
    state["value"][0] = 99
    assert snap["value"][0] == 0


def test_program_parameter_validation():
    with pytest.raises(ValueError):
        PageRank(damping=1.5)
    with pytest.raises(ValueError):
        PageRank(iterations=0)
    with pytest.raises(ValueError):
        PageRankDelta(tol=-1)
    with pytest.raises(ValueError):
        SSSP(source=-1)
    with pytest.raises(ValueError):
        BFS(root=-2)
