"""R-MAT generator: determinism, shape, skew."""

import hashlib

import numpy as np
import pytest

from repro.datasets.registry import dataset_spec
from repro.datasets.rmat import RMATParams, SOCIAL, WEB, kronecker_edges, rmat_edges
from repro.graph.degree import out_degrees


def test_deterministic_for_fixed_seed():
    a = rmat_edges(10, 8, seed=5)
    b = rmat_edges(10, 8, seed=5)
    assert a == b
    c = rmat_edges(10, 8, seed=6)
    assert a != c


def test_vertex_and_edge_counts():
    el = rmat_edges(12, 10, seed=1, remove_self_loops=False)
    assert el.num_vertices == 4096
    assert el.num_edges == 40960


def test_self_loop_removal():
    el = rmat_edges(10, 8, seed=2, remove_self_loops=True)
    assert np.all(el.src != el.dst)


def test_degree_distribution_is_skewed():
    el = rmat_edges(13, 16, seed=3)
    deg = out_degrees(el)
    # heavy tail: the top 1% of vertices own a large share of edges
    top = np.sort(deg)[::-1][: max(1, len(deg) // 100)]
    assert top.sum() > 0.2 * el.num_edges
    # and the median vertex is far below the mean
    assert np.median(deg) < deg.mean()


def test_unpermuted_hubs_sit_at_low_ids():
    el = rmat_edges(12, 16, seed=4, permute_ids=False)
    deg = out_degrees(el)
    n = el.num_vertices
    low = deg[: n // 8].sum()
    high = deg[-n // 8 :].sum()
    assert low > 4 * high


def test_permutation_destroys_id_locality():
    el = rmat_edges(12, 16, seed=4, permute_ids=True)
    deg = out_degrees(el)
    n = el.num_vertices
    low = deg[: n // 8].sum()
    high = deg[-n // 8 :].sum()
    assert low < 3 * high  # roughly balanced after shuffling


def test_web_params_are_more_skewed_than_social():
    social = out_degrees(rmat_edges(12, 16, params=SOCIAL, seed=9))
    web = out_degrees(rmat_edges(12, 16, params=WEB, seed=9))
    assert web.max() > social.max()


def test_param_validation():
    with pytest.raises(ValueError):
        RMATParams(0.5, 0.5, 0.5, 0.5)  # sums to 2
    with pytest.raises(ValueError):
        RMATParams(-0.1, 0.5, 0.3, 0.3)
    with pytest.raises(ValueError):
        rmat_edges(0, 8)
    with pytest.raises(ValueError):
        rmat_edges(4, 0)


def test_kronecker_uses_graph500_conventions():
    el = kronecker_edges(10, 8, seed=11)
    assert el.num_vertices == 1024
    # ids permuted: deterministic for a fixed seed
    assert el == kronecker_edges(10, 8, seed=11)


def _edge_digest(el) -> str:
    h = hashlib.sha256()
    h.update(el.src.tobytes())
    h.update(b"|")
    h.update(el.dst.tobytes())
    return h.hexdigest()


def _spec_args(name: str) -> dict:
    spec = dataset_spec(name)
    return dict(
        scale=spec.scale,
        edge_factor=spec.edge_factor,
        params=spec.params,
        seed=spec.seed,
        permute_ids=spec.permute_ids,
    )


#: sha256 of ``src | dst`` (uint32 bytes), recorded before the level loop
#: was rewritten in place: the generator must keep drawing the same graphs.
@pytest.mark.parametrize(
    "args, num_edges, digest",
    [
        pytest.param(
            _spec_args("twitter2010"), 1178739,
            "1f16fa55afe368ce1fe86307ad86e2af1330397aa0d3cb1f4afe5d028782320f",
            id="twitter2010",
        ),
        pytest.param(
            _spec_args("kron30"), 4193054,
            "18543c0ab9628b7a7ebf5d309372d835bf6008275d6a8778cc1bcf028747f168",
            id="kron30-permuted",
        ),
        pytest.param(
            dict(scale=10, edge_factor=8, params=WEB, seed=7), 7951,
            "7f0b2c071807f9b23ec547a75a11cf2ffddcd66bb31f805376874e36382c42d3",
            id="web-small",
        ),
        pytest.param(
            dict(scale=6, edge_factor=4, params=(1.0, 0.0, 0.0, 0.0), seed=3,
                 remove_self_loops=False), 256,
            "d0338e39c46232ba0b36a4f4f0ecc223069c5e85c3fc4a0d4e8d01a2cfd30c81",
            id="all-in-a",
        ),
        pytest.param(
            dict(scale=7, edge_factor=3, params=(0.0, 0.0, 0.5, 0.5), seed=4,
                 remove_self_loops=False), 384,
            "3d29d731a7b676d65dbb6d56c14a6b078f9aa851ffbc83ecaf33652c576bc7ef",
            id="empty-top-row",
        ),
        pytest.param(
            dict(scale=7, edge_factor=3, params=(0.0, 0.5, 0.0, 0.5), seed=5,
                 permute_ids=True), 380,
            "b828a3f12cb5498d0698297d361154c4abb906a7d4169af7e52ba1bc935df37a",
            id="right-half-permuted",
        ),
    ],
)
def test_generation_is_bit_identical_to_the_recorded_graphs(args, num_edges, digest):
    el = rmat_edges(**args)
    assert el.num_edges == num_edges
    assert _edge_digest(el) == digest


def test_scale_beyond_uint32_ids_is_refused():
    with pytest.raises(ValueError, match="uint32"):
        rmat_edges(33, 1.0)
