"""Scaled proxies of the paper's Table 3 datasets.

The originals (1.5 B – 32 B edges, hundreds of GB) cannot be downloaded
or held in this environment, so each is replaced by an R-MAT proxy that
keeps the properties the paper's effects depend on:

* **structure class** — social networks use Graph500 parameters, web
  crawls use heavier-skew parameters with id locality (hubs clustered at
  low ids, as URL-sorted crawls exhibit), Kron30 uses the Graph500
  Kronecker generator with permuted ids (its published construction);
* **edge/vertex ratio** — matched to Table 3 (≈36, 37, 35, 41, 32);
* **relative size ordering** — Twitter2010 < SK2005 < UK2007 < UKUnion
  < Kron30, so per-dataset trends keep their direction.

Everything is generated deterministically from fixed seeds; two calls to
:func:`load_dataset` always return identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.datasets.rmat import SOCIAL, WEB, rmat_edges
from repro.datasets.synthetic import with_uniform_weights
from repro.graph.edgelist import EdgeList


@dataclass(frozen=True)
class DatasetSpec:
    """One Table 3 dataset and its proxy construction.

    ``chain_segment`` (web proxies only) overlays directed chains
    ``v -> v+1`` broken every ``chain_segment`` ids. Web crawls have long
    tendril paths that give CC/SSSP dozens of small-frontier tail
    iterations — the regime where active-vertex-aware I/O pays off —
    whereas plain R-MAT collapses to diameter ~5. The segment length
    bounds the tail so runtimes stay proportional to the paper's.
    """

    name: str
    kind: str
    paper_vertices: str
    paper_edges: str
    scale: int
    edge_factor: float
    params: Tuple[float, float, float, float]
    permute_ids: bool
    seed: int
    description: str
    chain_segment: Optional[int] = None

    def generate(self) -> EdgeList:
        edges = rmat_edges(
            self.scale,
            self.edge_factor,
            params=self.params,
            seed=self.seed,
            permute_ids=self.permute_ids,
        )
        if self.chain_segment is not None:
            edges = _overlay_chains(edges, self.chain_segment)
        return edges


def _overlay_chains(edges: EdgeList, segment: int) -> EdgeList:
    """Add ``v -> v+1`` edges within id segments of the given length."""
    import numpy as np

    n = edges.num_vertices
    # In the edge list's own uint32, so nothing is widened and narrowed back.
    dst = np.arange(1, n, dtype=edges.dst.dtype)
    dst = dst[dst % segment != 0]  # break the chain at segment ends
    new_src = np.concatenate([edges.src, dst - 1])
    new_dst = np.concatenate([edges.dst, dst])
    return EdgeList(n, new_src, new_dst)


#: Table 3 of the paper, proxied. Scales are chosen so the full benchmark
#: suite runs in minutes while each dataset stays large enough for edge
#: I/O to dominate vertex I/O, as on the paper's testbed.
DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec(
            name="twitter2010",
            kind="Social network",
            paper_vertices="42 million",
            paper_edges="1.5 billion",
            scale=15,
            edge_factor=36.0,
            params=SOCIAL,
            permute_ids=False,
            seed=101,
            description="Twitter follower-network proxy (Graph500 R-MAT + tendrils, e/v ~ 36)",
            chain_segment=16,
        ),
        DatasetSpec(
            name="sk2005",
            kind="Social network",
            paper_vertices="51 million",
            paper_edges="1.9 billion",
            scale=15,
            edge_factor=37.0,
            params=WEB,
            permute_ids=False,
            seed=102,
            description=".sk domain crawl proxy (skewed web R-MAT + tendrils, e/v ~ 37)",
            chain_segment=32,
        ),
        DatasetSpec(
            name="uk2007",
            kind="Web graph",
            paper_vertices="106 million",
            paper_edges="3.7 billion",
            scale=16,
            edge_factor=35.0,
            params=WEB,
            permute_ids=False,
            seed=103,
            description=".uk 2007 crawl proxy (skewed web R-MAT + tendrils, e/v ~ 35)",
            chain_segment=48,
        ),
        DatasetSpec(
            name="ukunion",
            kind="Web graph",
            paper_vertices="133 million",
            paper_edges="5.5 billion",
            scale=16,
            edge_factor=41.0,
            params=WEB,
            permute_ids=False,
            seed=104,
            description="time-aware .uk union crawl proxy (skewed web R-MAT + tendrils, e/v ~ 41)",
            chain_segment=48,
        ),
        DatasetSpec(
            name="kron30",
            kind="Synthetic graph",
            paper_vertices="1 billion",
            paper_edges="32 billion",
            scale=17,
            edge_factor=32.0,
            params=SOCIAL,
            permute_ids=True,
            seed=105,
            description="Graph500 Kronecker proxy (permuted ids, e/v = 32)",
        ),
    )
}


def list_datasets() -> List[str]:
    """Dataset names in Table 3 order."""
    return list(DATASETS.keys())


def dataset_spec(name: str) -> DatasetSpec:
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(list_datasets())}"
        ) from None


_cache: Dict[Tuple[str, bool, bool], EdgeList] = {}


def load_dataset(
    name: str,
    weighted: bool = False,
    symmetrize: bool = False,
    use_cache: bool = True,
) -> EdgeList:
    """Deterministically materialize a Table 3 proxy.

    ``weighted=True`` attaches uniform non-negative weights (for SSSP);
    ``symmetrize=True`` returns the undirected view (for CC). Results
    are memoized per process because generation is pure.
    """
    key = (name, weighted, symmetrize)
    if use_cache and key in _cache:
        return _cache[key]
    spec = dataset_spec(name)
    edges = spec.generate()
    if symmetrize:
        edges = edges.symmetrized()
    if weighted:
        edges = with_uniform_weights(edges, seed=spec.seed + 7_000_000)
    if use_cache:
        _cache[key] = edges
    return edges


def table3_rows() -> List[Dict[str, str]]:
    """Printable Table 3: paper scale next to proxy scale."""
    rows = []
    for name in list_datasets():
        spec = dataset_spec(name)
        edges = load_dataset(name)
        rows.append(
            {
                "dataset": name,
                "type": spec.kind,
                "paper |V|": spec.paper_vertices,
                "paper |E|": spec.paper_edges,
                "proxy |V|": f"{edges.num_vertices:,}",
                "proxy |E|": f"{edges.num_edges:,}",
            }
        )
    return rows
