"""R-MAT / Kronecker graph generation (Chakrabarti et al., SDM '04).

The paper's datasets are billion-edge social networks, web crawls and a
Graph500 Kronecker graph (Table 3). R-MAT is the standard synthetic
stand-in for all three classes: its recursive quadrant sampling yields
the heavy-tailed degree distributions, dense cores and small diameters
that drive the active-set dynamics GraphSD exploits. Parameter presets:

* ``SOCIAL`` — (0.57, 0.19, 0.19, 0.05): the Graph500 parameters,
  matching Twitter-class social networks and the Kron30 dataset;
* ``WEB`` — (0.65, 0.15, 0.15, 0.05): more skew and stronger id
  locality, matching web crawls (SK2005, UK2007, UKUnion) whose URLs
  sort hubs together.

Generation is vectorized: all edges descend the recursion together, one
Bernoulli pair per bit level, drawn through a cache-sized buffer so the
generator holds little more than the edges it returns (about 9 bytes
per edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_positive, require

#: Graph500 / social-network quadrant probabilities (a, b, c, d).
SOCIAL: Tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05)
#: Web-crawl-like parameters: heavier skew, stronger locality.
WEB: Tuple[float, float, float, float] = (0.65, 0.15, 0.15, 0.05)

#: Uniforms drawn per call of the generator's level loop (512 KiB of
#: doubles): its working set stays in cache however many edges there are.
_DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class RMATParams:
    """Quadrant probabilities of the R-MAT recursion."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            require(0.0 <= value <= 1.0, f"RMAT parameter {name} must be in [0, 1]")
        total = self.a + self.b + self.c + self.d
        require(abs(total - 1.0) < 1e-9, f"RMAT parameters must sum to 1, got {total}")


def rmat_edges(
    scale: int,
    edge_factor: float,
    params: Tuple[float, float, float, float] = SOCIAL,
    seed: SeedLike = None,
    remove_self_loops: bool = True,
    permute_ids: bool = False,
) -> EdgeList:
    """Generate an R-MAT graph with ``2**scale`` vertices.

    ``edge_factor`` is edges per vertex (Graph500 uses 16; the paper's
    graphs range from ~32 to ~41). With ``permute_ids=False`` (default)
    high-degree vertices concentrate at low ids — the id/degree
    correlation real crawls show, which the on-demand model's
    sequential-run merging benefits from. ``permute_ids=True`` applies a
    random relabeling (the Graph500 convention) to destroy it.
    """
    require(scale >= 1, f"scale must be >= 1, got {scale}")
    require(scale <= 32, f"scale must be <= 32 (vertex ids are uint32), got {scale}")
    check_positive(edge_factor, "edge_factor")
    p = RMATParams(*params)
    rng = make_rng(seed)

    n = 1 << scale
    m = int(round(edge_factor * n))
    src = np.zeros(m, dtype=np.uint32)
    dst = np.zeros(m, dtype=np.uint32)

    # Per bit level, each edge independently picks a quadrant:
    # P(src bit = 1) = c + d; P(dst bit = 1 | src bit) differs by row.
    # A level draws m uniforms for the source bits, then m for the
    # destination bits, through one cache-sized buffer of _DRAW_CHUNK
    # doubles: the draw sequence is that of two m-sized draws, so the
    # graph does not depend on the chunk. Only the source bits (``row``)
    # are kept across the level; the dst bit is ``r < p_row`` from two
    # scalar compares — below the smaller threshold, or below the larger
    # one in the row that has it.
    p_src_one = p.c + p.d
    p_dst_one_given_src0 = p.b / (p.a + p.b) if (p.a + p.b) > 0 else 0.0
    p_dst_one_given_src1 = p.d / (p.c + p.d) if (p.c + p.d) > 0 else 0.0
    low = min(p_dst_one_given_src0, p_dst_one_given_src1)
    high = max(p_dst_one_given_src0, p_dst_one_given_src1)
    high_in_row1 = p_dst_one_given_src1 >= p_dst_one_given_src0
    chunks = [slice(lo, min(lo + _DRAW_CHUNK, m)) for lo in range(0, m, _DRAW_CHUNK)]
    width = min(m, _DRAW_CHUNK)
    r = np.empty(width)
    bit = np.empty(width, dtype=bool)
    below_low = np.empty(width, dtype=bool)
    row = np.empty(m, dtype=bool)
    for _level in range(scale):
        for c in chunks:
            k = c.stop - c.start
            np.less(rng.random(out=r[:k]), p_src_one, out=row[c])
            src[c] <<= 1
            src[c] |= row[c]
        for c in chunks:
            k = c.stop - c.start
            b = np.less(rng.random(out=r[:k]), high, out=bit[:k])
            if high_in_row1:
                b &= row[c]
            else:
                np.greater(b, row[c], out=b)  # bit & ~row
            b |= np.less(r[:k], low, out=below_low[:k])
            dst[c] <<= 1
            dst[c] |= b

    if permute_ids:
        perm = rng.permutation(n).astype(np.uint32)
        src = perm[src]
        dst = perm[dst]

    if remove_self_loops:
        # Compact in place, chunk by chunk: the write position never
        # passes the chunk being read.
        keep = np.not_equal(src, dst, out=row)
        kept = 0
        for c in chunks:
            count = int(np.count_nonzero(keep[c]))
            src[kept : kept + count] = src[c][keep[c]]
            dst[kept : kept + count] = dst[c][keep[c]]
            kept += count
        src, dst = src[:kept], dst[:kept]
    return EdgeList(n, src, dst)


def kronecker_edges(
    scale: int,
    edge_factor: float = 16.0,
    seed: SeedLike = None,
) -> EdgeList:
    """Graph500-style Kronecker generator (R-MAT with Graph500 parameters).

    This is the generator class behind the paper's Kron30 dataset [1].
    """
    return rmat_edges(scale, edge_factor, params=SOCIAL, seed=seed, permute_ids=True)
