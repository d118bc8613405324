"""In-memory edge list: the raw input format of the preprocessing phase.

An :class:`EdgeList` is a directed multigraph as three parallel columns
(sources, destinations, weights) plus an explicit vertex-universe size.
All out-of-core representations are built from it. The dtypes mirror the
paper's edge record sizes (Table 2): ``M = 8`` bytes per unweighted edge
(two ``uint32`` endpoints) and ``W = 4`` bytes per ``float32`` weight.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from repro.utils.validation import check_same_length, require

VERTEX_DTYPE = np.dtype(np.uint32)
WEIGHT_DTYPE = np.dtype(np.float32)

#: Bytes per edge structure (source + destination ids) — `M` in Table 2.
EDGE_STRUCT_BYTES = 2 * VERTEX_DTYPE.itemsize
#: Bytes per edge weight — `W` in Table 2.
WEIGHT_BYTES = WEIGHT_DTYPE.itemsize


class EdgeList:
    """Directed edges ``(src[k], dst[k], weight[k])`` over ``num_vertices`` ids."""

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        require(num_vertices >= 0, "num_vertices must be >= 0")
        # Range-check the incoming ids: the uint32 cast below would wrap
        # a negative or >= 2**32 id into a valid-looking one.
        limit = min(int(num_vertices), 2**32)
        src, dst = np.asarray(src), np.asarray(dst)
        for ids in (src, dst):
            if ids.size:
                lo, hi = int(ids.min()), int(ids.max())
                require(lo >= 0, f"edge endpoint id {lo} is negative")
                require(
                    hi < limit,
                    f"edge endpoint id {hi} >= num_vertices ({num_vertices}) "
                    "or the 2**32 id space",
                )
        src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
        check_same_length("src", src, "dst", dst)
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=WEIGHT_DTYPE)
            check_same_length("src", src, "weights", weights)
        self.num_vertices = int(num_vertices)
        self.src = src
        self.dst = dst
        self.weights = weights

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[int, int]],
        num_vertices: Optional[int] = None,
        weights: Optional[Iterable[float]] = None,
    ) -> "EdgeList":
        """Build from an iterable of ``(src, dst)`` tuples."""
        arr = np.asarray(list(pairs), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        require(arr.ndim == 2 and arr.shape[1] == 2, "pairs must be (src, dst) tuples")
        if num_vertices is None:
            num_vertices = int(arr.max()) + 1 if arr.size else 0
        w = None if weights is None else np.asarray(list(weights), dtype=WEIGHT_DTYPE)
        return cls(num_vertices, arr[:, 0], arr[:, 1], w)

    @classmethod
    def from_text(cls, path: Union[str, Path], num_vertices: Optional[int] = None) -> "EdgeList":
        """Parse a whitespace-separated ``src dst [weight]`` file.

        Lines starting with ``#`` or ``%`` are comments (SNAP and
        Matrix-Market conventions).
        """
        srcs, dsts, wgts = [], [], []
        saw_weight = False
        # charged-io-ok: external interchange file outside the simulated device
        with open(path, "r") as f:
            for line in f:
                line = line.strip()
                if not line or line[0] in "#%":
                    continue
                parts = line.split()
                require(len(parts) in (2, 3), f"bad edge line: {line!r}")
                srcs.append(int(parts[0]))
                dsts.append(int(parts[1]))
                if len(parts) == 3:
                    saw_weight = True
                    wgts.append(float(parts[2]))
                else:
                    wgts.append(1.0)
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
        if num_vertices is None:
            num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1 if len(srcs) else 0
        weights = np.asarray(wgts, dtype=WEIGHT_DTYPE) if saw_weight else None
        return cls(num_vertices, src, dst, weights)

    # -- persistence -------------------------------------------------------

    def to_text(self, path: Union[str, Path]) -> None:
        """Write ``src dst [weight]`` lines."""
        # charged-io-ok: external interchange file outside the simulated device
        with open(path, "w") as f:
            if self.weights is None:
                for s, d in zip(self.src.tolist(), self.dst.tolist()):
                    f.write(f"{s} {d}\n")
            else:
                for s, d, w in zip(self.src.tolist(), self.dst.tolist(), self.weights.tolist()):
                    f.write(f"{s} {d} {w}\n")

    def to_npz(self, path: Union[str, Path]) -> None:
        payload = {"num_vertices": np.int64(self.num_vertices), "src": self.src, "dst": self.dst}
        if self.weights is not None:
            payload["weights"] = self.weights
        # charged-io-ok: external interchange file outside the simulated device
        np.savez_compressed(path, **payload)

    @classmethod
    def from_npz(cls, path: Union[str, Path]) -> "EdgeList":
        # charged-io-ok: external interchange file outside the simulated device
        with np.load(path) as z:
            weights = z["weights"] if "weights" in z.files else None
            return cls(int(z["num_vertices"]), z["src"], z["dst"], weights)

    # -- accessors -----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    @property
    def has_weights(self) -> bool:
        return self.weights is not None

    @property
    def nbytes_on_disk(self) -> int:
        """Raw edge bytes: ``|E| * (M + W)`` when weighted, ``|E| * M`` otherwise."""
        per_edge = EDGE_STRUCT_BYTES + (WEIGHT_BYTES if self.has_weights else 0)
        return self.num_edges * per_edge

    def effective_weights(self) -> np.ndarray:
        """Weights, defaulting to all-ones for unweighted graphs."""
        if self.weights is not None:
            return self.weights
        return np.ones(self.num_edges, dtype=WEIGHT_DTYPE)

    # -- transforms ----------------------------------------------------

    def with_weights(self, weights: np.ndarray) -> "EdgeList":
        return EdgeList(self.num_vertices, self.src, self.dst, weights)

    def reversed(self) -> "EdgeList":
        """Edge directions flipped (for pull-style/in-edge layouts)."""
        return EdgeList(self.num_vertices, self.dst, self.src, self.weights)

    def relabeled(self, permutation: np.ndarray) -> "EdgeList":
        """Apply a vertex-id permutation: new id of ``v`` is ``permutation[v]``."""
        perm = np.asarray(permutation, dtype=np.int64)
        require(
            perm.shape == (self.num_vertices,),
            "permutation length must equal num_vertices",
        )
        check = np.zeros(self.num_vertices, dtype=bool)
        check[perm] = True
        require(bool(check.all()), "permutation must be a bijection on vertex ids")
        return EdgeList(self.num_vertices, perm[self.src], perm[self.dst], self.weights)

    def relabeled_by_degree(self, descending: bool = True) -> "Tuple[EdgeList, np.ndarray]":
        """Renumber vertices by out-degree (hubs get the lowest ids).

        A classic out-of-core locality optimization: with hubs packed at
        low ids, active high-degree vertices form contiguous id runs, so
        the on-demand model's run merging turns their edge reads into
        sequential extents (the paper's ``S_seq``). Returns
        ``(relabeled_edges, permutation)`` where ``permutation[old] ==
        new`` — keep it to map results back.
        """
        degrees = np.bincount(self.src, minlength=self.num_vertices)
        order = np.argsort(-degrees if descending else degrees, kind="stable")
        permutation = np.empty(self.num_vertices, dtype=np.int64)
        permutation[order] = np.arange(self.num_vertices, dtype=np.int64)
        return self.relabeled(permutation), permutation

    def symmetrized(self, deduplicate: bool = True) -> "EdgeList":
        """Union of this edge list and its reverse (an undirected view).

        Label-propagation CC needs information to flow both ways across
        every edge; the benchmark harness symmetrizes inputs for CC.
        """
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        w = None
        if self.weights is not None:
            w = np.concatenate([self.weights, self.weights])
        out = EdgeList(self.num_vertices, src, dst, w)
        return out.deduplicated() if deduplicate else out

    def sorted_by(self, order: str = "src") -> "EdgeList":
        """A copy sorted by ``'src'`` or ``'dst'`` (ties by the other endpoint)."""
        require(order in ("src", "dst"), f"order must be 'src' or 'dst', got {order!r}")
        if order == "src":
            perm = np.lexsort((self.dst, self.src))
        else:
            perm = np.lexsort((self.src, self.dst))
        w = self.weights[perm] if self.weights is not None else None
        return EdgeList(self.num_vertices, self.src[perm], self.dst[perm], w)

    def deduplicated(self) -> "EdgeList":
        """Remove parallel edges (keeping the first occurrence per (src, dst))."""
        if self.num_edges == 0:
            return EdgeList(self.num_vertices, self.src, self.dst, self.weights)
        key = self.src.astype(np.int64) * self.num_vertices + self.dst.astype(np.int64)
        _, first_idx = np.unique(key, return_index=True)
        first_idx.sort()
        w = self.weights[first_idx] if self.weights is not None else None
        return EdgeList(self.num_vertices, self.src[first_idx], self.dst[first_idx], w)

    def without_self_loops(self) -> "EdgeList":
        keep = self.src != self.dst
        w = self.weights[keep] if self.weights is not None else None
        return EdgeList(self.num_vertices, self.src[keep], self.dst[keep], w)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        if self.num_vertices != other.num_vertices:
            return False
        if not (np.array_equal(self.src, other.src) and np.array_equal(self.dst, other.dst)):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        return self.weights is None or bool(np.array_equal(self.weights, other.weights))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "weighted" if self.has_weights else "unweighted"
        return f"EdgeList(|V|={self.num_vertices}, |E|={self.num_edges}, {tag})"
