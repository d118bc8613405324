"""Active-vertex set (frontier) representation.

GraphSD's state-aware machinery revolves around the *active vertex set*
``A`` (Table 2 of the paper): the scheduler sizes I/O by ``|A|`` and the
degrees of its members, SCIU walks it interval by interval, and the
cross-iteration step moves vertices between the current set (``Out``) and
the next-iteration set (``OutNI``).

:class:`VertexSubset` is a dense boolean bitmap over vertex ids with a
cached population count. A bitmap (rather than a sparse id list) is the
right trade-off here: membership tests and per-interval slicing are O(1)
views, set algebra is vectorized, and the memory cost (1 byte/vertex) is
negligible next to the vertex value arrays the engines already hold.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

import numpy as np

from repro.utils.validation import require

IndexLike = Union[np.ndarray, Iterable[int]]


class VertexSubset:
    """A mutable subset of ``{0, ..., num_vertices - 1}``.

    Mutating operations invalidate the cached count and ascending ids
    lazily; reading :attr:`count` or :meth:`indices` recomputes them at
    most once per mutation epoch, so the scheduler's and SCIU's several
    reads of one round's frontier share one pass over the mask.
    """

    __slots__ = ("_mask", "_count", "_ids")

    def __init__(self, num_vertices: int, mask: Optional[np.ndarray] = None) -> None:
        require(num_vertices >= 0, f"num_vertices must be >= 0, got {num_vertices}")
        if mask is None:
            self._mask = np.zeros(num_vertices, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            require(
                mask.shape == (num_vertices,),
                f"mask shape {mask.shape} does not match num_vertices={num_vertices}",
            )
            self._mask = mask.copy()
        self._count: Optional[int] = None
        self._ids: Optional[np.ndarray] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def full(cls, num_vertices: int) -> "VertexSubset":
        """All vertices active."""
        s = cls(num_vertices)
        s._mask[:] = True
        s._count = num_vertices
        return s

    @classmethod
    def from_indices(cls, num_vertices: int, indices: IndexLike) -> "VertexSubset":
        """Subset containing exactly ``indices`` (duplicates tolerated)."""
        s = cls(num_vertices)
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        if idx.size:
            require(idx.min() >= 0 and idx.max() < num_vertices, "vertex id out of range")
            s._mask[idx] = True
        return s

    # -- core accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._mask.shape[0]

    @property
    def mask(self) -> np.ndarray:
        """The underlying boolean array (do not mutate through this view)."""
        return self._mask

    @property
    def count(self) -> int:
        """Number of active vertices (cached)."""
        if self._count is None:
            if self._ids is not None:
                self._count = int(self._ids.size)
            else:
                self._count = int(np.count_nonzero(self._mask))
        return self._count

    def indices(self) -> np.ndarray:
        """Sorted array of active vertex ids (cached and read-only)."""
        if self._ids is None:
            ids = np.flatnonzero(self._mask)
            ids.flags.writeable = False
            self._ids = ids
        return self._ids

    def is_empty(self) -> bool:
        return self.count == 0

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < self.num_vertices and bool(self._mask[vertex])

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSubset):
            return NotImplemented
        return self.num_vertices == other.num_vertices and bool(
            np.array_equal(self._mask, other._mask)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VertexSubset({self.count}/{self.num_vertices} active)"

    # -- interval views ----------------------------------------------------

    def interval_mask(self, lo: int, hi: int) -> np.ndarray:
        """Boolean view of the members in the half-open id range [lo, hi)."""
        require(0 <= lo <= hi <= self.num_vertices, f"bad interval [{lo}, {hi})")
        return self._mask[lo:hi]

    def interval_indices(self, lo: int, hi: int) -> np.ndarray:
        """Global ids of active vertices within [lo, hi): a read-only
        slice of :meth:`indices`, cut with two binary searches."""
        require(0 <= lo <= hi <= self.num_vertices, f"bad interval [{lo}, {hi})")
        ids = self.indices()
        start, stop = np.searchsorted(ids, (lo, hi))
        return ids[start:stop]

    def interval_count(self, lo: int, hi: int) -> int:
        return int(np.count_nonzero(self.interval_mask(lo, hi)))

    # -- mutation ----------------------------------------------------------

    def _dirty(self) -> None:
        self._count = None
        self._ids = None

    def add(self, indices: IndexLike) -> None:
        """Activate ``indices``."""
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        if idx.size:
            require(idx.min() >= 0 and idx.max() < self.num_vertices, "vertex id out of range")
            self._mask[idx] = True
            self._dirty()

    def add_mask(self, mask: np.ndarray) -> None:
        """Activate every vertex where ``mask`` is True."""
        require(mask.shape == self._mask.shape, "mask shape mismatch")
        np.logical_or(self._mask, mask, out=self._mask)
        self._dirty()

    def remove(self, indices: IndexLike) -> None:
        """Deactivate ``indices`` (absent ids are a no-op)."""
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        if idx.size:
            require(idx.min() >= 0 and idx.max() < self.num_vertices, "vertex id out of range")
            self._mask[idx] = False
            self._dirty()

    def remove_mask(self, mask: np.ndarray) -> None:
        require(mask.shape == self._mask.shape, "mask shape mismatch")
        self._mask &= ~mask
        self._dirty()

    def clear(self) -> None:
        self._mask[:] = False
        self._count = 0
        self._ids = None

    # -- set algebra (non-mutating) ----------------------------------------

    def _check_compatible(self, other: "VertexSubset") -> None:
        require(
            self.num_vertices == other.num_vertices,
            "VertexSubsets over different vertex universes",
        )

    def union(self, other: "VertexSubset") -> "VertexSubset":
        self._check_compatible(other)
        return VertexSubset(self.num_vertices, self._mask | other._mask)

    def intersection(self, other: "VertexSubset") -> "VertexSubset":
        self._check_compatible(other)
        return VertexSubset(self.num_vertices, self._mask & other._mask)

    def difference(self, other: "VertexSubset") -> "VertexSubset":
        self._check_compatible(other)
        return VertexSubset(self.num_vertices, self._mask & ~other._mask)

    def copy(self) -> "VertexSubset":
        return VertexSubset(self.num_vertices, self._mask)


def distinct_sorted(ids: np.ndarray, bound: int) -> np.ndarray:
    """The distinct values of ``ids``, all below ``bound``, ascending.

    Fewer ids than half of ``bound`` are sorted and compared with their
    neighbours; more are flagged in one ``bound``-long mask instead,
    which then costs less than their sort (the crossover measured at
    ``bound`` = 4 Ki, 16 Ki and 64 Ki). So the work stays proportional
    to the ids. Not ``np.unique``: its hash pass costs more than the
    sort on the few dozen ids a diagonal-chase round usually has.
    """
    if 2 * ids.size >= bound:
        mark = np.zeros(bound, dtype=bool)
        mark[ids] = True
        return mark.nonzero()[0].astype(ids.dtype, copy=False)
    ids = np.sort(ids)
    keep = np.empty(ids.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]
