"""Run-length utilities for scattered disk reads.

The on-demand I/O model reads one (start, count) extent per active
vertex per sub-block. Consecutive active vertex ids own adjacent extents
(the grid is CSR-sorted within blocks), so coalescing adjacent runs both
reduces request counts and upgrades large merged extents to sequential
bandwidth — the effect the paper's ``S_seq``/``S_ran`` split models.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import require


def merge_runs(
    starts: np.ndarray, counts: np.ndarray, firsts: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce adjacent (start, count) runs.

    Runs are adjacent when one ends exactly where the next begins.
    Returns ``(merged_starts, merged_counts, group_ids)`` where
    ``group_ids[k]`` maps input run ``k`` to its merged run. Zero-length
    runs merge into their neighbours. Input runs must be position-sorted
    for meaningful merging (callers pass per-vertex extents in id order,
    which the CSR layout keeps position-sorted). The runs at positions
    ``firsts`` always start a merged run: several reads laid end to end
    merge each within itself only.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    require(starts.shape == counts.shape, "starts/counts shape mismatch")
    n = starts.shape[0]
    if n == 0:
        return starts.copy(), counts.copy(), np.empty(0, dtype=np.int64)
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    breaks[1:] = starts[1:] != starts[:-1] + counts[:-1]
    if firsts is not None:
        breaks[firsts] = True
    group_ids = breaks.cumsum()
    group_ids -= 1
    heads = breaks.nonzero()[0]
    return starts[heads], np.add.reduceat(counts, heads), group_ids


def run_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Item positions of the (start, count) runs laid end to end.

    Run ``r`` contributes ``starts[r], starts[r] + 1, ...`` for
    ``counts[r]`` items, runs in argument order — the index array of one
    vectorized multi-run gather. ``O(runs + items)``, no per-run loop.
    """
    ends = np.cumsum(counts)
    positions = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.intp)
    # Position k of the output lies (k - items before its run) into its run.
    positions += np.repeat(starts - (ends - counts), counts)
    return positions
