"""GraphChi baseline (Kyrola et al., OSDI '12 — reference [11]).

GraphChi's Parallel Sliding Windows processes one vertex interval at a
time, reading its shard (in-edges, sorted by source) plus the sliding
windows of every other shard, and — because its programming model stores
data *on the edges* — writes the updated edge values back to disk after
processing each shard. Per iteration that is roughly a full read **and**
a proportional write of the edge data, with no activity awareness and no
future-value computation; Table 1 marks it as not even eliminating
random accesses (the sliding windows still seek between shards).

We model the per-interval shard writeback by charging a write of each
column's adjacency bytes after it is processed (the engine's vertex
programs keep no per-edge state, so there is nothing real to rewrite —
the charge reproduces the traffic), and the inter-shard window seeks by
charging each sub-block load as a separate random-seeking request.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.common import StreamingEngineBase
from repro.graph.grid import BlockHandle

#: GraphChi stores a 4-byte value on every edge and writes it back.
EDGE_VALUE_BYTES = 4


class GraphChiEngine(StreamingEngineBase):
    """PSW-style full sweeps with edge-value writeback."""

    engine_name = "graphchi"
    model_label = "psw"

    def _column_source_ranges(self, j: int) -> List[Tuple[int, int]]:
        # One range per sub-block: PSW's sliding windows issue a separate
        # (seeking) read per shard window rather than one column stream.
        return [(i, i + 1) for i in range(self.store.P) if self.store.block_edge_count(i, j)]

    def _post_column(self, j: int, blocks: List[BlockHandle]) -> None:
        # Shard writeback: edge values of the processed interval return
        # to disk (modeled charge; our programs hold no per-edge state).
        nbytes = sum(b.count for b in blocks) * EDGE_VALUE_BYTES
        if nbytes:
            self.disk.charge_write_sequential(nbytes, requests=1)
