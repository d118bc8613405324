"""On-disk 2-D grid representation with per-vertex sub-block indexes (§3.2).

Layout
------
Edges are sorted by ``(destination interval, source interval, src, dst)``
— i.e. sub-blocks are stored *destination-major*, which makes the FCIU
model's streaming order (outer loop over destination intervals ``j``,
inner over source intervals ``i``; Algorithm 3) a single sequential scan,
and any run of blocks within a column one contiguous extent. Within each
sub-block edges are sorted by source, giving the CSR-style offset index
``index(i, j)`` that the on-demand I/O model uses to locate one vertex's
edges.

Three on-disk encodings share this layout (see ``docs/STORAGE.md``):

**raw** (format 1)
    packed global edge records in grid order: ``(src: uint32,
    dst: uint32)`` or ``(src, dst, wgt: float32)`` — ``M + W`` bytes per
    record, matching the paper's Table 2 cost-model notation.

**compact** (format 2)
    inside sub-block ``(i, j)`` both endpoints are confined to known
    intervals and sources repeat in runs, so the raw records pay for
    information the layout already implies. The compact encoding stores,
    per non-empty sub-block:

    * a CSR-style run-length header: one per-vertex in-block degree for
      every vertex of source interval ``i``, in the narrowest unsigned
      dtype that holds the block's maximum in-block degree (the same
      degrees the offset index ``index(i, j)`` encodes as deltas);
    * ``count`` packed records of ``(dst_local, [wgt])`` where
      ``dst_local = dst - lo(j)`` is stored in the narrowest unsigned
      dtype sufficient for interval ``j``'s width (uint8/16/32) and
      weights stay float32.

    Decoding is vectorized — ``np.repeat`` over the run lengths
    reconstructs the sources, a local→global add reconstructs the
    destinations — and produces :class:`EdgeBlock` objects bit-identical
    to the raw decoder's, for full streams, column scans, and selective
    index-range loads alike. Decode work is modeled as inline with the
    transfer (like checksum verification), so the byte shrink directly
    shrinks charged I/O time.

**compact3** (format 3)
    the compact layout with the *metadata* compressed too — exactly the
    bytes the on-demand (selective) path reads before it touches an edge
    record:

    * ``.idx`` offsets are stored per block in the narrowest unsigned
      dtype that holds the block's edge count (offsets are already
      block-relative deltas from the block's base, so their range is
      ``0..count``), instead of flat ``int64`` — a 2-8x shrink of every
      index scan, span and gather;
    * destination locals use a *per-block* narrowest dtype (from the
      block's actual maximum ``dst_local``) rather than format 2's
      per-column dtype, recorded in the meta as ``dst_dtype_codes``.

    Decoded offsets and edges are bit-identical ``int64`` /
    :class:`EdgeBlock` values — request counts are unchanged, only the
    byte volume shrinks.

Files (all through :class:`~repro.storage.blockfile.ArrayFile`):

``{prefix}.edges``
    the encoded sub-blocks in grid order. Raw stores open it with the
    record dtype; compact stores open it as a byte stream
    (:data:`~repro.storage.blockfile.BYTE_DTYPE`) and address blocks by
    byte ranges, so CRC sidecars and fault injection compose unchanged.
``{prefix}.idx``
    per-block CSR offsets concatenated in storage order; block
    ``(i, j)``'s slice has ``interval_size(i) + 1`` entries of
    block-relative offsets. Absent when the store is built unindexed
    (the Lumos baseline's representation). Stored as flat ``int64``
    through format 2; as per-block narrowest-uint byte columns in
    compact3 (the file is then opened as a byte stream).

Metadata (interval boundaries, per-block edge counts and file offsets,
the format version, and — for compact stores — the per-block header
dtypes) is stored as JSON next to the data files. Opening a grid whose
recorded format this build does not understand fails with a readable
error instead of a garbage decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.edgelist import EdgeList, VERTEX_DTYPE
from repro.graph.partition import VertexIntervals
from repro.storage.blockfile import BYTE_DTYPE, Device
from repro.utils.runs import merge_runs, run_positions
from repro.utils.validation import require

INDEX_DTYPE = np.dtype(np.int64)
EDGE_UNWEIGHTED_DTYPE = np.dtype([("src", np.uint32), ("dst", np.uint32)])
EDGE_WEIGHTED_DTYPE = np.dtype([("src", np.uint32), ("dst", np.uint32), ("wgt", np.float32)])

#: On-disk encodings and the format versions that name them in the meta
#: file. An unknown version is a hard, readable error on open.
ENCODING_RAW = "raw"
ENCODING_COMPACT = "compact"
ENCODING_COMPACT3 = "compact3"
FORMAT_RAW = 1
FORMAT_COMPACT = 2
FORMAT_COMPACT3 = 3
SUPPORTED_FORMATS: Dict[int, str] = {
    FORMAT_RAW: ENCODING_RAW,
    FORMAT_COMPACT: ENCODING_COMPACT,
    FORMAT_COMPACT3: ENCODING_COMPACT3,
}
ENCODINGS = tuple(SUPPORTED_FORMATS.values())
_FORMAT_BY_ENCODING = {name: fmt for fmt, name in SUPPORTED_FORMATS.items()}
#: Encodings that share the compact payload layout (run-length headers +
#: packed local records); compact3 additionally compresses the metadata.
_COMPACT_ENCODINGS = (ENCODING_COMPACT, ENCODING_COMPACT3)

#: Little-endian unsigned dtypes by itemsize, the compact encoding's menu.
_UINT_BY_ITEMSIZE = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}

#: Bit budget of :meth:`GridStore.build`'s packed sort key: it must stay a
#: non-negative ``int64`` for a value sort to order it.
_KEY_BITS = 63

#: How a selective read of block ``(i, j)`` reads the active sources'
#: offsets, decided per source interval by the scheduler
#: (:meth:`~repro.core.scheduler.StateAwareScheduler.plan_index_access`).
INDEX_SCAN = 0  #: sequentially read the row's full offset arrays
INDEX_SPAN = 1  #: sequentially read the contiguous slice covering the actives
INDEX_GATHER = 2  #: randomly gather one (offset, next) pair per active vertex

#: One entry of :meth:`GridStore.read_selective`: block ``(i, j)``, the
#: active sources' global ids (ascending, non-empty, inside interval
#: ``i``) and the ``INDEX_*`` mode whose read the entry charges.
SelectiveEntry = Tuple[int, int, np.ndarray, int]

#: Where a selective read finds block ``(i, j)``: the first vertex of
#: intervals ``i`` and ``j``; the block's first offset in the index file
#: and the file items per offset; its first edge record in the edges file
#: (compact: behind the run-length header) and the file items per record;
#: the byte width of a compact record's local destination.
_GEOMETRY_DTYPE = np.dtype(
    [(name, np.int64) for name in ("lo_i", "lo_j", "index", "unit", "records", "rec", "width")]
)


def _narrowest_uint(max_value: int) -> np.dtype:
    """The narrowest little-endian unsigned dtype holding ``max_value``."""
    if max_value < (1 << 8):
        return _UINT_BY_ITEMSIZE[1]
    if max_value < (1 << 16):
        return _UINT_BY_ITEMSIZE[2]
    require(max_value < (1 << 32), f"value {max_value} exceeds uint32")
    return _UINT_BY_ITEMSIZE[4]


def _read_le(buf: np.ndarray, byte_pos: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The little-endian ``dtype`` values at byte offsets ``byte_pos`` of
    the byte array ``buf`` — one fancy index through an overlapping view
    whose element ``k`` starts at byte ``k``, so no alignment is needed."""
    if byte_pos.size == 0:
        return np.empty(byte_pos.shape, dtype=dtype)
    window = np.ndarray((buf.shape[0] - dtype.itemsize + 1,), dtype, buffer=buf, strides=(1,))
    return window[byte_pos]


def _packed_record_dtype(dst_dtype: np.dtype, has_weights: bool) -> np.dtype:
    """Packed ``(dst_local, [wgt])`` edge record of the compact encodings."""
    fields = [("dst", dst_dtype)]
    if has_weights:
        fields.append(("wgt", np.dtype("<f4")))
    return np.dtype(fields)


class GridFormatError(ValueError):
    """The on-disk grid was written by a format this build cannot read."""


@dataclass
class EdgeBlock:
    """An in-memory sub-block: the edges of grid cell ``(i, j)``.

    ``source_sorted`` is set by stores whose blocks are sorted by source
    (every indexed store); it lets :meth:`select` and :meth:`count_active`
    reach the active sources' edges through per-source offsets instead
    of a pass over the block. ``runs`` is the compact decoder's
    run-length header (per-source in-block degrees) when it had one.
    """

    i: int
    j: int
    src: np.ndarray
    dst: np.ndarray
    wgt: Optional[np.ndarray] = None
    source_sorted: bool = False
    runs: Optional[np.ndarray] = field(default=None, repr=False)
    _offsets: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def count(self) -> int:
        return int(self.src.shape[0])

    @property
    def nbytes(self) -> int:
        n = self.src.nbytes + self.dst.nbytes
        if self.wgt is not None:
            n += self.wgt.nbytes
        return n

    def source_offsets(self, lo: int, hi: int) -> np.ndarray:
        """CSR offsets of source interval ``[lo, hi)`` into this block.

        Vertex ``v``'s edges sit at positions ``offsets[v - lo]`` up to
        ``offsets[v - lo + 1]``. Requires ``source_sorted``. Derived once
        — a running sum of the run-length header, else of a count of the
        sources — and cached on the block in the narrowest unsigned
        dtype that holds ``count``: at most 4 bytes per source, freed
        with the block.
        """
        if self._offsets is None:
            runs = self.runs
            if runs is None:
                runs = np.bincount(self.src - VERTEX_DTYPE.type(lo), minlength=hi - lo)
            offsets = np.zeros(hi - lo + 1, dtype=_narrowest_uint(self.count))
            np.cumsum(runs, dtype=offsets.dtype, out=offsets[1:])
            self._offsets, self.runs = offsets, None
        return self._offsets

    def select(self, active: np.ndarray, lo: int, hi: int) -> "EdgeBlock":
        """The edges of the ``active`` sources, in block order.

        ``active`` holds ascending ids local to source interval
        ``[lo, hi)``. A source-sorted block is cut through
        :meth:`source_offsets` in ``O(active sources + their edges)``; a
        block of unknown order falls back to one mask lookup per edge.
        """
        if self.source_sorted:
            offsets = self.source_offsets(lo, hi)
            starts = offsets[active].astype(np.intp)
            positions = run_positions(starts, offsets[active + 1] - starts)
        else:
            mask = np.zeros(hi - lo, dtype=bool)
            mask[active] = True
            positions = np.flatnonzero(mask[self.src - VERTEX_DTYPE.type(lo)])
        wgt = None if self.wgt is None else self.wgt[positions]
        return EdgeBlock(self.i, self.j, self.src[positions], self.dst[positions], wgt)

    def count_active(self, mask: np.ndarray, lo: int, hi: int) -> int:
        """Number of edges whose source is set in the per-vertex ``mask``."""
        if not self.source_sorted:
            return int(np.count_nonzero(mask[self.src]))
        gate = mask[lo:hi]
        if gate.all():
            return self.count
        active = np.flatnonzero(gate)
        offsets = self.source_offsets(lo, hi)
        return int(offsets[active + 1].sum() - offsets[active].sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeBlock(({self.i},{self.j}), edges={self.count})"


class SelectiveLoad:
    """One block of :meth:`GridStore.read_selective`: its edges, already
    read, and the accounting of reading them, not yet run.

    Calling it runs :meth:`charge` and returns :attr:`block`, so it is a
    plan thunk as it stands.
    """

    __slots__ = ("store", "block", "index", "_negative", "_bounds", "_runs", "_totals")

    def __init__(
        self,
        store: "GridStore",
        block: EdgeBlock,
        negative: bool,
        bounds: Tuple[int, int, int],
        runs: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        totals: Tuple[Tuple[int, int], Tuple[int, int]],
    ) -> None:
        self.store = store
        self.block = block
        #: ``(INDEX_* mode, ascending local ids)`` of the index read this
        #: entry charges first; ``None`` when the caller read the offsets.
        self.index: Optional[Tuple[int, np.ndarray]] = None
        self._negative = negative
        self._bounds = bounds  # lowest start, smallest run, highest end
        self._runs = runs  # merged (starts, counts, sequential?); None: no edges
        self._totals = totals

    @property
    def nbytes(self) -> int:
        """Edge bytes the entry's read charges before any page cache."""
        (seq_bytes, _), (ran_bytes, _) = self._totals
        return seq_bytes + ran_bytes

    def charge(self) -> None:
        """The entry's accounting, in the order its single reads run it.

        First the index read, then the edge read: the negative-count and
        bounds checks, and — unless the entry has no edges — the fault
        poll, CRC verification, page-cache filter and seq/ran charges.
        Raises what those reads raise; every entry the data pass left
        unread raises here.
        """
        store = self.store
        if self.index is not None:
            store._charge_index(self.block.i, self.block.j, *self.index)
        require(not self._negative, "corrupt index: negative edge counts")
        store._edges_file.check_runs(*self._bounds)
        if self._runs is not None:
            store._edges_file.charge_runs(*self._runs, totals=self._totals)

    def __call__(self) -> EdgeBlock:
        self.charge()
        return self.block


class GridStore:
    """Reader/writer for the on-disk grid representation."""

    def __init__(
        self,
        device: Device,
        prefix: str,
        intervals: VertexIntervals,
        block_counts: np.ndarray,
        has_weights: bool,
        indexed: bool,
        encoding: str = ENCODING_RAW,
        count_codes: Optional[np.ndarray] = None,
        dst_codes: Optional[np.ndarray] = None,
    ) -> None:
        require(encoding in ENCODINGS, f"unknown grid encoding {encoding!r}")
        self.device = device
        self.prefix = prefix
        self.intervals = intervals
        self.block_counts = np.ascontiguousarray(block_counts, dtype=np.int64)
        P = intervals.P
        require(self.block_counts.shape == (P, P), "block_counts must be P x P")
        self.has_weights = has_weights
        self.indexed = indexed
        self.encoding = encoding
        #: Out-degree of every vertex, a by-product of :meth:`build`;
        #: ``None`` on a store opened from disk.
        self.out_degrees: Optional[np.ndarray] = None

        sizes = intervals.sizes()
        #: Active ids per chunk of :meth:`read_selective`: one interval's worth.
        self._chunk_ids = int(sizes.max())
        if encoding in _COMPACT_ENCODINGS:
            require(indexed, "compact encoding requires an indexed (source-sorted) grid")
            require(count_codes is not None, "compact encoding requires count_codes")
            self._count_codes = np.ascontiguousarray(count_codes, dtype=np.int64)
            require(self._count_codes.shape == (P, P), "count_codes must be P x P")
            if encoding == ENCODING_COMPACT3:
                require(dst_codes is not None, "compact3 encoding requires dst_codes")
                self._dst_codes = np.ascontiguousarray(dst_codes, dtype=np.int64)
                require(self._dst_codes.shape == (P, P), "dst_codes must be P x P")
            else:
                self._dst_codes = None
            # Encoded bytes of block (i, j): run-length header (one entry
            # per vertex of interval i) + packed (dst_local, [wgt]) records.
            rec_sizes = np.array(
                [
                    [self._record_dtype_at(i, j).itemsize for j in range(P)]
                    for i in range(P)
                ],
                dtype=np.int64,
            )
            header = sizes[:, None] * self._count_codes
            self._block_bytes = np.where(
                self.block_counts > 0,
                header + self.block_counts * rec_sizes,
                0,
            ).astype(np.int64)
        else:
            self._count_codes = None
            self._dst_codes = None
            edge_dtype = EDGE_WEIGHTED_DTYPE if has_weights else EDGE_UNWEIGHTED_DTYPE
            self._block_bytes = self.block_counts * edge_dtype.itemsize

        # Storage-order (dst-major) offsets: block (i, j) starts at
        # _block_start[i, j] items (raw) / _block_byte_start[i, j] bytes
        # into the edges file.
        order_counts = self.block_counts.T.reshape(-1)  # (j, i) raveled
        starts = np.concatenate(([0], np.cumsum(order_counts)[:-1]))
        self._block_start = starts.reshape(P, P).T.copy()  # back to [i, j]
        order_bytes = self._block_bytes.T.reshape(-1)
        byte_starts = np.concatenate(([0], np.cumsum(order_bytes)[:-1]))
        self._block_byte_start = byte_starts.reshape(P, P).T.copy()

        if indexed:
            # compact3 stores each block's offsets in its narrowest uint
            # (offsets range 0..count); earlier formats use flat int64.
            # _index_start is in *file items*: entries for the int64
            # file, bytes for compact3's byte file.
            if encoding == ENCODING_COMPACT3:
                self._idx_codes = np.array(
                    [[_narrowest_uint(int(c)).itemsize for c in row] for row in self.block_counts],
                    dtype=np.int64,
                )
            else:
                self._idx_codes = None
            idx_lens = np.tile(sizes + 1, P)  # storage (j, i) order
            if self._idx_codes is not None:
                idx_lens *= self._idx_codes.T.reshape(-1)
            idx_starts = np.concatenate(([0], np.cumsum(idx_lens)[:-1]))
            self._index_start = idx_starts.reshape(P, P).T.copy()  # [i, j]
            self._index_items_total = int(idx_lens.sum())

            # Block (i, j)'s row i * P + j: what read_selective needs to
            # find its offsets and records, gathered once per chunk.
            geometry = np.zeros((P, P), dtype=_GEOMETRY_DTYPE)
            geometry["lo_i"] = intervals.boundaries[:-1, None]
            geometry["lo_j"] = intervals.boundaries[None, :-1]
            geometry["index"] = self._index_start
            geometry["unit"] = 1 if self._idx_codes is None else self._idx_codes
            if encoding in _COMPACT_ENCODINGS:  # records behind the header
                geometry["records"] = self._block_byte_start + header
                geometry["rec"] = rec_sizes
                geometry["width"] = [
                    [self._dst_dtype_at(i, j).itemsize for j in range(P)] for i in range(P)
                ]
            else:
                geometry["records"] = self._block_start
                geometry["rec"] = 1
            self._geometry = geometry.ravel()
        else:
            self._idx_codes = None
            self._index_start = None
            self._index_items_total = 0

        if encoding in _COMPACT_ENCODINGS:
            self._edges_file = device.array_file(f"{prefix}.edges", BYTE_DTYPE)
        else:
            edge_dtype = EDGE_WEIGHTED_DTYPE if has_weights else EDGE_UNWEIGHTED_DTYPE
            self._edges_file = device.array_file(f"{prefix}.edges", edge_dtype)
        idx_dtype = BYTE_DTYPE if encoding == ENCODING_COMPACT3 else INDEX_DTYPE
        self._idx_file = device.array_file(f"{prefix}.idx", idx_dtype) if indexed else None

    # -- compact-encoding dtypes ------------------------------------------

    def _dst_dtype(self, j: int) -> np.dtype:
        """Local-destination dtype of column ``j`` (from interval width)."""
        width = self.intervals.size(j)
        return _narrowest_uint(max(0, width - 1))

    def _dst_dtype_at(self, i: int, j: int) -> np.dtype:
        """Local-destination dtype of block ``(i, j)``.

        Per-column (interval width) through format 2; compact3 narrows
        per block using the recorded ``dst_dtype_codes``.
        """
        if self._dst_codes is not None:
            code = int(self._dst_codes[i, j])
            require(code in _UINT_BY_ITEMSIZE, f"block ({i},{j}): bad dst dtype code {code}")
            return _UINT_BY_ITEMSIZE[code]
        return self._dst_dtype(j)

    def _record_dtype(self, j: int) -> np.dtype:
        """Packed per-edge record dtype of column ``j`` (compact encoding)."""
        return _packed_record_dtype(self._dst_dtype(j), self.has_weights)

    def _record_dtype_at(self, i: int, j: int) -> np.dtype:
        """Packed per-edge record dtype of block ``(i, j)``."""
        return _packed_record_dtype(self._dst_dtype_at(i, j), self.has_weights)

    def _count_dtype(self, i: int, j: int) -> np.dtype:
        code = int(self._count_codes[i, j])
        require(code in _UINT_BY_ITEMSIZE, f"block ({i},{j}): bad count dtype code {code}")
        return _UINT_BY_ITEMSIZE[code]

    def _idx_dtype(self, i: int, j: int) -> np.dtype:
        """On-disk offset dtype of block ``(i, j)``'s index slice."""
        if self._idx_codes is None:
            return INDEX_DTYPE
        return _UINT_BY_ITEMSIZE[int(self._idx_codes[i, j])]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        edges: EdgeList,
        intervals: VertexIntervals,
        device: Device,
        prefix: str = "graph",
        indexed: bool = True,
        sort_within_blocks: bool = True,
        encoding: str = ENCODING_RAW,
    ) -> "GridStore":
        """Partition ``edges`` into the grid and write the data files.

        ``sort_within_blocks=False`` reproduces Lumos-style preprocessing:
        edges are grouped into sub-blocks but left unsorted inside, which
        is cheaper to build but cannot support a per-vertex index
        (``indexed`` is forced off). ``encoding="compact"`` writes the
        format-2 layout (see module docstring) and ``"compact3"`` the
        format-3 layout (compact payload + narrowest-uint index and
        per-block dst widths); both require the sorted, indexed
        representation because the run-length headers are the per-vertex
        degrees the sort exposes.
        """
        require(
            intervals.num_vertices == edges.num_vertices,
            "intervals do not cover the edge list's vertex universe",
        )
        require(encoding in ENCODINGS, f"unknown grid encoding {encoding!r}")
        indexed = indexed and sort_within_blocks
        require(
            encoding not in _COMPACT_ENCODINGS or indexed,
            "compact encoding requires sort_within_blocks=True and indexed=True",
        )
        P, n, m = intervals.P, intervals.num_vertices, edges.num_edges
        require(n <= 1 << 32, f"{n} vertices: ids exceed uint32, the on-disk id type")
        bounds, sizes = intervals.boundaries, intervals.sizes()
        # A |V|-entry lookup table turns "interval of this id" into one
        # gather per edge instead of a searchsorted over the boundaries.
        interval_of = np.repeat(np.arange(P, dtype=np.int64), sizes)
        col = interval_of[edges.dst]
        # table[j, v] = edges of source v in destination column j. Every
        # other structure is a slice of it or of its running sum:
        # in-block degrees (compact headers), CSR offsets, block counts
        # and the out-degree vector. O(P * |V|) int64, like the raw .idx.
        table = np.bincount(col * n + edges.src, minlength=P * n).reshape(P, n)
        cum = np.zeros((P, n + 1), dtype=np.int64)
        np.cumsum(table, axis=1, out=cum[:, 1:])
        block_counts = (cum[:, bounds[1:]] - cum[:, bounds[:-1]]).T  # [i, j]

        # Storage order is (column, source, destination, input position);
        # a source fixes its row, so rows need no key of their own.
        vbits, pos_bits = max(n - 1, 0).bit_length(), max(m - 1, 0).bit_length()
        perm = None
        if not sort_within_blocks:
            # Lumos: group by block, keep input order inside. The
            # narrowest uint lets numpy's stable sort pick radix.
            block_key = (col * P + interval_of[edges.src]).astype(_narrowest_uint(P * P - 1))
            perm = np.argsort(block_key, kind="stable")
        elif (P - 1).bit_length() + 2 * vbits + pos_bits > _KEY_BITS:
            perm = np.lexsort((edges.dst, edges.src, col))
        if perm is not None:
            src, dst = edges.src[perm], edges.dst[perm]
        else:
            # All four sort keys fit one non-negative int64, so one
            # value sort orders the edges; the position bits reproduce
            # lexsort's stable tie order and carry the permutation.
            key = col  # packed in col's buffer: one int64 per edge in all
            key <<= vbits
            key |= edges.src
            key <<= vbits
            key |= edges.dst
            key <<= pos_bits
            key |= np.arange(m, dtype=np.int64)
            key.sort()
            if edges.has_weights:
                perm = key & ((1 << pos_bits) - 1)
            key >>= pos_bits
            dst = (key & ((1 << vbits) - 1)).astype(VERTEX_DTYPE)
            src = (key >> vbits & ((1 << vbits) - 1)).astype(VERTEX_DTYPE)
        wgt = edges.weights[perm] if edges.has_weights else None

        count_codes = dst_codes = None
        if encoding in _COMPACT_ENCODINGS:
            count_codes = np.zeros((P, P), dtype=np.int64)
            dst_codes = np.ones((P, P), dtype=np.int64)  # empty blocks: uint8
            parts = [np.empty(0, dtype=BYTE_DTYPE)]
            pos = 0
            for j in range(P):
                lo_j, hi_j = intervals.bounds(j)
                column_dtype = _narrowest_uint(max(0, hi_j - lo_j - 1))
                for i in range(P):
                    cnt = int(block_counts[i, j])
                    if cnt == 0:
                        continue
                    runs = table[j, bounds[i] : bounds[i + 1]]
                    header = runs.astype(_narrowest_uint(int(runs.max())))
                    local = dst[pos : pos + cnt] - VERTEX_DTYPE.type(lo_j)
                    block_dtype = _narrowest_uint(int(local.max()))
                    count_codes[i, j] = header.dtype.itemsize
                    dst_codes[i, j] = block_dtype.itemsize
                    dst_dtype = block_dtype if encoding == ENCODING_COMPACT3 else column_dtype
                    records = np.empty(cnt, _packed_record_dtype(dst_dtype, edges.has_weights))
                    records["dst"] = local
                    if edges.has_weights:
                        records["wgt"] = wgt[pos : pos + cnt]
                    parts += [header.view(BYTE_DTYPE), records.view(BYTE_DTYPE)]
                    pos += cnt
            data = np.concatenate(parts)
        else:
            data = np.empty(
                m, dtype=EDGE_WEIGHTED_DTYPE if edges.has_weights else EDGE_UNWEIGHTED_DTYPE
            )
            data["src"] = src
            data["dst"] = dst
            if edges.has_weights:
                data["wgt"] = wgt
        store = cls(
            device, prefix, intervals, block_counts, edges.has_weights, indexed,
            encoding=encoding, count_codes=count_codes, dst_codes=dst_codes,
        )
        require(data.nbytes == store.total_edge_bytes, "encoder produced inconsistent byte counts")
        store._edges_file.write(data)

        if indexed:
            # Block (i, j)'s CSR offsets: column j's running degree sum
            # over interval i, closing entry included, re-based at the
            # interval's first vertex. One column is |V| + P entries.
            vertex = np.arange(n + P, dtype=np.int64)
            vertex -= np.repeat(np.arange(P, dtype=np.int64), sizes + 1)
            offsets = np.take(cum, vertex, axis=1)  # C order, unlike cum[:, vertex]
            offsets -= np.take(cum, np.repeat(bounds[:-1], sizes + 1), axis=1)
            offsets = offsets.ravel()
            if encoding == ENCODING_COMPACT3:
                # Narrowest-uint per block: offsets are block-relative,
                # so the block's edge count bounds them.
                parts, pos = [], 0
                for i, j in store.iter_blocks_dst_major():
                    end = pos + int(sizes[i]) + 1
                    packed = offsets[pos:end].astype(store._idx_dtype(i, j))
                    parts.append(packed.view(BYTE_DTYPE))
                    pos = end
                offsets = np.concatenate(parts)
            store._idx_file.write(offsets)

        store.out_degrees = table.sum(axis=0)
        store._write_meta()
        return store

    def _write_meta(self) -> None:
        meta = {
            "prefix": self.prefix,
            "format": _FORMAT_BY_ENCODING[self.encoding],
            "encoding": self.encoding,
            "boundaries": self.intervals.boundaries.tolist(),
            "block_counts": self.block_counts.tolist(),
            "has_weights": self.has_weights,
            "indexed": self.indexed,
        }
        if self.encoding in _COMPACT_ENCODINGS:
            meta["count_dtype_codes"] = self._count_codes.tolist()
        if self.encoding == ENCODING_COMPACT3:
            meta["dst_dtype_codes"] = self._dst_codes.tolist()
        self.device.write_meta_text(f"{self.prefix}.meta.json", json.dumps(meta))

    @classmethod
    def open(cls, device: Device, prefix: str = "graph") -> "GridStore":
        """Open an existing grid representation on ``device``.

        Grids written before the format field existed are format 1 (the
        raw layout, unchanged). Any format this build does not know
        raises :class:`GridFormatError` with the supported versions —
        never a silent garbage decode.
        """
        meta = json.loads(device.read_meta_text(f"{prefix}.meta.json"))
        fmt = int(meta.get("format", FORMAT_RAW))
        if fmt not in SUPPORTED_FORMATS:
            supported = ", ".join(
                f"{v} ({name})" for v, name in sorted(SUPPORTED_FORMATS.items())
            )
            raise GridFormatError(
                f"grid {prefix!r} was written with on-disk format {fmt}, which "
                f"this build cannot read; supported formats: {supported}. "
                "Rebuild the representation with `graphsd preprocess`."
            )
        encoding = SUPPORTED_FORMATS[fmt]
        declared = meta.get("encoding", encoding)
        require(
            declared == encoding,
            f"grid {prefix!r}: meta declares encoding {declared!r} but format {fmt}",
        )
        count_codes = None
        dst_codes = None
        if encoding in _COMPACT_ENCODINGS:
            require(
                "count_dtype_codes" in meta,
                f"grid {prefix!r}: compact meta is missing count_dtype_codes",
            )
            count_codes = np.asarray(meta["count_dtype_codes"], dtype=np.int64)
        if encoding == ENCODING_COMPACT3:
            require(
                "dst_dtype_codes" in meta,
                f"grid {prefix!r}: compact3 meta is missing dst_dtype_codes",
            )
            dst_codes = np.asarray(meta["dst_dtype_codes"], dtype=np.int64)
        intervals = VertexIntervals(np.asarray(meta["boundaries"], dtype=np.int64))
        return cls(
            device,
            prefix,
            intervals,
            np.asarray(meta["block_counts"], dtype=np.int64),
            bool(meta["has_weights"]),
            bool(meta["indexed"]),
            encoding=encoding,
            count_codes=count_codes,
            dst_codes=dst_codes,
        )

    # -- shape/metadata accessors -------------------------------------

    @property
    def P(self) -> int:
        return self.intervals.P

    @property
    def num_vertices(self) -> int:
        return self.intervals.num_vertices

    @property
    def total_edges(self) -> int:
        return int(self.block_counts.sum())

    @property
    def edge_record_bytes(self) -> int:
        """Bytes per raw edge record — ``M + W`` in the paper's notation.

        Only meaningful for the raw encoding; the compact layout has no
        global record size (byte cost varies per block), so callers that
        need byte figures must use :meth:`block_nbytes`,
        :meth:`column_nbytes`, :attr:`total_edge_bytes`, or
        :attr:`adjacency_bytes_per_edge` instead.
        """
        if self.encoding in _COMPACT_ENCODINGS:
            raise RuntimeError(
                "compact grid stores have no global edge record size; use "
                "block_nbytes/column_nbytes/total_edge_bytes/adjacency_bytes_per_edge"
            )
        return int(self._edges_file.dtype.itemsize)

    @property
    def total_edge_bytes(self) -> int:
        """Encoded bytes of the edges file: the full I/O model's
        per-iteration edge read volume (``|E| (M + W)`` for raw)."""
        return int(self._block_bytes.sum())

    @property
    def logical_edge_bytes(self) -> int:
        """Decoded (in-memory) bytes of all edges: ``|E| (M + W)``.

        Encoding-independent — the figure to size memory budgets from
        (e.g. the §4.3 buffer's 'fraction of graph size' regime), so a
        compact store gets the same budget as its raw twin while its
        blocks are *accounted* at their smaller encoded size.
        """
        edge_dtype = EDGE_WEIGHTED_DTYPE if self.has_weights else EDGE_UNWEIGHTED_DTYPE
        return self.total_edges * edge_dtype.itemsize

    @property
    def adjacency_bytes_per_edge(self) -> float:
        """Mean per-edge adjacency bytes of a *selective* load.

        The on-demand model reads per-vertex record extents (the compact
        run-length headers are not re-read — offsets come from the
        index), so the per-edge cost is the record payload size:
        ``M + W`` for raw, the packed ``(dst_local, [wgt])`` size per
        column for compact. Averaged edge-weighted across columns for
        the scheduler's ``S_seq``/``S_ran`` estimate.
        """
        if self.encoding == ENCODING_COMPACT3:
            # Per-block record sizes: edge-weighted mean over blocks.
            rec_sizes = np.array(
                [
                    [self._record_dtype_at(i, j).itemsize for j in range(self.P)]
                    for i in range(self.P)
                ],
                dtype=np.float64,
            )
            total = self.total_edges
            if total == 0:
                return float(rec_sizes.mean()) if rec_sizes.size else 0.0
            return float((self.block_counts * rec_sizes).sum() / total)
        if self.encoding != ENCODING_COMPACT:
            return float(self._edges_file.dtype.itemsize)
        col_edges = self.block_counts.sum(axis=0)
        rec_sizes = np.array(
            [self._record_dtype(j).itemsize for j in range(self.P)], dtype=np.float64
        )
        total = int(col_edges.sum())
        if total == 0:
            return float(rec_sizes.mean()) if rec_sizes.size else 0.0
        return float((col_edges * rec_sizes).sum() / total)

    def selective_record_bytes(self, j: int) -> int:
        """Per-edge payload bytes of a selective load in column ``j``.

        For compact3 this is the column's widest per-block record (an
        upper bound — actual loads use each block's own width).
        """
        if self.encoding == ENCODING_COMPACT3:
            return int(
                max(self._record_dtype_at(i, j).itemsize for i in range(self.P))
            )
        if self.encoding == ENCODING_COMPACT:
            return int(self._record_dtype(j).itemsize)
        return int(self._edges_file.dtype.itemsize)

    def index_entry_bytes(self, i: int) -> int:
        """Per-entry on-disk index bytes the scheduler should price for
        row ``i``: 8 (``INDEX_DTYPE``) through format 2, the row's widest
        per-block offset width in compact3 (a safe upper bound; actual
        reads use each block's own width)."""
        if self._idx_codes is None:
            return int(INDEX_DTYPE.itemsize)
        return int(self._idx_codes[i, :].max())

    @property
    def index_total_bytes(self) -> int:
        """Total on-disk bytes of the ``.idx`` file (0 when unindexed)."""
        if not self.indexed:
            return 0
        if self._idx_codes is not None:
            return self._index_items_total  # byte-addressed file
        return self._index_items_total * int(INDEX_DTYPE.itemsize)

    def block_edge_count(self, i: int, j: int) -> int:
        return int(self.block_counts[i, j])

    def block_nbytes(self, i: int, j: int) -> int:
        """Full-load (encoded, on-disk) size of sub-block ``(i, j)`` in bytes."""
        return int(self._block_bytes[i, j])

    def column_nbytes(self, j: int) -> int:
        """Encoded bytes of destination column ``j`` (one full-sweep extent)."""
        return int(self._block_bytes[:, j].sum())

    def iter_blocks_dst_major(self) -> Iterator[Tuple[int, int]]:
        """All ``(i, j)`` pairs in on-disk (destination-major) order."""
        for j in range(self.P):
            for i in range(self.P):
                yield (i, j)

    # -- full-block loads (the full I/O model) ---------------------------

    def _records_to_block(self, i: int, j: int, records: np.ndarray) -> EdgeBlock:
        wgt = records["wgt"].copy() if self.has_weights else None
        return EdgeBlock(
            i, j, records["src"].copy(), records["dst"].copy(), wgt,
            source_sorted=self.indexed,
        )

    def _empty_block(self, i: int, j: int) -> EdgeBlock:
        wgt = np.empty(0, dtype=np.float32) if self.has_weights else None
        return EdgeBlock(
            i, j, np.empty(0, dtype=VERTEX_DTYPE), np.empty(0, dtype=VERTEX_DTYPE), wgt
        )

    def _decode_compact(self, i: int, j: int, payload: np.ndarray) -> EdgeBlock:
        """Decode one compact sub-block's bytes into an :class:`EdgeBlock`.

        ``np.repeat`` over the run-length header reconstructs the source
        column; the local destinations get the interval base added back.
        Output arrays match the raw decoder's dtypes exactly, so engines
        cannot distinguish the encodings.
        """
        cnt = self.block_edge_count(i, j)
        if cnt == 0:
            return self._empty_block(i, j)
        lo_i, hi_i = self.intervals.bounds(i)
        lo_j, _ = self.intervals.bounds(j)
        header_bytes = (hi_i - lo_i) * int(self._count_codes[i, j])
        require(
            payload.shape[0] == self.block_nbytes(i, j),
            f"block ({i},{j}): expected {self.block_nbytes(i, j)} encoded bytes, "
            f"got {payload.shape[0]}",
        )
        # A copy, not a view: the block keeps it and must not pin the
        # whole column payload it was sliced from.
        runs = payload[:header_bytes].view(self._count_dtype(i, j)).copy()
        require(
            int(runs.sum()) == cnt,
            f"block ({i},{j}): corrupt compact header (run lengths sum to "
            f"{int(runs.sum())}, metadata says {cnt} edges)",
        )
        records = payload[header_bytes:].view(self._record_dtype_at(i, j))
        src = np.repeat(np.arange(lo_i, hi_i, dtype=VERTEX_DTYPE), runs)
        dst = records["dst"].astype(VERTEX_DTYPE) + VERTEX_DTYPE.type(lo_j)
        wgt = records["wgt"].astype(np.float32) if self.has_weights else None
        return EdgeBlock(i, j, src, dst, wgt, source_sorted=True, runs=runs)

    def load_block(self, i: int, j: int) -> EdgeBlock:
        """Sequentially read all edges of sub-block ``(i, j)``."""
        if self.encoding in _COMPACT_ENCODINGS:
            start = int(self._block_byte_start[i, j])
            payload = self._edges_file.read_slice(
                start, self.block_nbytes(i, j), sequential=True
            )
            return self._decode_compact(i, j, payload)
        start = int(self._block_start[i, j])
        count = self.block_edge_count(i, j)
        records = self._edges_file.read_slice(start, count, sequential=True)
        return self._records_to_block(i, j, records)

    def load_block_range(self, j: int, i_lo: int, i_hi: int) -> List[EdgeBlock]:
        """Read blocks ``(i_lo..i_hi-1, j)`` of one column as a single scan.

        Within a column the sub-blocks are stored contiguously in source-
        interval order, so a run of blocks is one sequential extent —
        this keeps full sweeps request-cheap (one read per column rather
        than per block), in either encoding.
        """
        require(0 <= i_lo <= i_hi <= self.P, "bad block range")
        if i_lo == i_hi:
            return []
        if self.encoding in _COMPACT_ENCODINGS:
            start = int(self._block_byte_start[i_lo, j])
            nbytes = [self.block_nbytes(i, j) for i in range(i_lo, i_hi)]
            payload = self._edges_file.read_slice(start, int(sum(nbytes)), sequential=True)
            blocks = []
            pos = 0
            for offset, nb in enumerate(nbytes):
                blocks.append(
                    self._decode_compact(i_lo + offset, j, payload[pos : pos + nb])
                )
                pos += nb
            return blocks
        start = int(self._block_start[i_lo, j])
        counts = [self.block_edge_count(i, j) for i in range(i_lo, i_hi)]
        records = self._edges_file.read_slice(start, int(sum(counts)), sequential=True)
        blocks = []
        pos = 0
        for offset, cnt in enumerate(counts):
            blocks.append(self._records_to_block(i_lo + offset, j, records[pos : pos + cnt]))
            pos += cnt
        return blocks

    def load_column(self, j: int) -> List[EdgeBlock]:
        """Read every sub-block of destination interval ``j`` in one scan."""
        return self.load_block_range(j, 0, self.P)

    # -- selective loads (the on-demand I/O model) ------------------------

    def _index_unit(self, i: int, j: int) -> int:
        """Index-file items per offset of block ``(i, j)``: one ``int64``
        through format 2, the block's offset width in compact3's bytes."""
        return 1 if self._idx_codes is None else int(self._idx_codes[i, j])

    def _index_slice(self, i: int, j: int, first: int, last: int) -> Tuple[int, int]:
        """``(start item, item count)`` of offsets ``first..last`` of block
        ``(i, j)``'s index."""
        unit = self._index_unit(i, j)
        return int(self._index_start[i, j]) + first * unit, (last - first + 1) * unit

    def _index_runs(self, i: int, j: int, local_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One ``(start item, item count)`` run per local id: its
        ``(offset, next_offset)`` pair in block ``(i, j)``'s index."""
        unit = self._index_unit(i, j)
        starts = int(self._index_start[i, j]) + local_ids * unit
        return starts, np.full(local_ids.shape, 2 * unit, dtype=np.int64)

    def _widen_offsets(self, i: int, j: int, payload: np.ndarray) -> np.ndarray:
        """Offsets read from block ``(i, j)``'s index as ``int64``."""
        if self._idx_codes is None:
            return payload
        return payload.view(self._idx_dtype(i, j)).astype(INDEX_DTYPE)

    def read_block_index(self, i: int, j: int) -> np.ndarray:
        """Sequentially read the full offset index of sub-block ``(i, j)``.

        Always returns ``int64`` offsets: compact3's narrowest-uint
        columns are widened after the (smaller) read, so callers see
        identical values in every format.
        """
        self._require_indexed()
        start, count = self._index_slice(i, j, 0, self.intervals.size(i))
        return self._widen_offsets(i, j, self._idx_file.read_slice(start, count, sequential=True))

    def read_index_span(self, i: int, j: int, lo_local: int, hi_local: int) -> np.ndarray:
        """Sequentially read index entries ``[lo_local, hi_local]`` (inclusive
        of the trailing offset) of sub-block ``(i, j)``.

        The cheap middle ground between a full row scan and per-vertex
        gathers: when the active vertices of interval ``i`` cluster in a
        narrow id range (e.g. a frontier wave), one contiguous slice
        covers all their offsets.
        """
        self._require_indexed()
        require(0 <= lo_local <= hi_local <= self.intervals.size(i), "bad index span")
        start, count = self._index_slice(i, j, lo_local, hi_local)
        return self._widen_offsets(i, j, self._idx_file.read_slice(start, count, sequential=True))

    def read_index_entries(self, i: int, j: int, local_ids: np.ndarray) -> np.ndarray:
        """Randomly gather ``(offset, next_offset)`` pairs for ``local_ids``.

        Cheaper than :meth:`read_block_index` when few vertices of
        interval ``i`` are active. Returns an ``(n, 2)`` array.
        """
        self._require_indexed()
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if local_ids.size == 0:
            return np.empty((0, 2), dtype=INDEX_DTYPE)
        payload = self._idx_file.read_gather(*self._index_runs(i, j, local_ids))
        return self._widen_offsets(i, j, payload).reshape(-1, 2)

    def _charge_index(self, i: int, j: int, mode: int, local_ids: np.ndarray) -> None:
        """The accounting half of the index read ``mode`` makes for the
        ascending, non-empty ``local_ids`` of block ``(i, j)``: what
        :meth:`read_index_entries`, :meth:`read_index_span` over the ids'
        range, or :meth:`read_block_index` would charge."""
        if mode == INDEX_GATHER:
            starts, counts = self._index_runs(i, j, local_ids)
            pair, n = int(counts[0]), counts.size
            self._idx_file.check_runs(int(starts[0]), pair, int(starts[-1]) + pair)
            nbytes = n * pair * self._idx_file.dtype.itemsize
            self._idx_file.charge_runs(starts, counts, totals=((0, 0), (nbytes, n)))
            return
        if mode == INDEX_SPAN:
            first, last = int(local_ids[0]), int(local_ids[-1]) + 1
        else:
            first, last = 0, self.intervals.size(i)
        self._idx_file.charge_slice(*self._index_slice(i, j, first, last), sequential=True)

    def read_selective(
        self,
        entries: Sequence[SelectiveEntry],
        seq_threshold_bytes: Optional[int] = None,
    ) -> List["SelectiveLoad"]:
        """Read many blocks' active edges in one data pass; charge each later.

        Every entry's ``(offset, next_offset)`` pairs and the edges they
        delimit are read through the mapped ``.idx`` and ``.edges`` files
        in a few vectorized numpy calls — nothing is charged and nothing
        raises here. Each entry comes back as a :class:`SelectiveLoad`
        holding its :class:`EdgeBlock` (a slice of the pass's arrays,
        equal to what :meth:`load_active_edges` returns for the entry's
        offsets) and a :meth:`~SelectiveLoad.charge` that runs exactly
        the accounting of the entry's own index read (by its mode) and
        :meth:`load_active_edges`, in that order. An entry whose offsets
        fall outside the index, decrease, or point outside the edges file
        is left unread, and its ``charge()`` raises the error those
        single reads raise.

        Entries are read in chunks of at most one source interval's worth
        of active ids, which bounds the pass's transient arrays.
        """
        self._require_indexed()
        if not entries:
            return []
        index, edges = self._idx_file.mapped(), self._edges_file.mapped()
        loads: List[SelectiveLoad] = []
        chunk: List[SelectiveEntry] = []
        width = 0
        for entry in entries:
            if chunk and width + len(entry[2]) > self._chunk_ids:
                loads += self._read_chunk(chunk, index, edges, seq_threshold_bytes)
                chunk, width = [], 0
            chunk.append(entry)
            width += len(entry[2])
        loads += self._read_chunk(chunk, index, edges, seq_threshold_bytes)
        return loads

    def _read_chunk(
        self,
        chunk: Sequence[SelectiveEntry],
        index: np.ndarray,
        edges: np.ndarray,
        seq_threshold_bytes: Optional[int],
    ) -> List["SelectiveLoad"]:
        """:meth:`read_selective` for one chunk: the index pass, then the
        edge pass."""
        blocks = [entry[0] * self.P + entry[1] for entry in chunk]
        geom = self._geometry[blocks]
        sizes = [len(entry[2]) for entry in chunk]
        owner = np.repeat(np.arange(len(chunk), dtype=np.intp), sizes)
        active = np.concatenate([entry[2] for entry in chunk]).astype(np.int64)
        local = active - geom["lo_i"][owner]
        unit = geom["unit"][owner]
        pos = geom["index"][owner] + local * unit
        inside = (pos >= 0) & (pos + 2 * unit <= index.shape[0])
        offsets = np.zeros((2, owner.size), dtype=INDEX_DTYPE)
        if self._idx_codes is None:  # int64 offsets
            offsets[:, inside] = index[pos[inside] + np.arange(2, dtype=np.int64)[:, None]]
        else:  # each block's offsets in its own uint width
            for width in set(geom["unit"].tolist()):
                sel = inside & (unit == width)
                at = pos[sel] + np.arange(2, dtype=np.int64)[:, None] * width
                offsets[:, sel] = _read_le(index, at, _UINT_BY_ITEMSIZE[width])
        bounds = np.cumsum([0] + sizes)
        readable = np.logical_and.reduceat(inside, bounds[:-1])
        loads = self._select_edges(
            blocks, geom, bounds, owner, active, offsets, readable, edges, seq_threshold_bytes
        )
        for e, (load, entry) in enumerate(zip(loads, chunk)):
            load.index = (int(entry[3]), local[bounds[e] : bounds[e + 1]])
        return loads

    def _select_edges(
        self,
        blocks: List[int],
        geom: np.ndarray,
        bounds: np.ndarray,
        owner: np.ndarray,
        active: np.ndarray,
        offsets: np.ndarray,
        readable: np.ndarray,
        edges: np.ndarray,
        seq_threshold_bytes: Optional[int],
    ) -> List["SelectiveLoad"]:
        """The edge pass of :meth:`read_selective` and :meth:`load_active_edges`.

        Entry ``e`` is block ``blocks[e]`` (``i * P + j``, geometry
        ``geom[e]``); its active ids ``active[bounds[e]:bounds[e + 1]]``
        (ascending; ``owner`` maps each to ``e``) own the edges
        ``offsets[0, k]`` up to ``offsets[1, k]``. An entry not
        ``readable`` (its offsets could not be read) or ruled out by the
        bounds gets an empty block; its accounting raises.
        """
        firsts = bounds[:-1]
        rec = geom["rec"]
        per_vertex = offsets[1] - offsets[0]
        starts = geom["records"][owner] + offsets[0] * rec[owner]
        counts = per_vertex * rec[owner]
        ends = starts + counts
        negative = np.logical_or.reduceat(per_vertex < 0, firsts)
        min_start = np.minimum.reduceat(starts, firsts)
        max_end = np.maximum.reduceat(ends, firsts)
        valid = readable & ~negative & (min_start >= 0) & (max_end <= edges.shape[0])

        # Adjacent extents of one entry merge into one run (one request).
        m_starts, m_counts, group_ids = merge_runs(starts, counts, firsts)
        entry_runs = np.append(group_ids[firsts], m_starts.size)
        itemsize = self._edges_file.dtype.itemsize
        nonempty = m_counts > 0
        seq = np.zeros(m_counts.size, dtype=bool)
        if seq_threshold_bytes is not None:
            seq = nonempty & (m_counts * itemsize >= int(seq_threshold_bytes))
        firsts_run = entry_runs[:-1]
        items = np.add.reduceat(m_counts, firsts_run)
        seq_items = np.add.reduceat(m_counts * seq, firsts_run)
        runs = np.add.reduceat(nonempty, firsts_run, dtype=np.int64)
        seq_runs = np.add.reduceat(seq, firsts_run, dtype=np.int64)

        take = valid[owner] & (per_vertex > 0)
        taken = per_vertex[take]
        if self.encoding in _COMPACT_ENCODINGS:
            edge_owner = owner[take].repeat(taken)
            at = run_positions(offsets[0][take], taken) * rec[edge_owner]
            at += geom["records"][edge_owner]
            widths = geom["width"][edge_owner]
            local = np.empty(at.size, dtype=VERTEX_DTYPE)
            for width in set(geom["width"].tolist()):
                sel = widths == width
                local[sel] = _read_le(edges, at[sel], _UINT_BY_ITEMSIZE[width])
            src = active[take].astype(VERTEX_DTYPE).repeat(taken)
            dst = local + geom["lo_j"].astype(VERTEX_DTYPE)[edge_owner]
            wgt = _read_le(edges, at + widths, np.dtype("<f4")) if self.has_weights else None
        else:
            records = edges[run_positions(starts[take], counts[take])]
            src, dst = records["src"].copy(), records["dst"].copy()
            wgt = records["wgt"].copy() if self.has_weights else None
        edge_bounds = np.cumsum(np.where(valid, items // rec, 0)).tolist()

        loads = []
        a = r0 = 0
        for block, b, r1, bad, lo, hi, n_items, n_seq_items, n_runs, n_seq_runs in zip(
            blocks, edge_bounds, entry_runs[1:].tolist(), negative.tolist(),
            min_start.tolist(), max_end.tolist(), items.tolist(), seq_items.tolist(),
            runs.tolist(), seq_runs.tolist(),
        ):
            block_i, block_j = divmod(block, self.P)
            edge_block = EdgeBlock(
                block_i, block_j, src[a:b], dst[a:b], None if wgt is None else wgt[a:b],
                source_sorted=True,
            )
            totals = (
                (n_seq_items * itemsize, n_seq_runs),
                ((n_items - n_seq_items) * itemsize, n_runs - n_seq_runs),
            )
            loads.append(
                SelectiveLoad(
                    self,
                    edge_block,
                    negative=bad,
                    # An entry's merged runs are sums of its per-vertex
                    # extents, never negative once the count check passed.
                    bounds=(lo, 0, hi),
                    runs=(m_starts[r0:r1], m_counts[r0:r1], seq[r0:r1]) if n_items else None,
                    totals=totals,
                )
            )
            a, r0 = b, r1
        return loads

    def load_active_edges(
        self,
        i: int,
        j: int,
        active_global_ids: np.ndarray,
        offsets_pairs: np.ndarray,
        seq_threshold_bytes: Optional[int] = None,
    ) -> EdgeBlock:
        """Gather the edges of the given active sources inside block ``(i, j)``.

        ``offsets_pairs`` is the ``(n, 2)`` block-relative offset pairs for
        the active vertices (from :meth:`read_block_index` slicing or
        :meth:`read_index_entries`), in ascending vertex-id order.
        Adjacent per-vertex extents (consecutive active ids) are merged
        into single disk runs; merged runs of at least
        ``seq_threshold_bytes`` are charged at sequential bandwidth —
        the concrete realization of the paper's ``S_seq``/``S_ran``
        split. Per-edge read volume is the encoding's per-record payload
        (``M + W`` raw, the packed local record compact), exactly the
        cost-model's on-demand term. The one-entry case of
        :meth:`read_selective`'s edge pass, charged before it returns.
        """
        active_global_ids = np.asarray(active_global_ids, dtype=np.int64)
        n = active_global_ids.shape[0]
        require(offsets_pairs.shape == (n, 2), "offsets_pairs shape mismatch")
        if n == 0:
            return self._empty_block(i, j)
        self._require_indexed()
        block = i * self.P + j
        (load,) = self._select_edges(
            [block],
            self._geometry[[block]],
            np.array([0, n], dtype=np.intp),
            np.zeros(n, dtype=np.intp),
            active_global_ids,
            np.asarray(offsets_pairs, dtype=INDEX_DTYPE).T,
            np.ones(1, dtype=bool),
            self._edges_file.mapped(),
            seq_threshold_bytes,
        )
        return load()

    def validate(self) -> None:
        """Full integrity check of the on-disk representation.

        Verifies, for every sub-block: edge endpoints fall in the
        block's (source, destination) intervals, metadata counts match
        the data (including the compact run-length headers), and — when
        indexed — edges are in ``(src, dst)`` order and the CSR offsets
        reproduce each vertex's edge range exactly. Raises
        :class:`ValueError` on the first inconsistency. Intended for
        post-preprocessing sanity checks and fsck-style debugging of
        copied representations.
        """
        total = 0
        for (i, j) in self.iter_blocks_dst_major():
            block = self.load_block(i, j)
            require(
                block.count == self.block_edge_count(i, j),
                f"block ({i},{j}): data has {block.count} edges, "
                f"metadata says {self.block_edge_count(i, j)}",
            )
            total += block.count
            if block.count == 0:
                continue
            lo_i, hi_i = self.intervals.bounds(i)
            lo_j, hi_j = self.intervals.bounds(j)
            require(
                int(block.src.min()) >= lo_i and int(block.src.max()) < hi_i,
                f"block ({i},{j}): source id outside interval {i}",
            )
            require(
                int(block.dst.min()) >= lo_j and int(block.dst.max()) < hi_j,
                f"block ({i},{j}): destination id outside interval {j}",
            )
            if self.indexed:
                src_step = np.diff(block.src.astype(np.int64))
                require(
                    bool(np.all(src_step >= 0)),
                    f"block ({i},{j}): edges not sorted by source",
                )
                dst_step = np.diff(block.dst.astype(np.int64))
                require(
                    bool(np.all((src_step > 0) | (dst_step >= 0))),
                    f"block ({i},{j}): edges of one source not sorted by destination",
                )
                offsets = self.read_block_index(i, j)
                require(
                    offsets[0] == 0 and offsets[-1] == block.count,
                    f"block ({i},{j}): index range does not cover the block",
                )
                require(
                    bool(np.all(np.diff(offsets) >= 0)),
                    f"block ({i},{j}): index offsets not monotone",
                )
                counts = np.bincount(
                    block.src.astype(np.int64) - lo_i, minlength=hi_i - lo_i
                )
                require(
                    bool(np.array_equal(np.diff(offsets), counts)),
                    f"block ({i},{j}): index disagrees with per-vertex edge counts",
                )
        require(
            total == self.total_edges,
            f"block counts sum to {total}, metadata says {self.total_edges}",
        )

    def read_all_sources(self) -> np.ndarray:
        """One full scan returning every edge's source id (context building)."""
        if self.encoding in _COMPACT_ENCODINGS:
            data = self._edges_file.read_all()
            parts: List[np.ndarray] = []
            for (i, j) in self.iter_blocks_dst_major():
                nb = self.block_nbytes(i, j)
                if nb == 0:
                    continue
                start = int(self._block_byte_start[i, j])
                parts.append(self._decode_compact(i, j, data[start : start + nb]).src)
            if not parts:
                return np.empty(0, dtype=VERTEX_DTYPE)
            return np.concatenate(parts)
        return self._edges_file.read_all()["src"]

    def _require_indexed(self) -> None:
        if not self.indexed:
            raise RuntimeError(
                f"grid store {self.prefix!r} was built without a per-vertex "
                "index; selective access is unavailable"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridStore(prefix={self.prefix!r}, P={self.P}, |V|={self.num_vertices}, "
            f"|E|={self.total_edges}, weighted={self.has_weights}, "
            f"indexed={self.indexed}, encoding={self.encoding})"
        )
