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
    the compact layout with two widths narrowed per block — exactly the
    bytes the on-demand (selective) path reads:

    * ``.idx`` offsets in the narrowest unsigned dtype that holds the
      block's edge count (offsets are block-relative, so their range is
      ``0..count``) instead of ``int64`` — a 2-8x shrink of every index
      scan, span and gather;
    * destination locals in the narrowest dtype holding the block's
      actual maximum ``dst_local``, recorded in the meta as
      ``dst_dtype_codes``.

    Decoded offsets and edges are bit-identical ``int64`` /
    :class:`EdgeBlock` values — request counts are unchanged, only the
    byte volume shrinks.

One set of per-block width tables, built when a store is constructed,
describes all three: the run-length header's bytes per source
(``count_dtype_codes``; none for raw), the destination's bytes, the
record's bytes and the offset's bytes. Format 3 reads its destination
widths from the meta; format 2 is the same tables with every block at
its column's destination width and 8-byte offsets; format 1 is raw
records with 8-byte offsets. Every reader prices and addresses blocks
through the tables alone — only the build's encoder, the meta, and the
decode of raw versus packed records tell the formats apart.

A column read (:meth:`GridStore.load_block_range`,
:meth:`GridStore.load_column`) is one charged sequential read that
returns one :class:`BlockHandle` per block — a view of the block's
encoded bytes in that read. Consumers decode a block just before they
push it, so a column is resident encoded and only a block or two of it
decoded; :meth:`GridStore.load_block` still returns a decoded block.

Files (all through :class:`~repro.storage.blockfile.ArrayFile`):

``{prefix}.edges``
    the encoded sub-blocks in grid order. Raw stores open it with the
    record dtype; compact stores open it as a byte stream
    (:data:`~repro.storage.blockfile.BYTE_DTYPE`) and address blocks by
    byte ranges, so CRC sidecars and fault injection compose unchanged.
``{prefix}.idx``
    per-block CSR offsets concatenated in storage order; block
    ``(i, j)``'s slice has ``interval_size(i) + 1`` block-relative
    offsets in its offset width (``int64`` through format 2). Absent
    when the store is built unindexed (the Lumos baseline's
    representation). Opened as a byte stream in every format and
    addressed by byte ranges.

Metadata (interval boundaries, per-block edge counts, the format
version, the per-block header widths of compact stores and the
destination widths of compact3) is stored as JSON next to the data
files. Opening a grid whose meta this build cannot read, or whose files
are not the size the meta describes, fails with a readable error instead
of a garbage decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate
from operator import floordiv
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
#: On-disk offset dtypes by itemsize: compact3's narrowed offsets and the
#: flat ``int64`` of formats 1 and 2.
_OFFSET_BY_ITEMSIZE = {**_UINT_BY_ITEMSIZE, 8: np.dtype("<i8")}
_WEIGHT_DTYPE = np.dtype("<f4")

#: Bit budget of :meth:`GridStore.build`'s packed per-column sort key
#: ``(src, dst, input position)``: it must stay a non-negative ``int64``
#: for a value sort to order it.
_KEY_BITS = 63

#: One binary search for an active source costs about this many edges'
#: mask lookups (:meth:`BlockHandle.count_active`; docs/PERFORMANCE.md).
EDGES_PER_SEARCH = 64

#: How a selective read of block ``(i, j)`` reads the active sources'
#: offsets, decided per source interval by the scheduler
#: (:meth:`~repro.core.scheduler.StateAwareScheduler.plan_index_access`).
INDEX_SPAN = 1  #: sequentially read the contiguous slice covering the actives
INDEX_GATHER = 2  #: randomly gather one (offset, next) pair per active vertex

#: One entry of :meth:`GridStore.read_selective`: block ``(i, j)``, the
#: active sources' global ids (ascending, non-empty, inside interval
#: ``i``) and the ``INDEX_*`` mode whose read the entry charges.
SelectiveEntry = Tuple[int, int, np.ndarray, int]

#: Where a selective read finds block ``(i, j)``: the first vertex of
#: intervals ``i`` and ``j`` and the size of ``i``; the byte of its first
#: offset in the index file and the bytes per offset; its first edge
#: record in the edges file
#: (compact: behind the run-length header) and the file items per record;
#: the byte width of a compact record's local destination; the key
#: :meth:`GridStore.read_selective` sorts its entries into storage order by.
_GEOMETRY_DTYPE = np.dtype(
    [
        (name, np.int64)
        for name in ("lo_i", "lo_j", "size_i", "index", "unit", "records", "rec", "width", "order")
    ]
)

#: Where an index pair's two offsets start, in offset widths past the pair.
_PAIR = np.arange(2, dtype=np.int64)[:, None]


class GridFormatError(ValueError):
    """The on-disk grid is in a format this build cannot read, or its
    meta and its files disagree."""


def _narrowest_uint(max_value: int) -> np.dtype:
    """The narrowest little-endian unsigned dtype holding ``max_value``."""
    if max_value < (1 << 8):
        return _UINT_BY_ITEMSIZE[1]
    if max_value < (1 << 16):
        return _UINT_BY_ITEMSIZE[2]
    require(max_value < (1 << 32), f"value {max_value} exceeds uint32")
    return _UINT_BY_ITEMSIZE[4]


def _width_codes(max_values: np.ndarray) -> np.ndarray:
    """The itemsizes of the narrowest unsigned dtypes holding ``max_values``."""
    values = np.asarray(max_values)
    codes = [_narrowest_uint(int(v)).itemsize for v in values.ravel()]
    return np.array(codes, dtype=np.int64).reshape(values.shape)


def _column_codes(intervals: VertexIntervals) -> np.ndarray:
    """Format 2's destination widths: every block at its column's width."""
    widths = _width_codes(np.maximum(intervals.sizes() - 1, 0))
    return np.tile(widths, (intervals.P, 1))


def _code_table(codes: np.ndarray, name: str, block_counts: np.ndarray) -> np.ndarray:
    """The meta width table ``name``, checked against the uint menu on
    every block with edges (empty blocks have no bytes to describe)."""
    table = np.asarray(codes, dtype=np.int64)
    if table.shape != block_counts.shape:
        raise GridFormatError(f"{name} is {table.shape}, not P x P {block_counts.shape}")
    bad = np.argwhere((block_counts > 0) & ~np.isin(table, list(_UINT_BY_ITEMSIZE)))
    if bad.size:
        i, j = bad[0]
        raise GridFormatError(
            f"{name}[{i}][{j}] is {table[i, j]}, not one of {sorted(_UINT_BY_ITEMSIZE)}"
        )
    return table


def _sorted_columns(
    edges: EdgeList, intervals: VertexIntervals, sort_within_blocks: bool
) -> Iterator[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]]:
    """Each destination column's edges in storage order, one column at a
    time: ``(src, dst, wgt, runs)``, where ``runs[v]`` is the number of
    the column's edges from source ``v`` (one ``bincount`` of its
    sources). The arrays may be views of buffers the next column reuses.

    A column's edges are found through a one-byte column id per edge
    (at ``P <= 256``), so the working set beyond it is one column. Sorted,
    the column is ordered by ``(src, dst, input position)`` — a source
    fixes its row, so rows need no key of their own — with one value sort
    of a packed non-negative ``int64`` key when the three fields fit
    :data:`_KEY_BITS`, else with ``np.lexsort``; both give the same order.
    Unsorted (Lumos), the column is grouped by row in input order.
    """
    P, n, m = intervals.P, intervals.num_vertices, edges.num_edges
    # A |V|-entry lookup table turns "interval of this id" into one
    # gather per edge instead of a searchsorted over the boundaries.
    interval_of = np.repeat(np.arange(P, dtype=_narrowest_uint(P - 1)), intervals.sizes())
    col = interval_of[edges.dst]
    in_column = np.empty(m, dtype=bool)
    vbits, pos_bits = max(n - 1, 0).bit_length(), max(m - 1, 0).bit_length()
    packed = sort_within_blocks and 2 * vbits + pos_bits <= _KEY_BITS
    # Key and destination buffers, grown to the largest column and reused.
    key = low = np.empty(0, dtype=np.int64)
    for j in range(P):
        pos = np.flatnonzero(np.equal(col, j, out=in_column))
        if packed:
            size = pos.shape[0]
            if key.shape[0] < size:
                key, low = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
            k, dst = key[:size], low[:size]
            k[...] = edges.src[pos]
            runs = np.bincount(k, minlength=n)
            # The position bits make every key distinct, reproduce
            # lexsort's stable tie order and carry the weights' permutation.
            k <<= vbits
            k |= edges.dst[pos]
            k <<= pos_bits
            k |= pos
            del pos
            k.sort()
            wgt = None
            if edges.has_weights:  # the positions pass through the dst buffer
                wgt = edges.weights[np.bitwise_and(k, (1 << pos_bits) - 1, out=dst)]
            k >>= pos_bits
            np.bitwise_and(k, (1 << vbits) - 1, out=dst)
            k >>= vbits
            yield k, dst, wgt, runs
        else:
            if sort_within_blocks:
                perm = np.lexsort((edges.dst[pos], edges.src[pos]))
            else:
                # The narrowest uint lets numpy's stable sort pick radix.
                perm = np.argsort(interval_of[edges.src[pos]], kind="stable")
            pos = pos[perm]
            src = edges.src[pos]
            wgt = edges.weights[pos] if edges.has_weights else None
            yield src, edges.dst[pos], wgt, np.bincount(src, minlength=n)


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
        fields.append(("wgt", _WEIGHT_DTYPE))
    return np.dtype(fields)


@dataclass
class EdgeBlock:
    """An in-memory sub-block: the edges of grid cell ``(i, j)``.

    ``source_sorted`` is set by stores whose blocks are sorted by source
    (every indexed store); it lets :meth:`select` reach the active
    sources' edges through per-source offsets instead of a pass over the
    block. ``runs`` is the compact decoder's run-length header
    (per-source in-block degrees) when it had one.
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

    def select(
        self, active: Optional[np.ndarray], lo: int, hi: int, gate: Optional[np.ndarray] = None
    ) -> "EdgeBlock":
        """The edges of the active sources, in block order.

        ``active`` holds ascending ids local to source interval
        ``[lo, hi)``; ``gate`` the same set as a mask over the interval,
        for a caller that has one (either may be ``None``, not both). A
        source-sorted block is cut through :meth:`source_offsets` in
        ``O(active sources + their edges)`` when the offsets are cheap:
        cached, or a running sum of the run-length header. A gated cut of
        a block without either takes one mask lookup per edge instead —
        deriving the offsets would count every edge's source, for offsets
        used once — as does a block of unknown order. An id-list cut
        derives the offsets and caches them for the next cut.
        """
        cheap = self._offsets is not None or self.runs is not None
        if self.source_sorted and (cheap or gate is None):
            if active is None:
                active = np.flatnonzero(gate)
            offsets = self.source_offsets(lo, hi)
            starts = offsets[active].astype(np.intp)
            positions = run_positions(starts, offsets[active + 1] - starts)
        else:
            if gate is None:
                gate = np.zeros(hi - lo, dtype=bool)
                gate[active] = True
            src = self.src - VERTEX_DTYPE.type(lo) if lo else self.src
            positions = np.flatnonzero(gate.take(src))
        wgt = None if self.wgt is None else self.wgt[positions]
        return EdgeBlock(self.i, self.j, self.src[positions], self.dst[positions], wgt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeBlock(({self.i},{self.j}), edges={self.count})"


class BlockHandle:
    """One sub-block as stored: a view of its encoded payload.

    ``payload`` is the block's items of the edges file — raw records, or
    a compact store's bytes (run-length header, then packed records) —
    usually a slice of the one read of its column. Column loads return
    handles, and a consumer decodes each just before it pushes it, so a
    column is resident encoded and at most a block or two decoded.
    :meth:`count_active` answers the §4.3 buffer's priority question
    from the payload itself, and :meth:`owned` is the copy the buffer
    keeps: its bytes are exactly the ``nbytes`` it is accounted at.
    """

    __slots__ = ("store", "i", "j", "payload")

    def __init__(self, store: "GridStore", i: int, j: int, payload: np.ndarray) -> None:
        self.store = store
        self.i = i
        self.j = j
        self.payload = payload

    @property
    def count(self) -> int:
        return self.store.block_edge_count(self.i, self.j)

    @property
    def nbytes(self) -> int:
        """Encoded bytes of the block (:meth:`GridStore.block_nbytes`)."""
        return int(self.payload.nbytes)

    def decode(self) -> EdgeBlock:
        return self.store._decode(self.i, self.j, self.payload)

    def count_active(self, mask: np.ndarray, lo: int, hi: int) -> int:
        """Number of edges whose source is set in the per-vertex ``mask``.

        ``[lo, hi)`` is source interval ``i``. Nothing is decoded: a
        compact block sums its run-length header over the active
        sources; a raw block looks every edge's source up in ``mask``,
        unless it is source-sorted and has over
        :data:`EDGES_PER_SEARCH` edges per active source, when it
        binary-searches the active sources in its ``src`` field instead.
        """
        store, payload, count = self.store, self.payload, self.count
        if count == 0:  # a compact block without edges has no header
            return 0
        gate = mask[lo:hi]
        if gate.all():
            return count
        active = np.flatnonzero(gate)
        if store.encoding in _COMPACT_ENCODINGS:
            width = _UINT_BY_ITEMSIZE[int(store._count_codes[self.i, self.j])]
            runs = payload[: (hi - lo) * width.itemsize].view(width)
            return int(runs[active].sum(dtype=np.int64))
        if store.indexed and active.size * EDGES_PER_SEARCH < count:
            src = np.ascontiguousarray(payload["src"])
            ids = (active + lo).astype(VERTEX_DTYPE)
            first = np.searchsorted(src, ids, side="left")
            return int(np.searchsorted(src, ids, side="right").sum() - first.sum())
        return int(np.count_nonzero(gate.take(payload["src"] - VERTEX_DTYPE.type(lo))))

    def owned(self) -> "BlockHandle":
        """The block over its own read-only byte copy of the payload,
        which pins no other block's bytes (blocks decoded from it may
        view it, and must not change it)."""
        payload = self.payload.view(BYTE_DTYPE).copy().view(self.payload.dtype)
        payload.flags.writeable = False
        return BlockHandle(self.store, self.i, self.j, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockHandle(({self.i},{self.j}), edges={self.count}, bytes={self.nbytes})"


class SelectiveLoad:
    """One block of :meth:`GridStore.read_selective`: its edges, already
    read, and the accounting of reading them, not yet run.

    Calling it runs :meth:`charge` and returns :attr:`block`, so it is a
    plan thunk as it stands.
    """

    __slots__ = (
        "store", "block", "index", "_file_bytes", "_negative", "_bounds", "_runs", "_totals"
    )

    def __init__(
        self,
        store: "GridStore",
        block: EdgeBlock,
        file_bytes: Tuple[Optional[int], int],
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
        self._file_bytes = file_bytes  # of .idx and .edges, as the data pass measured them
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

        First the index read by its mode — what
        :meth:`~GridStore.read_index_entries` or
        :meth:`~GridStore.read_index_span` over the ids' range would
        charge — then the edge read: the negative-count and bounds
        checks, and — unless the entry has no edges — the fault poll,
        CRC verification, page-cache filter and seq/ran charges. Bounds
        are checked against the file sizes the data pass measured, so
        the accounting makes no ``stat``, and an index gather's runs are
        built only for a file that charges each run. Raises what those
        reads raise; every entry the data pass left unread raises here.
        """
        store, block, idx = self.store, self.block, self.store._idx_file
        idx_bytes, edge_bytes = self._file_bytes
        if self.index is not None:
            mode, local = self.index
            first, last = int(local[0]), int(local[-1])
            store._require_in_interval(block.i, first, last)
            start, count = store._index_slice(block.i, block.j, first, last + 1)
            if mode == INDEX_GATHER:
                # One run per id: its (offset, next_offset) pair.
                unit = int(store._idx_codes[block.i, block.j])
                pair, n = 2 * unit, local.size
                idx.check_runs(start, pair, start + (last - first) * unit + pair, idx_bytes)
                totals = ((0, 0), (n * pair, n))
                if idx.charges_each_run:
                    starts = start + (local - first) * unit
                    idx.charge_runs(starts, np.full(n, pair, dtype=np.int64), totals=totals)
                else:
                    idx.charge_totals(totals)
            else:
                idx.charge_slice(start, count, sequential=True, nbytes=idx_bytes)
        require(not self._negative, "corrupt index: negative edge counts")
        store._edges_file.check_runs(*self._bounds, nbytes=edge_bytes)
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
        #: Active ids per chunk of :meth:`read_selective`: an average
        #: interval's worth, which bounds the chunk's arrays and reads.
        self._chunk_ids = max(1, intervals.num_vertices // P)

        # The layout's per-block width tables, in bytes: run-length
        # header per source, local destination, record, and offset.
        if encoding in _COMPACT_ENCODINGS:
            require(indexed, "compact encoding requires an indexed (source-sorted) grid")
            require(count_codes is not None, "compact encoding requires count_codes")
            require(dst_codes is not None, "compact encoding requires dst_codes")
            self._count_codes = _code_table(count_codes, "count_dtype_codes", self.block_counts)
            self._dst_codes = _code_table(dst_codes, "dst_dtype_codes", self.block_counts)
            self._rec_bytes = self._dst_codes + (_WEIGHT_DTYPE.itemsize if has_weights else 0)
            file_dtype = BYTE_DTYPE
        else:
            file_dtype = EDGE_WEIGHTED_DTYPE if has_weights else EDGE_UNWEIGHTED_DTYPE
            self._count_codes = np.zeros((P, P), dtype=np.int64)  # no header
            self._dst_codes = np.full((P, P), VERTEX_DTYPE.itemsize, dtype=np.int64)
            self._rec_bytes = np.full((P, P), file_dtype.itemsize, dtype=np.int64)
        # compact3 narrows each block's offsets to its edge count.
        self._idx_codes = (
            _width_codes(self.block_counts)
            if encoding == ENCODING_COMPACT3
            else np.full((P, P), INDEX_DTYPE.itemsize, dtype=np.int64)
        )
        header = sizes[:, None] * self._count_codes
        self._block_bytes = np.where(
            self.block_counts > 0, header + self.block_counts * self._rec_bytes, 0
        )

        # Storage-order (dst-major) offsets: block (i, j) starts at
        # _block_byte_start[i, j] bytes, _block_start[i, j] file items,
        # into the edges file.
        item = file_dtype.itemsize
        order_bytes = self._block_bytes.T.reshape(-1)  # (j, i) raveled
        byte_starts = np.concatenate(([0], np.cumsum(order_bytes)[:-1]))
        self._block_byte_start = byte_starts.reshape(P, P).T.copy()  # back to [i, j]
        self._block_start = self._block_byte_start // item

        self._index_start: Optional[np.ndarray] = None
        self._index_bytes = 0
        if indexed:
            # Block (i, j)'s index: sizes[i] + 1 offsets of its width,
            # at byte _index_start[i, j].
            idx_lens = ((sizes[:, None] + 1) * self._idx_codes).T.reshape(-1)
            idx_starts = np.concatenate(([0], np.cumsum(idx_lens)[:-1]))
            self._index_start = idx_starts.reshape(P, P).T.copy()
            self._index_bytes = int(idx_lens.sum())

            # Block (i, j)'s row i * P + j: what read_selective needs to
            # find its offsets and records, gathered once per chunk.
            geometry = np.zeros((P, P), dtype=_GEOMETRY_DTYPE)
            geometry["lo_i"] = intervals.boundaries[:-1, None]
            geometry["lo_j"] = intervals.boundaries[None, :-1]
            geometry["size_i"] = sizes[:, None]
            geometry["index"] = self._index_start
            geometry["unit"] = self._idx_codes
            geometry["records"] = (self._block_byte_start + header) // item
            geometry["rec"] = self._rec_bytes // item
            geometry["width"] = self._dst_codes
            # Storage order: by column, then offset and record widths (<= 8).
            columns = np.arange(P, dtype=np.int64)[None, :]
            geometry["order"] = (columns * 16 + self._idx_codes) * 16 + self._dst_codes
            self._geometry = geometry.ravel()

        self._edges_file = device.array_file(f"{prefix}.edges", file_dtype)
        self._idx_file = device.array_file(f"{prefix}.idx", BYTE_DTYPE) if indexed else None

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

        The build sorts and encodes one destination column at a time
        (:func:`_sorted_columns`), so beyond the edge list and the files
        it writes it holds one column's edges, O(|V|) degree vectors and
        two bytes per edge (``docs/STORAGE.md`` "Build").
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
        bounds = intervals.boundaries
        weighted, compact = edges.has_weights, encoding in _COMPACT_ENCODINGS

        # Each column is emitted whole before the next is sorted: its
        # block counts, compact headers and widths, records and .idx
        # slice. Only the encoded files and an O(|V|) degree vector
        # outlive a column.
        block_counts = np.zeros((P, P), dtype=np.int64)
        out_degrees = np.zeros(n, dtype=np.int64)
        count_codes = dst_codes = None
        if compact:
            count_codes = np.zeros((P, P), dtype=np.int64)
            # compact3 narrows each block's destinations (empty blocks:
            # uint8); format 2 keeps every block at its column's width.
            if encoding == ENCODING_COMPACT3:
                dst_codes = np.ones((P, P), dtype=np.int64)
            else:
                dst_codes = _column_codes(intervals)
            parts = [np.empty(0, dtype=BYTE_DTYPE)]
        else:
            data = np.empty(m, dtype=EDGE_WEIGHTED_DTYPE if weighted else EDGE_UNWEIGHTED_DTYPE)
        idx_parts: List[np.ndarray] = []
        first = 0  # the column's first edge in storage order
        columns = _sorted_columns(edges, intervals, sort_within_blocks)
        for j, (src, dst, wgt, runs) in enumerate(columns):
            out_degrees += runs
            # The running degree sum, sliced at the interval boundaries,
            # gives the column's block counts and, re-based at a block's
            # first vertex, the block's CSR offsets.
            cum = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(runs, out=cum[1:])
            block_counts[:, j] = np.diff(cum[bounds])
            if not compact:
                last = first + src.shape[0]
                data["src"][first:last] = src
                data["dst"][first:last] = dst
                if weighted:
                    data["wgt"][first:last] = wgt
                first = last
            pos = 0
            for i in range(P):
                lo, hi, cnt = int(bounds[i]), int(bounds[i + 1]), int(block_counts[i, j])
                if indexed:
                    # compact3 narrows each block's offsets to its edge count.
                    width = _OFFSET_BY_ITEMSIZE[8]
                    if encoding == ENCODING_COMPACT3:
                        width = _narrowest_uint(cnt)
                    offsets = cum[lo : hi + 1] - cum[lo]
                    idx_parts.append(offsets.astype(width, copy=False).view(BYTE_DTYPE))
                if not compact or cnt == 0:
                    continue
                header = runs[lo:hi]
                header = header.astype(_narrowest_uint(int(header.max())))
                local = dst[pos : pos + cnt] - bounds[j]
                count_codes[i, j] = header.dtype.itemsize
                if encoding == ENCODING_COMPACT3:
                    dst_codes[i, j] = _narrowest_uint(int(local.max())).itemsize
                dst_dtype = _UINT_BY_ITEMSIZE[int(dst_codes[i, j])]
                records = np.empty(cnt, _packed_record_dtype(dst_dtype, weighted))
                records["dst"] = local
                if weighted:
                    records["wgt"] = wgt[pos : pos + cnt]
                parts += [header.view(BYTE_DTYPE), records.view(BYTE_DTYPE)]
                pos += cnt
        if compact:
            data = np.concatenate(parts)
            del parts
        store = cls(
            device, prefix, intervals, block_counts, weighted, indexed,
            encoding=encoding, count_codes=count_codes, dst_codes=dst_codes,
        )
        require(data.nbytes == store.total_edge_bytes, "encoder produced inconsistent byte counts")
        store._edges_file.write(data)
        del data  # the edges go before the index is joined
        if indexed:
            index = np.concatenate(idx_parts)
            require(index.nbytes == store.index_total_bytes, "index has inconsistent byte counts")
            store._idx_file.write(index)

        store.out_degrees = out_degrees
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
        raw layout, unchanged). A meta this build cannot read — an
        unknown format, a missing field, a width code off the menu — or
        data files of another size than the meta describes raise
        :class:`GridFormatError` naming what is wrong; never a silent
        garbage decode. The size check stats the files and charges
        nothing.
        """
        meta = json.loads(device.read_meta_text(f"{prefix}.meta.json"))
        try:
            fmt = int(meta.get("format", FORMAT_RAW))
        except (TypeError, ValueError):
            raise GridFormatError(
                f"grid {prefix!r}: meta field 'format' is {meta['format']!r}, not a number"
            ) from None
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
        if declared != encoding:
            raise GridFormatError(
                f"grid {prefix!r}: meta declares encoding {declared!r} but format {fmt}"
            )
        fields = ["boundaries", "block_counts", "has_weights", "indexed"]
        if encoding in _COMPACT_ENCODINGS:
            fields.append("count_dtype_codes")
        if encoding == ENCODING_COMPACT3:
            fields.append("dst_dtype_codes")
        missing = [name for name in fields if name not in meta]
        if missing:
            raise GridFormatError(
                f"grid {prefix!r}: {encoding} meta is missing {', '.join(missing)}"
            )
        intervals = VertexIntervals(np.asarray(meta["boundaries"], dtype=np.int64))
        dst_codes = meta.get("dst_dtype_codes")
        if encoding == ENCODING_COMPACT:
            dst_codes = _column_codes(intervals)
        store = cls(
            device,
            prefix,
            intervals,
            np.asarray(meta["block_counts"], dtype=np.int64),
            bool(meta["has_weights"]),
            bool(meta["indexed"]),
            encoding=encoding,
            count_codes=meta.get("count_dtype_codes"),
            dst_codes=dst_codes,
        )
        for file, want in (
            (store._edges_file, store.total_edge_bytes),
            (store._idx_file, store.index_total_bytes),
        ):
            if file is not None and file.nbytes != want:
                raise GridFormatError(
                    f"grid {prefix!r}: {file.path.name} holds {file.nbytes} bytes, but "
                    f"the meta's block_counts and width codes describe {want}"
                )
        return store

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
        index), so the per-edge cost is the record size: ``M + W`` for
        raw, the block's packed ``(dst_local, [wgt])`` size for compact.
        Averaged edge-weighted over the blocks for the scheduler's
        ``S_seq``/``S_ran`` estimate.
        """
        total = self.total_edges
        if total == 0:
            return float(self._rec_bytes.mean())
        return float((self.block_counts * self._rec_bytes).sum() / total)

    def index_entry_bytes(self, i: int) -> int:
        """Per-entry on-disk index bytes the scheduler should price for
        row ``i``: the row's widest offset width — 8 through format 2; in
        compact3 a safe upper bound, as reads use each block's own."""
        return int(self._idx_codes[i].max())

    @property
    def index_total_bytes(self) -> int:
        """Total on-disk bytes of the ``.idx`` file (0 when unindexed)."""
        return self._index_bytes

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

    def _empty_block(self, i: int, j: int) -> EdgeBlock:
        wgt = np.empty(0, dtype=np.float32) if self.has_weights else None
        return EdgeBlock(
            i, j, np.empty(0, dtype=VERTEX_DTYPE), np.empty(0, dtype=VERTEX_DTYPE), wgt
        )

    def _decode(self, i: int, j: int, payload: np.ndarray) -> EdgeBlock:
        """Decode one sub-block's stored items into an :class:`EdgeBlock`.

        A raw block's arrays are views of its records' fields. A compact
        block's sources are ``np.repeat`` over its run-length header and
        its local destinations get the interval base added back. Output
        arrays match the raw decoder's dtypes exactly, so engines cannot
        distinguish the encodings. The block may view ``payload``: it is
        decoded just before it is pushed and dropped after.
        """
        if self.encoding not in _COMPACT_ENCODINGS:
            wgt = payload["wgt"] if self.has_weights else None
            return EdgeBlock(
                i, j, payload["src"], payload["dst"], wgt, source_sorted=self.indexed
            )
        cnt = self.block_edge_count(i, j)
        if cnt == 0:
            return self._empty_block(i, j)
        lo_i, hi_i = self.intervals.bounds(i)
        lo_j, _ = self.intervals.bounds(j)
        count_dtype = _UINT_BY_ITEMSIZE[int(self._count_codes[i, j])]
        header_bytes = (hi_i - lo_i) * count_dtype.itemsize
        require(
            payload.shape[0] == self.block_nbytes(i, j),
            f"block ({i},{j}): expected {self.block_nbytes(i, j)} encoded bytes, "
            f"got {payload.shape[0]}",
        )
        runs = payload[:header_bytes].view(count_dtype)
        require(
            int(runs.sum(dtype=np.int64)) == cnt,
            f"block ({i},{j}): corrupt compact header (run lengths sum to "
            f"{int(runs.sum(dtype=np.int64))}, metadata says {cnt} edges)",
        )
        dst_dtype = _UINT_BY_ITEMSIZE[int(self._dst_codes[i, j])]
        records = payload[header_bytes:].view(_packed_record_dtype(dst_dtype, self.has_weights))
        src = np.repeat(np.arange(lo_i, hi_i, dtype=VERTEX_DTYPE), runs)
        dst = records["dst"].astype(VERTEX_DTYPE)
        dst += VERTEX_DTYPE.type(lo_j)
        wgt = records["wgt"].astype(np.float32) if self.has_weights else None
        return EdgeBlock(i, j, src, dst, wgt, source_sorted=True, runs=runs)

    def _block_items(self, i: int, j: int) -> int:
        """Edges-file items of sub-block ``(i, j)``."""
        return self.block_nbytes(i, j) // self._edges_file.dtype.itemsize

    def load_block(self, i: int, j: int) -> EdgeBlock:
        """Sequentially read all edges of sub-block ``(i, j)``."""
        payload = self._edges_file.read_slice(
            int(self._block_start[i, j]), self._block_items(i, j), sequential=True
        )
        return self._decode(i, j, payload)

    def load_block_range(self, j: int, i_lo: int, i_hi: int) -> List[BlockHandle]:
        """Read blocks ``(i_lo..i_hi-1, j)`` of one column as a single scan.

        Within a column the sub-blocks are stored contiguously in source-
        interval order, so a run of blocks is one sequential extent —
        this keeps full sweeps request-cheap (one read per column rather
        than per block), in every encoding. Returns one
        :class:`BlockHandle` per block over its slice of the read;
        nothing is decoded.
        """
        require(0 <= i_lo <= i_hi <= self.P, "bad block range")
        if i_lo == i_hi:
            return []
        counts = [self._block_items(i, j) for i in range(i_lo, i_hi)]
        payload = self._edges_file.read_slice(
            int(self._block_start[i_lo, j]), int(sum(counts)), sequential=True
        )
        handles = []
        pos = 0
        for offset, count in enumerate(counts):
            handles.append(BlockHandle(self, i_lo + offset, j, payload[pos : pos + count]))
            pos += count
        return handles

    def load_column(self, j: int) -> List[BlockHandle]:
        """Read every sub-block of destination interval ``j`` in one scan."""
        return self.load_block_range(j, 0, self.P)

    # -- selective loads (the on-demand I/O model) ------------------------

    def _index_slice(self, i: int, j: int, first: int, last: int) -> Tuple[int, int]:
        """``(start byte, byte count)`` of offsets ``first..last`` of block
        ``(i, j)``'s index."""
        unit = int(self._idx_codes[i, j])
        return int(self._index_start[i, j]) + first * unit, (last - first + 1) * unit

    def _widen_offsets(self, i: int, j: int, payload: np.ndarray) -> np.ndarray:
        """Offsets read from block ``(i, j)``'s index bytes as ``int64``."""
        stored = payload.view(_OFFSET_BY_ITEMSIZE[int(self._idx_codes[i, j])])
        return stored.astype(INDEX_DTYPE, copy=False)

    def read_block_index(self, i: int, j: int) -> np.ndarray:
        """Sequentially read the full offset index of sub-block ``(i, j)``.

        Always returns ``int64`` offsets: compact3's narrowed offsets are
        widened after the (smaller) read, so callers see identical values
        in every format.
        """
        self._require_indexed()
        start, count = self._index_slice(i, j, 0, self.intervals.size(i))
        return self._widen_offsets(i, j, self._idx_file.read_slice(start, count, sequential=True))

    def _require_in_interval(self, i: int, first: int, last: int) -> None:
        """Local ids ``first..last`` lie in source interval ``i``: what
        :meth:`read_index_span` checks of its span."""
        require(0 <= first <= last < self.intervals.size(i), "bad index span")

    def read_index_span(self, i: int, j: int, lo_local: int, hi_local: int) -> np.ndarray:
        """Sequentially read index entries ``[lo_local, hi_local]`` (inclusive
        of the trailing offset) of sub-block ``(i, j)``.

        The on-demand model's sequential index read: when the active
        vertices of interval ``i`` cluster in a narrow id range (e.g. a
        frontier wave), one contiguous slice covers all their offsets.
        """
        self._require_indexed()
        require(0 <= lo_local <= hi_local <= self.intervals.size(i), "bad index span")
        start, count = self._index_slice(i, j, lo_local, hi_local)
        return self._widen_offsets(i, j, self._idx_file.read_slice(start, count, sequential=True))

    def read_index_entries(self, i: int, j: int, local_ids: np.ndarray) -> np.ndarray:
        """Randomly gather ``(offset, next_offset)`` pairs for ``local_ids``.

        Cheaper than :meth:`read_index_span` when a few vertices of
        interval ``i`` are active and far apart. Returns an ``(n, 2)``
        array.
        """
        self._require_indexed()
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if local_ids.size == 0:
            return np.empty((0, 2), dtype=INDEX_DTYPE)
        self._require_in_interval(i, int(local_ids.min()), int(local_ids.max()))
        # One run per id: its (offset, next_offset) pair.
        unit = int(self._idx_codes[i, j])
        starts = int(self._index_start[i, j]) + local_ids * unit
        pairs = np.full(local_ids.shape, 2 * unit, dtype=np.int64)
        payload = self._idx_file.read_gather(starts, pairs)
        return self._widen_offsets(i, j, payload).reshape(-1, 2)

    def read_selective(
        self,
        entries: Sequence[SelectiveEntry],
        seq_threshold_bytes: Optional[int] = None,
    ) -> List["SelectiveLoad"]:
        """Read many blocks' active edges in one data pass; charge each later.

        Every entry's ``(offset, next_offset)`` pairs and the edges they
        delimit are read from ``.idx`` and ``.edges`` with
        :meth:`~repro.storage.blockfile.ArrayFile.read_runs`, the
        uncharged data half of every read — nothing is charged and
        nothing raises here. Each entry comes back as a
        :class:`SelectiveLoad` holding its :class:`EdgeBlock` (a slice of
        the pass's arrays, equal to what :meth:`load_active_edges` returns for the entry's
        offsets) and a :meth:`~SelectiveLoad.charge` that runs exactly
        the accounting of the entry's own index read (by its mode) and
        :meth:`load_active_edges`, in that order. An entry whose ids fall
        outside its source interval, or whose offsets fall outside the
        index, decrease, or point outside the edges file, is left unread,
        and its ``charge()`` raises the error those single reads raise.

        The pass walks the entries in storage order — by destination
        column, and inside a column by the blocks' offset and record
        widths — in chunks of at most one source interval's worth of
        active ids, which bounds its transient arrays and its reads. A
        chunk reads its offsets with one read of ``.idx``, then its edges
        with one read of ``.edges``; each read runs forward through the
        file. The entries of one column and widths form a *group*, whose
        offsets and edges are gathered from the read into one contiguous
        slice of the chunk's arrays. Loads come back in entry order.
        """
        self._require_indexed()
        if not entries:
            return []
        blocks = [entry[0] * self.P + entry[1] for entry in entries]
        chunks: List[List[int]] = [[]]
        width = 0
        for e in np.argsort(self._geometry["order"][blocks], kind="stable").tolist():
            if chunks[-1] and width + len(entries[e][2]) > self._chunk_ids:
                chunks.append([])
                width = 0
            chunks[-1].append(e)
            width += len(entries[e][2])
        # Measured once: every chunk reads inside, and every entry's
        # accounting checks against, these sizes.
        file_bytes = (self._idx_file.nbytes, self._edges_file.nbytes)
        placed: Dict[int, SelectiveLoad] = {}
        for chunk in chunks:
            loads = self._read_chunk(
                [entries[e] for e in chunk],
                self._geometry[[blocks[e] for e in chunk]],
                file_bytes,
                seq_threshold_bytes,
            )
            placed.update(zip(chunk, loads))
        return [placed[e] for e in range(len(entries))]

    def _read_chunk(
        self,
        chunk: Sequence[SelectiveEntry],
        geom: np.ndarray,
        file_bytes: Tuple[int, int],
        seq_threshold_bytes: Optional[int],
    ) -> List["SelectiveLoad"]:
        """:meth:`read_selective` for one chunk of storage-ordered entries:
        the index pass, then the edge pass. Entries of one storage
        ``order`` (one column, one offset width, one record width) form a
        group."""
        order = geom["order"]
        groups = [0, *((order[1:] != order[:-1]).nonzero()[0] + 1).tolist(), len(chunk)]
        blocks = [entry[0] * self.P + entry[1] for entry in chunk]
        sizes = [len(entry[2]) for entry in chunk]
        owner = np.repeat(np.arange(len(chunk), dtype=np.intp), sizes)
        active = np.concatenate([entry[2] for entry in chunk]).astype(np.int64)
        local = active - geom["lo_i"][owner]
        unit = geom["unit"][owner]
        pos = geom["index"][owner] + local * unit
        inside = (local >= 0) & (local < geom["size_i"][owner])
        inside &= pos + 2 * unit <= file_bytes[0]
        bounds = np.fromiter(accumulate(sizes, initial=0), np.intp, len(sizes) + 1)
        readable = np.logical_and.reduceat(inside, bounds[:-1])
        all_inside = bool(readable.all())
        offsets = np.zeros((2, owner.size), dtype=INDEX_DTYPE)
        # One read of every pair inside the index; ``pos`` becomes each
        # pair's byte in it.
        read: Union[slice, np.ndarray] = slice(None) if all_inside else inside
        index, at = self._idx_file.read_runs(pos[read], 2 * unit[read])
        pos[read] = at
        for g0, g1 in zip(groups[:-1], groups[1:]):
            a, b = bounds[g0], bounds[g1]
            ids: Union[slice, np.ndarray] = (
                slice(a, b) if all_inside else a + np.flatnonzero(inside[a:b])
            )
            width = int(geom["unit"][g0])
            offsets[:, ids] = _read_le(index, pos[ids] + _PAIR * width, _OFFSET_BY_ITEMSIZE[width])
        loads = self._select_edges(
            blocks, groups, geom, bounds, owner, active, offsets, readable, file_bytes,
            seq_threshold_bytes,
        )
        for e, (load, entry) in enumerate(zip(loads, chunk)):
            load.index = (int(entry[3]), local[bounds[e] : bounds[e + 1]])
        return loads

    def _select_edges(
        self,
        blocks: List[int],
        groups: List[int],
        geom: np.ndarray,
        bounds: np.ndarray,
        owner: np.ndarray,
        active: np.ndarray,
        offsets: np.ndarray,
        readable: np.ndarray,
        file_bytes: Tuple[Optional[int], int],
        seq_threshold_bytes: Optional[int],
    ) -> List["SelectiveLoad"]:
        """The edge pass of :meth:`read_selective` and :meth:`load_active_edges`.

        Entry ``e`` is block ``blocks[e]`` (``i * P + j``, geometry
        ``geom[e]``); its active ids ``active[bounds[e]:bounds[e + 1]]``
        (ascending; ``owner`` maps each to ``e``) own the edges
        ``offsets[0, k]`` up to ``offsets[1, k]``. Entries
        ``groups[g]`` up to ``groups[g + 1]`` share one column and one
        record width, and a compact group is decoded in its widths. An
        entry not ``readable`` (its offsets could not be read) or ruled
        out by the bounds gets an empty block; its accounting raises.
        ``file_bytes`` are the sizes of ``.idx`` and ``.edges`` the
        caller measured.

        The negative-count and bounds checks see every ``(id, block)``
        pair. Past them only the pairs with edges go on — merged into
        runs, split sequential/random, read and gathered — since most
        active ids have no edges in most blocks of their row.
        """
        firsts = bounds[:-1]
        rec = geom["rec"]
        per_vertex = offsets[1] - offsets[0]
        starts = geom["records"][owner] + offsets[0] * rec[owner]
        negative = np.logical_or.reduceat(per_vertex < 0, firsts)
        min_start = np.minimum.reduceat(starts, firsts)
        max_end = np.maximum.reduceat(starts + per_vertex * rec[owner], firsts)
        itemsize = self._edges_file.dtype.itemsize
        valid = readable & ~negative & (min_start >= 0)
        valid &= max_end <= file_bytes[1] // itemsize

        # The pairs with edges of the entries whose accounting passes;
        # ``kept_bounds[e]`` is entry e's first among them.
        take = valid[owner] & (per_vertex > 0)
        taken = per_vertex[take]
        kept_owner = owner[take]
        starts, counts = starts[take], taken * rec[kept_owner]
        kept_bounds = np.searchsorted(kept_owner, np.arange(len(blocks) + 1, dtype=np.intp))
        heads = kept_bounds[:-1][kept_bounds[:-1] < kept_bounds[1:]]

        # Adjacent extents of one entry merge into one run (one request).
        m_starts, m_counts, group_ids = merge_runs(starts, counts, heads)
        entry_runs = np.concatenate((group_ids, [m_starts.size]))[kept_bounds]
        seq = np.zeros(m_counts.size, dtype=bool)
        if seq_threshold_bytes is not None:
            seq = m_counts * itemsize >= int(seq_threshold_bytes)
        # Per entry, summed over its merged runs: items, sequential items
        # and sequential runs (running sums read at the entries' bounds).
        sums = np.zeros((3, m_counts.size + 1), dtype=np.int64)
        sums[0, 1:] = m_counts
        sums[1, 1:] = m_counts * seq
        sums[2, 1:] = seq
        sums = sums.cumsum(axis=1, out=sums)[:, entry_runs]
        items, seq_items, seq_runs = (sums[:, 1:] - sums[:, :-1]).tolist()
        runs = (entry_runs[1:] - entry_runs[:-1]).tolist()

        # The data: one read of every kept extent, then one gather from
        # it (compact: one per group, in the group's widths).
        data, data_at = self._edges_file.read_runs(starts, counts)
        # An entry's edges: its items over its record's items.
        edge_bounds = list(accumulate(map(floordiv, items, rec.tolist()), initial=0))
        if self.encoding in _COMPACT_ENCODINGS:
            # A vertex's k-th record is k records past where its extent landed.
            at = run_positions(np.zeros_like(taken), taken) * rec[kept_owner].repeat(taken)
            at += data_at.repeat(taken)
            dst = np.empty(at.size, dtype=VERTEX_DTYPE)
            wgt = np.empty(at.size, dtype=np.float32) if self.has_weights else None
            for g0, g1 in zip(groups[:-1], groups[1:]):
                p0, p1 = edge_bounds[g0], edge_bounds[g1]
                if p0 == p1:
                    continue
                width = int(geom["width"][g0])
                dst[p0:p1] = _read_le(data, at[p0:p1], _UINT_BY_ITEMSIZE[width])
                dst[p0:p1] += VERTEX_DTYPE.type(geom["lo_j"][g0])
                if wgt is not None:
                    wgt[p0:p1] = _read_le(data, at[p0:p1] + width, np.dtype("<f4"))
            src = active[take].astype(VERTEX_DTYPE).repeat(taken)
        else:
            # "clip" skips the bounds check: every position is valid.
            records = data.take(run_positions(data_at, counts), mode="clip")
            src, dst = records["src"].copy(), records["dst"].copy()
            wgt = records["wgt"].copy() if self.has_weights else None

        loads = []
        a = r0 = 0
        for block, b, r1, bad, lo, hi, n_items, n_seq_items, n_runs, n_seq_runs in zip(
            blocks, edge_bounds[1:], entry_runs[1:].tolist(), negative.tolist(),
            min_start.tolist(), max_end.tolist(), items, seq_items, runs, seq_runs,
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
                    file_bytes,
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
            [0, 1],
            self._geometry[[block]],
            np.array([0, n], dtype=np.intp),
            np.zeros(n, dtype=np.intp),
            active_global_ids,
            np.asarray(offsets_pairs, dtype=INDEX_DTYPE).T,
            np.ones(1, dtype=bool),
            (None, self._edges_file.nbytes),
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
        data = self._edges_file.read_all()
        if self.encoding not in _COMPACT_ENCODINGS:
            return data["src"]  # raw records carry their sources
        parts = [np.empty(0, dtype=VERTEX_DTYPE)]
        for (i, j) in self.iter_blocks_dst_major():
            if self.block_edge_count(i, j):
                start = int(self._block_start[i, j])
                parts.append(self._decode(i, j, data[start : start + self._block_items(i, j)]).src)
        return np.concatenate(parts)

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
