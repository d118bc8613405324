"""File-backed typed arrays with modeled I/O charging.

Graph partitions live on disk as *column files*: one flat binary file per
edge attribute (sources, destinations, weights) plus index files. Every
read and write goes through :class:`ArrayFile`, which performs the real
file operation **and** charges the byte movement to the owning
:class:`~repro.storage.disk.SimulatedDisk`.

Design notes
------------
* Files hold a single fixed dtype; offsets are expressed in items, not
  bytes, so callers never do size arithmetic.
* Scattered reads (:meth:`ArrayFile.read_gather`) are the on-demand I/O
  model's workhorse: given per-run (start, count) pairs they gather all
  runs with one vectorized memmap fancy-index — real page reads, no
  Python-level per-run loop — and charge each run as one request,
  split into sequential/random classes by the caller-provided mask
  (the scheduler's ``S_seq``/``S_ran`` split, §4.1 of the paper).
* Every read is an *accounting half* — bounds check, fault poll, CRC
  verification, page-cache filter, charge (:meth:`ArrayFile.charge_slice`,
  :meth:`ArrayFile.check_runs` + :meth:`ArrayFile.charge_runs`) — and a
  *data half*. A batched reader (``GridStore.read_selective``) takes the
  data of many reads in one pass through :meth:`ArrayFile.mapped` and
  runs each read's accounting half later, in the order the reads would
  have run; the single reads run both halves back to back.

Robustness (see ``docs/ROBUSTNESS.md``)
---------------------------------------
* With ``checksums=True`` every file keeps a JSON sidecar
  (``<name>.crc``) of per-64 KiB-chunk CRC32s, maintained on every
  write and verified on every read path; a mismatch (bit rot, torn
  write) raises :class:`~repro.storage.faults.ChecksumError` rather than
  returning silently wrong data. Verification is modeled as inline with
  the transfer, so it adds no charged traffic.
* When a :class:`~repro.storage.faults.FaultInjector` is attached to the
  disk, every operation polls it. Transient faults are absorbed by a
  bounded retry loop with exponential backoff (charged to the simulated
  clock, counted in ``IOStats.read_retries``/``write_retries``); torn
  writes persist a prefix of the payload and die with
  :class:`~repro.storage.faults.SimulatedCrash`.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.storage.disk import SimulatedDisk
from repro.storage.faults import ChecksumError, SimulatedCrash, TransientIOError
from repro.storage.pagecache import PageCache
from repro.utils.runs import run_positions
from repro.utils.validation import require

PathLike = Union[str, os.PathLike]

#: Byte-stream dtype for files with no global record size (the compact
#: grid encoding packs variable-width records per sub-block). Opening an
#: :class:`ArrayFile` with this dtype makes item offsets *byte* offsets,
#: so every existing facility — CRC sidecar chunking, fault injection,
#: torn-write prefixes, page-cache accounting, gather charging — works
#: on arbitrary byte ranges without knowing any record structure.
BYTE_DTYPE = np.dtype(np.uint8)

#: Granularity of the CRC32 sidecar: one checksum per 64 KiB chunk, so
#: slice/gather reads verify only the chunks they touch.
CRC_CHUNK_BYTES = 1 << 16
CRC_SUFFIX = ".crc"

#: Transient faults absorbed per operation before giving up.
MAX_IO_RETRIES = 4
#: Backoff before retry k is ``BASE * 2**(k-1)`` modeled seconds.
RETRY_BACKOFF_BASE_S = 1e-3


class ArrayFile:
    """A flat binary file of items with one fixed dtype.

    Instances are lightweight handles; the item count is tracked in
    memory and verified against the on-disk size.
    """

    def __init__(
        self,
        path: PathLike,
        dtype: np.dtype,
        disk: SimulatedDisk,
        cache: Optional[PageCache] = None,
        checksums: bool = False,
    ) -> None:
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self.disk = disk
        self.cache = cache
        self.checksums = checksums
        self._itemsize = self.dtype.itemsize
        self._mmap: Optional[np.memmap] = None
        self._crc_table: Optional[dict] = None
        self._crc_loaded = False

    # -- charging through the (optional) simulated page cache ---------------

    def _charge_read(
        self, offset_bytes: int, nbytes: int, sequential: bool, requests: int = 1
    ) -> None:
        if self.cache is not None:
            nbytes = self.cache.access(self.path.name, offset_bytes, nbytes)
            if nbytes == 0:
                return  # fully cache-resident: no disk request at all
        if sequential:
            self.disk.charge_read_sequential(nbytes, requests=requests)
        else:
            self.disk.charge_read_random(nbytes, requests=requests)

    def _charge_write(
        self, offset_bytes: int, nbytes: int, sequential: bool, requests: int = 1
    ) -> None:
        if self.cache is not None:
            # write-through with write-allocate: disk is charged fully,
            # but the written pages become cache-resident.
            self.cache.write(self.path.name, offset_bytes, nbytes)
        if sequential:
            self.disk.charge_write_sequential(nbytes, requests=requests)
        else:
            self.disk.charge_write_random(nbytes, requests=requests)

    # -- fault injection hooks ----------------------------------------------

    def _maybe_fault(self, write: bool) -> None:
        """Poll the injector; absorb transient faults with bounded retry.

        Each absorbed fault charges exponential backoff to the simulated
        clock and a retry to :class:`IOStats`; exhausting the budget
        re-raises as an unrecoverable :class:`TransientIOError`.
        """
        inj = self.disk.injector
        if inj is None:
            return
        poll = inj.fault_write if write else inj.fault_read
        attempt = 0
        while poll(self.path.name):
            self.disk.stats.faults_injected += 1
            if attempt >= MAX_IO_RETRIES:
                kind = "write" if write else "read"
                raise TransientIOError(
                    f"transient {kind} fault on {self.path.name} persisted "
                    f"after {attempt} retries"
                )
            attempt += 1
            if write:
                self.disk.stats.write_retries += 1
            else:
                self.disk.stats.read_retries += 1
            self.disk.charge_retry_backoff(
                RETRY_BACKOFF_BASE_S * (2 ** (attempt - 1)), write=write
            )

    def _maybe_torn_write(self, data: np.ndarray, offset_bytes: int, mode: str) -> None:
        """If the injector schedules a torn write here, persist a prefix
        of ``data`` exactly as a power loss mid-``write(2)`` would, then
        die with :class:`SimulatedCrash`. The checksum sidecar is *not*
        updated — the next read detects the tear."""
        inj = self.disk.injector
        if inj is None:
            return
        fraction = inj.torn_write(self.path.name)
        if fraction is None:
            return
        payload = data.tobytes()
        torn = payload[: int(len(payload) * fraction)]
        if mode == "append":
            with open(self.path, "ab") as f:
                f.write(torn)
        elif mode == "replace":
            with open(self.path, "wb") as f:
                f.write(torn)
        else:  # in-place slice overwrite
            with open(self.path, "r+b") as f:
                f.seek(offset_bytes)
                f.write(torn)
        self.disk.stats.faults_injected += 1
        self._charge_write(offset_bytes, len(torn), sequential=(mode != "slice"))
        raise SimulatedCrash(f"torn write to {self.path.name}")

    # -- checksum sidecar ----------------------------------------------------

    @property
    def _crc_path(self) -> Path:
        return self.path.with_name(self.path.name + CRC_SUFFIX)

    def _crc_load(self) -> Optional[dict]:
        """The sidecar table, or None when the file has none (unverified)."""
        if not self._crc_loaded:
            self._crc_loaded = True
            if self._crc_path.exists():
                try:
                    table = json.loads(self._crc_path.read_text())
                    require(
                        isinstance(table.get("chunks"), list)
                        and "nbytes" in table
                        and "chunk_bytes" in table,
                        "malformed table",
                    )
                    self._crc_table = table
                except (ValueError, OSError) as exc:
                    raise ChecksumError(
                        f"unreadable checksum sidecar for {self.path.name}: {exc}"
                    ) from exc
        return self._crc_table

    def _crc_update_range(self, offset_bytes: int, nbytes: int) -> None:
        """Recompute the CRC chunks covering ``[offset, offset+nbytes)``
        from the file (plus any chunks a size change added or removed)."""
        if not self.checksums:
            return
        table = self._crc_load()
        if table is None:
            # First checksummed write to this file: cover it entirely so
            # pre-existing chunks are never left unverifiable.
            table = {"chunk_bytes": CRC_CHUNK_BYTES, "nbytes": 0, "chunks": []}
            offset_bytes, nbytes = 0, self.nbytes
        chunk_bytes = int(table["chunk_bytes"])
        size = self.nbytes
        total_chunks = (size + chunk_bytes - 1) // chunk_bytes
        chunks: List[int] = list(table["chunks"])[:total_chunks]
        chunks.extend(0 for _ in range(total_chunks - len(chunks)))
        first = offset_bytes // chunk_bytes
        last_excl = total_chunks
        if int(table["nbytes"]) == size and nbytes > 0:
            # Size unchanged (in-place overwrite): only touched chunks.
            last_excl = min(total_chunks, (offset_bytes + nbytes - 1) // chunk_bytes + 1)
        if size:
            with open(self.path, "rb") as f:
                for k in range(first, last_excl):
                    f.seek(k * chunk_bytes)
                    chunks[k] = zlib.crc32(f.read(chunk_bytes))
        table.update(nbytes=size, chunks=chunks)
        self._crc_table = table
        self._crc_path.write_text(json.dumps(table))

    def _verify_chunks(self, chunk_indices: "Iterable[int]") -> None:
        table = self._crc_load()
        if table is None:
            return
        size = self.nbytes
        if int(table["nbytes"]) != size:
            raise ChecksumError(
                f"{self.path.name}: on-disk size {size} does not match the "
                f"recorded {table['nbytes']} bytes (torn or lost write)"
            )
        chunk_bytes = int(table["chunk_bytes"])
        chunks = table["chunks"]
        with open(self.path, "rb") as f:
            for k in sorted(set(int(k) for k in chunk_indices)):
                f.seek(k * chunk_bytes)
                if zlib.crc32(f.read(chunk_bytes)) != chunks[k]:
                    raise ChecksumError(
                        f"{self.path.name}: CRC32 mismatch in chunk {k} "
                        f"(bytes {k * chunk_bytes}..{min(size, (k + 1) * chunk_bytes)})"
                    )

    def _verify_range(self, offset_bytes: int, nbytes: int) -> None:
        """Verify the CRC chunks covering one contiguous read."""
        if not self.checksums or nbytes <= 0:
            return
        table = self._crc_load()
        if table is None:
            return
        chunk_bytes = int(table["chunk_bytes"])
        first = offset_bytes // chunk_bytes
        last = (offset_bytes + nbytes - 1) // chunk_bytes
        self._verify_chunks(range(first, last + 1))

    # -- metadata ------------------------------------------------------

    @property
    def exists(self) -> bool:
        return self.path.exists()

    @property
    def nbytes(self) -> int:
        """On-disk size, 0 for a missing file; one ``stat`` per call."""
        try:
            return os.stat(self.path).st_size
        except FileNotFoundError:
            return 0

    @property
    def item_count(self) -> int:
        nbytes = self.nbytes
        require(
            nbytes % self._itemsize == 0,
            f"{self.path} size {nbytes} is not a multiple of itemsize {self._itemsize}",
        )
        return nbytes // self._itemsize

    # -- writes ----------------------------------------------------------

    def write(self, array: np.ndarray) -> None:
        """Replace the file contents with ``array`` (sequential write).

        A file that already holds exactly ``array``'s bytes (the
        per-iteration state store) is overwritten in place instead of
        truncated and re-allocated; bytes, charge and checksum sidecar
        are the same either way.
        """
        data = np.ascontiguousarray(array, dtype=self.dtype)
        self._invalidate_mmap()
        if self.cache is not None:
            self.cache.invalidate_file(self.path.name)  # contents replaced
        self._maybe_fault(write=True)
        self._maybe_torn_write(data, 0, mode="replace")
        if data.nbytes and self.nbytes == data.nbytes:
            with open(self.path, "r+b") as f:
                data.tofile(f)
        else:
            data.tofile(self.path)
        self._charge_write(0, data.nbytes, sequential=True)
        self._crc_update_range(0, data.nbytes)

    def append(self, array: np.ndarray) -> None:
        """Append ``array`` at the end of the file (sequential write)."""
        data = np.ascontiguousarray(array, dtype=self.dtype)
        self._invalidate_mmap()
        offset = self.nbytes
        self._maybe_fault(write=True)
        self._maybe_torn_write(data, offset, mode="append")
        with open(self.path, "ab") as f:
            data.tofile(f)
        self._charge_write(offset, data.nbytes, sequential=True)
        self._crc_update_range(offset, data.nbytes)

    def overwrite_slice(self, start_item: int, array: np.ndarray, random: bool = True) -> None:
        """Overwrite ``len(array)`` items starting at ``start_item``.

        Used for in-place vertex value writeback; charged as a random
        write unless ``random=False``.
        """
        data = np.ascontiguousarray(array, dtype=self.dtype)
        require(start_item >= 0, "start_item must be >= 0")
        require(
            start_item + len(data) <= self.item_count,
            "overwrite_slice beyond end of file",
        )
        self._invalidate_mmap()
        offset = start_item * self._itemsize
        self._maybe_fault(write=True)
        self._maybe_torn_write(data, offset, mode="slice")
        with open(self.path, "r+b") as f:
            f.seek(offset)
            data.tofile(f)
        self._charge_write(offset, data.nbytes, sequential=not random)
        self._crc_update_range(offset, data.nbytes)

    # -- reads -----------------------------------------------------------

    def read_all(self) -> np.ndarray:
        """Read the entire file as one sequential scan."""
        self._maybe_fault(write=False)
        self._verify_range(0, self.nbytes)
        data = np.fromfile(self.path, dtype=self.dtype)
        self._charge_read(0, data.nbytes, sequential=True)
        return data

    def read_slice(self, start_item: int, count: int, sequential: bool = True) -> np.ndarray:
        """Read ``count`` items starting at ``start_item``."""
        if not self.charge_slice(start_item, count, sequential):
            return np.empty(0, dtype=self.dtype)
        return np.fromfile(
            self.path, dtype=self.dtype, count=count, offset=start_item * self._itemsize
        )

    def charge_slice(self, start_item: int, count: int, sequential: bool = True) -> bool:
        """The accounting half of :meth:`read_slice`.

        Bounds check, fault poll, CRC verification of the chunks the
        slice covers, then the (page-cache filtered) charge. Returns
        ``False`` for an empty slice, which is neither read nor charged.
        """
        require(start_item >= 0 and count >= 0, "negative offset or count")
        if count == 0:
            return False
        require(start_item + count <= self.item_count, "read_slice beyond end of file")
        self._maybe_fault(write=False)
        offset, nbytes = start_item * self._itemsize, count * self._itemsize
        self._verify_range(offset, nbytes)
        self._charge_read(offset, nbytes, sequential)
        return True

    def read_gather(
        self,
        starts: np.ndarray,
        counts: np.ndarray,
        seq_run_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Gather multiple (start, count) runs into one concatenated array.

        ``seq_run_mask[k]`` selects whether run ``k`` is charged at
        sequential or random bandwidth; by default every run is random.
        Runs are charged one request each. Returns the runs concatenated
        in argument order.
        """
        starts = np.asarray(starts, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        require(starts.shape == counts.shape, "starts/counts shape mismatch")
        if seq_run_mask is not None:
            seq_run_mask = np.asarray(seq_run_mask, dtype=bool)
            require(seq_run_mask.shape == starts.shape, "seq_run_mask shape mismatch")
        if starts.size == 0:
            return np.empty(0, dtype=self.dtype)
        total_items = self.check_runs(
            int(starts.min()), int(counts.min()), int((starts + counts).max())
        )
        if not counts.any():
            return np.empty(0, dtype=self.dtype)
        self.charge_runs(starts, counts, seq_run_mask)
        # Vectorized multi-run gather: each run's item indices back to
        # back, then one fancy-index on the memmap.
        return np.asarray(self._get_mmap(total_items)[run_positions(starts, counts)])

    def check_runs(self, min_start: int, min_count: int, max_end: int) -> int:
        """The bounds check of :meth:`read_gather`, from the runs' lowest
        start, smallest count and highest end; returns the item count."""
        require(min_count >= 0 and min_start >= 0, "negative start or count")
        total_items = self.item_count
        require(max_end <= total_items, "gather run beyond end of file")
        return total_items

    def charge_runs(
        self,
        starts: np.ndarray,
        counts: np.ndarray,
        seq_run_mask: Optional[np.ndarray] = None,
        totals: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None,
    ) -> None:
        """The accounting half of :meth:`read_gather`, after
        :meth:`check_runs` and for runs that are not all empty.

        Fault poll, CRC verification of the chunks the non-empty runs
        touch, then one request per non-empty run: through the page
        cache run by run when one is attached, else one sequential and
        one random charge. ``totals`` — ``((bytes, requests) sequential,
        (bytes, requests) random)`` of the non-empty runs — is derived
        from the runs unless a caller that sized many reads at once
        passes it.
        """
        self._maybe_fault(write=False)
        if self.checksums and self._crc_load() is not None:
            chunk_bytes = int(self._crc_table["chunk_bytes"])
            touched = set()
            for k in np.flatnonzero(counts > 0):
                lo = int(starts[k]) * self._itemsize
                hi = lo + int(counts[k]) * self._itemsize - 1
                touched.update(range(lo // chunk_bytes, hi // chunk_bytes + 1))
            self._verify_chunks(touched)
        if self.cache is not None:
            # Per-run cache filtering (runs are few after merging).
            for k in np.flatnonzero(counts > 0):
                self._charge_read(
                    int(starts[k]) * self._itemsize,
                    int(counts[k]) * self._itemsize,
                    sequential=seq_run_mask is not None and bool(seq_run_mask[k]),
                )
            return
        if totals is None:
            nonempty = counts > 0
            seq = np.zeros_like(nonempty) if seq_run_mask is None else nonempty & seq_run_mask
            ran = nonempty & ~seq
            totals = (
                (int(counts[seq].sum()) * self._itemsize, int(seq.sum())),
                (int(counts[ran].sum()) * self._itemsize, int(ran.sum())),
            )
        (seq_bytes, seq_requests), (ran_bytes, ran_requests) = totals
        if seq_bytes or seq_requests:
            self.disk.charge_read_sequential(seq_bytes, requests=seq_requests)
        if ran_bytes or ran_requests:
            self.disk.charge_read_random(ran_bytes, requests=ran_requests)

    def mapped(self) -> np.ndarray:
        """Every whole item of the file through its read mapping, uncharged.

        The data half of a batched reader, which runs each read's
        accounting half itself. Never raises: a missing or empty file is
        an empty array, and a trailing partial item is left out (the
        accounting half's :attr:`item_count` rejects such a file).
        """
        items = self.nbytes // self._itemsize
        if items == 0:
            return np.empty(0, dtype=self.dtype)
        return self._get_mmap(items).view(np.ndarray)  # plain indexing, no memmap wrapping

    # -- lifecycle ---------------------------------------------------------

    def delete(self) -> None:
        self._invalidate_mmap()
        if self.cache is not None:
            # A later file of the same name must not inherit these pages.
            self.cache.invalidate_file(self.path.name)
        if self.exists:
            self.path.unlink()
        if self._crc_path.exists():
            self._crc_path.unlink()
        self._crc_table = None
        self._crc_loaded = False

    def _get_mmap(self, item_count: int) -> np.memmap:
        """The read mapping, remapped when the file is no longer the
        ``item_count`` items the caller just measured on disk."""
        if self._mmap is None or self._mmap.shape[0] != item_count:
            self._mmap = np.memmap(self.path, dtype=self.dtype, mode="r", shape=(item_count,))
        return self._mmap

    def _invalidate_mmap(self) -> None:
        self._mmap = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayFile({self.path.name}, dtype={self.dtype}, items={self.item_count if self.exists else 0})"


class Device:
    """A directory of :class:`ArrayFile` objects on one simulated disk.

    Acts as the 'volume' a graph's on-disk representation lives on; all
    files created through one device share its :class:`SimulatedDisk`
    accounting. With ``checksums=True`` every file maintains a CRC32
    sidecar verified on read (see module docstring).
    """

    def __init__(
        self,
        root: PathLike,
        disk: Optional[SimulatedDisk] = None,
        page_cache: Optional[PageCache] = None,
        checksums: bool = False,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.disk = disk if disk is not None else SimulatedDisk()
        self.page_cache = page_cache
        self.checksums = checksums
        self._files: Dict[str, ArrayFile] = {}

    def array_file(self, name: str, dtype: np.dtype) -> ArrayFile:
        """Get (or create a handle for) the named column file."""
        require("/" not in name and name not in ("", ".", ".."), f"bad file name {name!r}")
        key = name
        existing = self._files.get(key)
        if existing is not None:
            require(
                existing.dtype == np.dtype(dtype),
                f"file {name!r} already opened with dtype {existing.dtype}",
            )
            return existing
        f = ArrayFile(
            self.root / name,
            np.dtype(dtype),
            self.disk,
            cache=self.page_cache,
            checksums=self.checksums,
        )
        self._files[key] = f
        return f

    # -- metadata sidecars ---------------------------------------------------
    #
    # Grid metas and checkpoint sidecars are JSON descriptors of on-disk
    # state, read/written through the device so callers outside storage/
    # never touch files directly. Like the CRC sidecars, their (tiny)
    # traffic is modeled as inline with the transfers they describe, so
    # it is not charged.

    def read_meta_text(self, name: str) -> str:
        """Read a metadata sidecar (uncharged; see note above)."""
        require("/" not in name and name not in ("", ".", ".."), f"bad file name {name!r}")
        return (self.root / name).read_text()

    def write_meta_text(self, name: str, text: str, atomic: bool = False) -> None:
        """Write a metadata sidecar.

        With ``atomic=True`` the text lands in ``<name>.tmp`` first and
        is committed with an atomic rename — the crash-consistency
        primitive the checkpoint layer builds on (a torn sidecar must
        never parse as valid).
        """
        require("/" not in name and name not in ("", ".", ".."), f"bad file name {name!r}")
        target = self.root / name
        if not atomic:
            target.write_text(text)
            return
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(text)
        tmp.replace(target)

    def file_names(self) -> Iterator[str]:
        return iter(sorted(p.name for p in self.root.iterdir() if p.is_file()))

    def total_bytes(self) -> int:
        """Total on-disk size of all files under the device root."""
        return sum(p.stat().st_size for p in self.root.iterdir() if p.is_file())

    def purge(self) -> None:
        """Delete every file under the device root.

        Every removed file is also dropped from the page cache — a
        purged-then-recreated file must miss, not inherit phantom pages
        (and undercharged I/O) from its deleted predecessor.
        """
        for f in list(self._files.values()):
            f.delete()
        self._files.clear()
        for p in self.root.iterdir():
            if p.is_file():
                if self.page_cache is not None:
                    self.page_cache.invalidate_file(p.name)
                p.unlink()
