"""Crash-consistent checkpoint/resume support for long engine runs.

Out-of-core executions are long (the paper's Kron30 SSSP runs for six
hours); a crash mid-run should not force a restart from iteration zero.
A checkpoint captures everything a resumed run needs: the iteration
counter, the frontier bitmap, a *snapshot* of every per-vertex state
array, and engine-specific extras (e.g. the carried cross-iteration
accumulator of the paper's Algorithm 2/3).

Crash consistency (see ``docs/ROBUSTNESS.md``)
----------------------------------------------
Checkpoints are double-buffered: generation ``g`` lives in slot
``g % 2``, with its own array files and its own JSON sidecar committed
last via write-to-temp + atomic rename. A crash at *any* point while
generation ``g`` is being written therefore leaves generation ``g-1``
(in the other slot) fully intact — the recovery path picks the highest
generation whose sidecar parses, whose referenced array files all exist
with the recorded sizes and CRC32s, and falls back to the previous
generation otherwise. Before a slot is reused its stale sidecar is
unlinked first, so a half-overwritten slot can never masquerade as a
valid older checkpoint.

State arrays are snapshotted *into* the checkpoint rather than merely
referenced: the live vertex value files advance every round, so a
reference would go stale the moment the next round starts (a post-apply
crash would otherwise resume iteration ``t`` from iteration ``t+1``'s
values — silently wrong results).

The sidecar also records a fingerprint of the graph (vertex count, edge
count, partition count); resuming against a different graph fails loudly
instead of producing garbage.

Usage::

    engine.run(program, checkpoint_tag="nightly")      # writes as it goes
    # ... crash ...
    engine.run(program, checkpoint_tag="nightly", resume=True)

A resumed :class:`~repro.core.result.RunResult` reports cumulative
``iterations`` but only the post-resume per-iteration records and
clock/traffic deltas (the pre-crash portion was billed to the run that
crashed). Checkpoints are discarded automatically when a run converges.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import DTypeLike

from repro.graph.vertexdata import VertexArrayStore
from repro.obs import NULL_TRACER, TracerLike
from repro.storage.blockfile import Device
from repro.utils.bitset import VertexSubset
from repro.utils.validation import require

MASK_DTYPE = np.uint8

#: Number of alternating checkpoint slots (double buffering).
SLOTS = 2


class CheckpointCorruptError(ValueError):
    """No on-disk checkpoint generation can restore the run.

    Raised by :meth:`CheckpointManager.load_meta` when sidecars exist but
    none of their array files pass the size/CRC checks — i.e. both slots
    of the double buffer are damaged and resume is impossible. The
    message names the checkpoint, the failed generation numbers, and the
    graph fingerprint so operators can tell *which* run's state died
    without decoding a low-level checksum traceback. Also raised by
    :meth:`CheckpointManager.load_state` when the selected generation
    holds no snapshot of a requested state array: the live value files
    may have run ahead of the sidecar, so nothing else can stand in.
    """


@dataclass
class CheckpointMeta:
    """The JSON sidecar describing one checkpoint generation."""

    program: str
    iterations_done: int
    state_arrays: Dict[str, str]  # array name -> checkpoint file name
    extra_arrays: Dict[str, str]
    generation: int = 1
    #: (num_vertices, num_edges, P) of the graph this checkpoint belongs to.
    fingerprint: Optional[Tuple[int, int, int]] = None
    #: file name -> {"crc32": ..., "nbytes": ...} for every referenced file.
    checksums: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "program": self.program,
                "iterations_done": self.iterations_done,
                "state_arrays": self.state_arrays,
                "extra_arrays": self.extra_arrays,
                "generation": self.generation,
                "fingerprint": list(self.fingerprint) if self.fingerprint else None,
                "checksums": self.checksums,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckpointMeta":
        data = json.loads(text)
        fp = data.get("fingerprint")
        return cls(
            program=data["program"],
            iterations_done=int(data["iterations_done"]),
            state_arrays=dict(data["state_arrays"]),
            extra_arrays=dict(data["extra_arrays"]),
            generation=int(data.get("generation", 1)),
            fingerprint=tuple(int(x) for x in fp) if fp else None,
            checksums={
                k: {"crc32": int(v["crc32"]), "nbytes": int(v["nbytes"])}
                for k, v in data.get("checksums", {}).items()
            },
        )


class CheckpointManager:
    """Writes and restores one engine run's control state on a device."""

    def __init__(self, device: Device, base_name: str) -> None:
        self.device = device
        self.base_name = base_name
        self._active: Optional[CheckpointMeta] = None
        #: Observability hook (set by the owning engine): checkpoint
        #: array persists and the sidecar commit get their own spans.
        self.tracer: TracerLike = NULL_TRACER

    # -- naming ------------------------------------------------------------

    def _sidecar_path(self, slot: int) -> Path:
        return self.device.root / f"{self.base_name}.s{slot}.ckpt.json"

    def _array_name(self, label: str, slot: int) -> str:
        return f"{self.base_name}.{label}.s{slot}.ckpt"

    # -- validation ---------------------------------------------------------

    def _slot_meta(self, slot: int) -> Optional[CheckpointMeta]:
        path = self._sidecar_path(slot)
        if not path.exists():
            return None
        try:
            return CheckpointMeta.from_json(self.device.read_meta_text(path.name))
        except (ValueError, KeyError, OSError):
            return None  # torn/garbled sidecar: the slot never committed

    def _files_ok(self, meta: CheckpointMeta, check_crc: bool) -> bool:
        """Do all of the checkpoint's array files exist, sized (and
        checksummed) as the sidecar recorded at commit time?"""
        names = list(meta.extra_arrays.values()) + list(meta.state_arrays.values())
        for name in names:
            path = self.device.root / name
            record = meta.checksums.get(name)
            if not path.exists():
                return False
            if record is not None and path.stat().st_size != record["nbytes"]:
                return False
            if check_crc and record is not None:
                data = path.read_bytes()  # charged-io-ok: charged explicitly below
                # Validation is a real sequential scan; charge it.
                self.device.disk.charge_read_sequential(len(data))
                if zlib.crc32(data) != record["crc32"]:
                    return False
        return True

    def _select(self, check_crc: bool) -> Optional[CheckpointMeta]:
        """The newest generation whose sidecar and files validate."""
        candidates = [m for s in range(SLOTS) if (m := self._slot_meta(s))]
        for meta in sorted(candidates, key=lambda m: m.generation, reverse=True):
            if self._files_ok(meta, check_crc=check_crc):
                return meta
        return None

    @property
    def exists(self) -> bool:
        """Is there a restorable checkpoint (sidecar + all array files)?"""
        return self._select(check_crc=False) is not None

    # -- writing -----------------------------------------------------------

    def _persist(
        self, name: str, arr: np.ndarray, checksums: Dict[str, Dict[str, int]]
    ) -> None:
        dtype = MASK_DTYPE if arr.dtype == bool else arr.dtype
        data = np.ascontiguousarray(arr.astype(dtype))
        VertexArrayStore(self.device, name, data.shape[0], dtype).store_all(data)
        raw = data.tobytes()
        checksums[name] = {"crc32": zlib.crc32(raw), "nbytes": len(raw)}

    def write(
        self,
        program_name: str,
        iterations_done: int,
        frontier: VertexSubset,
        state_arrays: Optional[Dict[str, np.ndarray]] = None,
        extra_arrays: Optional[Dict[str, np.ndarray]] = None,
        fingerprint: Optional[Sequence[int]] = None,
    ) -> None:
        """Persist a complete checkpoint generation after a round.

        ``state_arrays`` holds the engine's per-vertex value arrays
        (snapshotted into the checkpoint); ``extra_arrays`` holds
        engine-specific payload (e.g. the carried cross-iteration
        accumulator).
        """
        latest = self._select(check_crc=False)
        generation = (latest.generation if latest else 0) + 1
        slot = generation % SLOTS

        # Invalidate-before-reuse: once this slot's arrays start being
        # overwritten, its old sidecar must not validate them.
        stale = self._sidecar_path(slot)
        if stale.exists():
            stale.unlink()

        checksums: Dict[str, Dict[str, int]] = {}
        with self.tracer.span(
            "checkpoint.persist_arrays", cat="checkpoint", generation=generation
        ):
            frontier_name = self._array_name("frontier", slot)
            self._persist(frontier_name, frontier.mask, checksums)
            extra_names: Dict[str, str] = {"frontier": frontier_name}
            for label, arr in (extra_arrays or {}).items():
                name = self._array_name(f"extra.{label}", slot)
                self._persist(name, arr, checksums)
                extra_names[label] = name
            state_names: Dict[str, str] = {}
            for label, arr in (state_arrays or {}).items():
                name = self._array_name(f"state.{label}", slot)
                self._persist(name, arr, checksums)
                state_names[label] = name

        inj = self.device.disk.injector
        if inj is not None:
            # Arrays written, sidecar not yet committed: the classic
            # checkpoint crash window.
            inj.crash_point("mid-checkpoint")

        meta = CheckpointMeta(
            program=program_name,
            iterations_done=iterations_done,
            state_arrays=state_names,
            extra_arrays=extra_names,
            generation=generation,
            fingerprint=tuple(int(x) for x in fingerprint) if fingerprint else None,
            checksums=checksums,
        )
        # The sidecar commits the generation: write-to-temp + atomic
        # rename, and only after every array landed. A crash anywhere
        # above leaves the other slot's generation in force.
        with self.tracer.span(
            "checkpoint.commit", cat="checkpoint", generation=generation
        ):
            target = self._sidecar_path(slot)
            self.device.write_meta_text(target.name, meta.to_json(), atomic=True)
        self._active = meta

    # -- restoring -----------------------------------------------------

    def load_meta(
        self, expected_program: str, fingerprint: Optional[Sequence[int]] = None
    ) -> CheckpointMeta:
        """Select, validate (including CRCs) and pin the restore source."""
        meta = self._select(check_crc=True)
        if meta is None:
            candidates = [m for s in range(SLOTS) if (m := self._slot_meta(s))]
            if candidates:
                gens = ", ".join(
                    str(m.generation)
                    for m in sorted(candidates, key=lambda m: m.generation)
                )
                fps = {m.fingerprint for m in candidates if m.fingerprint}
                fp_txt = (
                    " for graph (vertices, edges, P) = " + ", ".join(str(f) for f in sorted(fps))
                    if fps
                    else ""
                )
                raise CheckpointCorruptError(
                    f"checkpoint {self.base_name!r} is unrecoverable: "
                    f"generation(s) {gens}{fp_txt} all failed validation "
                    f"(missing, truncated, or corrupt array files); "
                    f"restart the run from scratch"
                )
        require(meta is not None, f"no valid checkpoint {self.base_name!r} on device")
        require(
            meta.program == expected_program,
            f"checkpoint belongs to program {meta.program!r}, not {expected_program!r}",
        )
        if fingerprint is not None and meta.fingerprint is not None:
            fp = tuple(int(x) for x in fingerprint)
            require(
                fp == meta.fingerprint,
                f"checkpoint was taken on a different graph: it records "
                f"(vertices, edges, P) = {meta.fingerprint}, this run has {fp}",
            )
        self._active = meta
        return meta

    def _require_active(self) -> CheckpointMeta:
        require(
            self._active is not None,
            "no checkpoint selected: call load_meta() before loading arrays",
        )
        return self._active

    def _load_array(self, name: str, length: int, dtype: DTypeLike) -> np.ndarray:
        stored_dtype = MASK_DTYPE if np.dtype(dtype) == bool else np.dtype(dtype)
        arr = VertexArrayStore(self.device, name, length, stored_dtype).load_all()
        return arr.astype(dtype)

    def load_frontier(self, num_vertices: int) -> VertexSubset:
        meta = self._require_active()
        mask = self._load_array(meta.extra_arrays["frontier"], num_vertices, bool)
        return VertexSubset(num_vertices, mask)

    def load_state(self, label: str, length: int, dtype: DTypeLike) -> np.ndarray:
        meta = self._require_active()
        if label not in meta.state_arrays:
            raise CheckpointCorruptError(
                f"checkpoint {self.base_name!r} (generation {meta.generation}) "
                f"has no snapshot of state array {label!r}; "
                f"restart the run from scratch"
            )
        return self._load_array(meta.state_arrays[label], length, dtype)

    def load_extra(self, label: str, length: int, dtype: DTypeLike) -> np.ndarray:
        meta = self._require_active()
        require(
            label in meta.extra_arrays,
            f"checkpoint has no extra array {label!r}",
        )
        return self._load_array(meta.extra_arrays[label], length, dtype)

    # -- lifecycle -------------------------------------------------------

    def discard(self) -> None:
        """Remove every sidecar, temp file and checkpoint array file."""
        self._active = None
        patterns = (
            f"{self.base_name}.s[0-9].ckpt.json",
            f"{self.base_name}.*.ckpt.json.tmp",
            f"{self.base_name}.s[0-9].ckpt.tmp",  # historical temp suffix
            f"{self.base_name}.*.ckpt",
            f"{self.base_name}.*.ckpt.crc",
            f"{self.base_name}.ckpt.json",  # pre-generation layout
            f"{self.base_name}.ckpt.json.tmp",
        )
        cache = self.device.page_cache
        seen = set()
        for pattern in patterns:
            for path in self.device.root.glob(pattern):
                if path in seen:
                    continue
                seen.add(path)
                if cache is not None:
                    cache.invalidate_file(path.name)
                path.unlink()
