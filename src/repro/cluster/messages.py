"""Sequence-numbered, CRC-checked value messages and idempotent inboxes.

After computing a superstep, each worker broadcasts one
:class:`ValueMessage` per owned destination interval: the interval's
freshly applied state slices plus its activation bits. The message
algebra is designed so that every interconnect failure mode is absorbed
by construction:

* the sequence number is a *deterministic function* of the position in
  the computation — ``seq = superstep * P + interval`` — not a mutable
  per-connection counter, so a worker that rolls back and re-sends
  produces byte-identical messages with identical sequence numbers;
* delivery is keyed by ``seq``: a duplicate (injected or a replay after
  recovery) is recognized and dropped without touching state;
* applying a message *assigns* its interval's slices. Within one
  superstep the intervals of distinct messages are disjoint, so
  application is idempotent and order-insensitive — exactly the algebra
  the hypothesis property tests in ``tests/test_cluster_messages.py``
  check;
* a CRC32 over the packed payload travels with the message; corruption
  in flight is detected at delivery and surfaces as a rejection the
  sender retries, never as silently wrong values.

The per-sender *watermark* (highest delivered ``seq``) is persisted in
each worker's checkpoint: it names the consistent cut — everything at or
below the watermark is reflected in the checkpointed state, everything
above must be replayed by the peers' retained outbound logs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from repro.utils.validation import require

#: Delivery outcomes of :meth:`Inbox.deliver`.
ACCEPTED = "accepted"
DUPLICATE = "duplicate"
CORRUPT = "corrupt"

#: Modeled per-message framing overhead (headers, seq, CRC) in bytes.
MESSAGE_HEADER_BYTES = 64


def message_seq(superstep: int, interval: int, P: int) -> int:
    """The deterministic sequence number of one (superstep, interval)."""
    require(superstep >= 0, "superstep must be >= 0")
    require(0 <= interval < P, f"interval {interval} outside [0, {P})")
    return superstep * P + interval


@dataclass(frozen=True)
class ValueMessage:
    """One interval's state slices + activation bits for one superstep."""

    sender: int
    superstep: int
    interval: int
    lo: int
    hi: int
    seq: int
    #: state-array name -> values of ``[lo, hi)`` (copies, never views).
    payload: Dict[str, np.ndarray]
    #: activation bits of ``[lo, hi)``.
    activated: np.ndarray
    crc: int

    @staticmethod
    def _packed(
        superstep: int,
        interval: int,
        payload: Dict[str, np.ndarray],
        activated: np.ndarray,
    ) -> bytes:
        parts = [np.int64(superstep).tobytes(), np.int64(interval).tobytes()]
        for name in sorted(payload):
            parts.append(name.encode("utf-8"))
            parts.append(np.ascontiguousarray(payload[name]).tobytes())
        parts.append(np.ascontiguousarray(activated).tobytes())
        return b"".join(parts)

    @classmethod
    def make(
        cls,
        sender: int,
        superstep: int,
        interval: int,
        P: int,
        lo: int,
        hi: int,
        payload: Dict[str, np.ndarray],
        activated: np.ndarray,
    ) -> "ValueMessage":
        payload = {k: np.ascontiguousarray(v).copy() for k, v in payload.items()}
        activated = np.ascontiguousarray(activated, dtype=bool).copy()
        require(activated.shape == (hi - lo,), "activated slice length mismatch")
        for name, arr in payload.items():
            require(
                arr.shape == (hi - lo,),
                f"payload {name!r} slice length mismatch",
            )
        return cls(
            sender=sender,
            superstep=superstep,
            interval=interval,
            lo=lo,
            hi=hi,
            seq=message_seq(superstep, interval, P),
            payload=payload,
            activated=activated,
            crc=zlib.crc32(cls._packed(superstep, interval, payload, activated)),
        )

    @property
    def nbytes(self) -> int:
        """Modeled wire size (payload + activation bits + framing)."""
        n = MESSAGE_HEADER_BYTES + self.activated.nbytes
        # order-ok: integer byte counts — the sum is order-independent
        for arr in self.payload.values():
            n += arr.nbytes
        return n

    def verify(self) -> bool:
        """Does the payload still match the CRC it was sent with?"""
        return (
            zlib.crc32(
                self._packed(self.superstep, self.interval, self.payload, self.activated)
            )
            == self.crc
        )

    def corrupted(self) -> "ValueMessage":
        """A copy with one payload bit flipped (the CRC is kept).

        Models in-flight corruption: the receiver's :meth:`verify` must
        fail on the copy while the sender's original stays intact for
        the retry.
        """
        payload = {k: v.copy() for k, v in self.payload.items()}
        activated = self.activated.copy()
        flipped = False
        for name in sorted(payload):
            arr = payload[name]
            if arr.nbytes > 0:
                arr.view(np.uint8)[0] ^= 1
                flipped = True
                break
        if not flipped and activated.nbytes > 0:
            activated.view(np.uint8)[0] ^= 1
            flipped = True
        crc = self.crc if flipped else self.crc ^ 1  # empty message: break the CRC itself
        return ValueMessage(
            sender=self.sender,
            superstep=self.superstep,
            interval=self.interval,
            lo=self.lo,
            hi=self.hi,
            seq=self.seq,
            payload=payload,
            activated=activated,
            crc=crc,
        )


class Inbox:
    """Per-worker receive buffer with seq-keyed, idempotent delivery."""

    def __init__(self) -> None:
        self._messages: Dict[int, ValueMessage] = {}
        self._watermarks: Dict[int, int] = {}

    def deliver(self, msg: ValueMessage) -> str:
        """Accept, deduplicate, or reject one incoming message."""
        if not msg.verify():
            return CORRUPT
        if msg.seq in self._messages:
            return DUPLICATE
        self._messages[msg.seq] = msg
        if msg.seq > self._watermarks.get(msg.sender, -1):
            self._watermarks[msg.sender] = msg.seq
        return ACCEPTED

    def messages_for(self, superstep: int) -> List[ValueMessage]:
        """Delivered messages of one superstep, interval-ascending."""
        msgs = [m for m in self._messages.values() if m.superstep == superstep]
        return sorted(msgs, key=lambda m: m.interval)

    def watermark(self, sender: int) -> int:
        """Highest seq delivered from ``sender`` (-1 if none)."""
        return self._watermarks.get(sender, -1)

    def drop_through(self, superstep: int) -> None:
        """Discard retained messages of supersteps ``<= superstep``."""
        self._messages = {
            seq: m for seq, m in self._messages.items() if m.superstep > superstep
        }

    def __len__(self) -> int:
        return len(self._messages)


def apply_messages(
    messages: Iterable[ValueMessage],
    state: Dict[str, np.ndarray],
    activated: np.ndarray,
) -> None:
    """Assign each message's interval slices into full-length arrays.

    Assignment (not accumulation) is what makes the algebra idempotent:
    applying a message twice, or applying a superstep's messages in any
    order (their intervals are disjoint), produces the same arrays.
    """
    for msg in sorted(messages, key=lambda m: m.seq):
        for name, values in msg.payload.items():
            require(name in state, f"message carries unknown state array {name!r}")
            state[name][msg.lo : msg.hi] = values
        activated[msg.lo : msg.hi] = msg.activated
