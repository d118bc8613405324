"""Modeled interconnect: bandwidth/latency charging, retry, backoff.

The fabric follows the same charging discipline as the disk model
(:mod:`repro.storage.disk`): every transfer advances the *sender's*
simulated clock by ``latency + nbytes / bandwidth`` under the
``network`` component, and every absorbed fault is counted. Nothing
here consults wall-clock time — the backoff jitter comes from a seeded
generator, so a failing schedule replays bit-identically.

Fault absorption (kinds injected by a
:class:`~repro.storage.faults.FaultPlan` with ``msg-*`` specs whose
patterns match channel names ``"w{src}->w{dst}"``):

``msg-drop``
    the transfer is charged but never delivered; the sender times out
    and retries with exponential backoff + seeded jitter.
``msg-corrupt``
    delivered with a flipped payload bit; the receiver's CRC check
    rejects it and the sender retries.
``msg-dup``
    delivered twice; the second copy is recognized by its sequence
    number and dropped by the inbox.

Retries are bounded (:data:`MAX_NET_RETRIES`); exhaustion raises
:class:`NetworkError` — with count-based fault specs this only happens
when a plan deliberately faults more consecutive attempts than the
budget covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.messages import ACCEPTED, DUPLICATE, Inbox, ValueMessage
from repro.obs.metrics import MetricsRegistry
from repro.storage.faults import FaultInjector
from repro.utils.rng import make_rng
from repro.utils.timers import SimClock
from repro.utils.validation import check_nonneg, check_positive, require

#: SimClock component label for modeled network time. Unknown components
#: map to the CPU resource in the dual-timeline model, which is right:
#: send/ack handling occupies the worker, not its disk.
NETWORK = "network"

#: Bounded retry budget per message (mirrors ArrayFile's MAX_IO_RETRIES).
MAX_NET_RETRIES = 4

#: First backoff wait; doubles per retry, plus seeded jitter.
NET_BACKOFF_BASE_S = 100e-6
NET_BACKOFF_JITTER = 0.25

MiB = float(1 << 20)


class NetworkError(IOError):
    """A message could not be delivered within the retry budget."""


@dataclass(frozen=True)
class InterconnectProfile:
    """Bandwidth/latency model of the worker-to-worker fabric."""

    name: str
    bandwidth: float  # bytes/second
    latency_s: float  # per-message one-way latency

    def __post_init__(self) -> None:
        check_positive(self.bandwidth, "bandwidth")
        check_nonneg(self.latency_s, "latency_s")

    def transfer_time(self, nbytes: int) -> float:
        """Modeled seconds to move ``nbytes`` (one request)."""
        check_nonneg(nbytes, "nbytes")
        return self.latency_s + nbytes / self.bandwidth


#: Gigabit Ethernet: the paper-era commodity-cluster baseline.
ETH1_PROFILE = InterconnectProfile("eth1", bandwidth=125 * MiB, latency_s=100e-6)
#: 10 GbE: the default — fast enough that sharded I/O dominates.
ETH10_PROFILE = InterconnectProfile("eth10", bandwidth=1250 * MiB, latency_s=25e-6)
#: EDR InfiniBand-class fabric.
IB_PROFILE = InterconnectProfile("ib", bandwidth=12500 * MiB, latency_s=2e-6)

INTERCONNECT_PROFILES = {
    p.name: p for p in (ETH1_PROFILE, ETH10_PROFILE, IB_PROFILE)
}
DEFAULT_INTERCONNECT = ETH10_PROFILE


def channel_name(src: int, dst: int) -> str:
    """The fnmatch-able channel a ``msg-*`` fault spec targets."""
    return f"w{src}->w{dst}"


class Interconnect:
    """Delivers :class:`ValueMessage` s between workers.

    One instance serves the whole cluster; its counters feed
    ``RunResult.recovery``.
    """

    def __init__(
        self,
        profile: InterconnectProfile = DEFAULT_INTERCONNECT,
        injector: Optional[FaultInjector] = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.injector = injector
        self._rng = make_rng(seed)
        self._counters: Dict[str, float] = {
            "messages_sent": 0,
            "bytes_sent": 0,
            "net_retries": 0,
            "net_backoff_seconds": 0.0,
            "msgs_dropped": 0,
            "msgs_duplicated": 0,
            "msgs_corrupted": 0,
        }
        #: Optional observability registry (attached by a traced cluster
        #: run): message sizes land in power-of-two histograms — one
        #: global ``net.msg_size`` plus one per channel — and retries in
        #: the ``net.retries`` counter.
        self.metrics: Optional[MetricsRegistry] = None

    # -- counters ---------------------------------------------------------

    def _bump(self, key: str, amount: float = 1) -> None:
        self._counters[key] += amount

    def counters(self) -> Dict[str, float]:
        """A copy of the cumulative fault/traffic counters."""
        out = dict(self._counters)
        out["net_backoff_seconds"] = float(out["net_backoff_seconds"])
        return out

    # -- transfers --------------------------------------------------------

    def _charge(self, clock: SimClock, nbytes: int, channel: str) -> None:
        clock.charge(NETWORK, self.profile.transfer_time(nbytes))
        self._bump("messages_sent")
        self._bump("bytes_sent", nbytes)
        if self.metrics is not None:
            self.metrics.observe("net.msg_size", nbytes)
            self.metrics.observe(f"net.msg_size.{channel}", nbytes)

    def send(
        self, clock: SimClock, channel: str, msg: ValueMessage, inbox: Inbox
    ) -> str:
        """Transmit ``msg`` on ``channel``, absorbing injected faults.

        Every attempt (first try and each retry) is charged to the
        sender's ``clock``; waits between attempts are charged too.
        Returns the final delivery status (``accepted`` or
        ``duplicate`` — a duplicate means the receiver already holds an
        identical copy, e.g. after a rollback re-send, and is success).
        """
        for attempt in range(MAX_NET_RETRIES + 1):
            self._charge(clock, msg.nbytes, channel)
            fault = (
                self.injector.fault_message(channel)
                if self.injector is not None
                else None
            )
            if fault == "msg-drop":
                self._bump("msgs_dropped")
                status = None  # lost in flight: no delivery at all
            elif fault == "msg-corrupt":
                self._bump("msgs_corrupted")
                status = inbox.deliver(msg.corrupted())
            elif fault == "msg-dup":
                self._bump("msgs_duplicated")
                status = inbox.deliver(msg)
                # The wire carried it twice; the second copy is absorbed
                # by the inbox's seq dedup.
                self._charge(clock, msg.nbytes, channel)
                inbox.deliver(msg)
            else:
                status = inbox.deliver(msg)
            if status in (ACCEPTED, DUPLICATE):
                return status
            # Dropped, or rejected by the receiver's CRC check: wait
            # (exponential backoff + seeded jitter) and re-send.
            if attempt == MAX_NET_RETRIES:
                raise NetworkError(
                    f"message seq={msg.seq} on {channel} undeliverable after "
                    f"{MAX_NET_RETRIES} retries"
                )
            backoff = (
                NET_BACKOFF_BASE_S
                * (2**attempt)
                * (1.0 + NET_BACKOFF_JITTER * float(self._rng.random()))
            )
            clock.charge(NETWORK, backoff)
            self._bump("net_retries")
            self._bump("net_backoff_seconds", backoff)
            if self.metrics is not None:
                self.metrics.inc("net.retries")
        raise NetworkError(f"unreachable retry exit on {channel}")  # pragma: no cover

    def transfer_bulk(self, clock: SimClock, nbytes: int) -> None:
        """Charge one bulk state transfer (checkpoint fetch during
        degradation) to the receiving worker's clock."""
        require(nbytes >= 0, "nbytes must be >= 0")
        self._charge(clock, nbytes, "bulk")
