"""Simulated network between the query router and the cluster nodes.

The paper's sharded environment runs the query router (``mongos``), the
config server, and three shards on separate EC2 machines, so every routed
operation pays (a) a per-message round-trip latency and (b) a transfer cost
proportional to the payload size.  The reproduction runs everything in one
process; this module makes the cost of crossing a node boundary explicit:

* payloads are really serialized/deserialized at the boundary (CPU work that
  exists in the real system too);
* every message is recorded with its direction, purpose, and size;
* a :class:`NetworkModel` converts the message log into *simulated* elapsed
  seconds, so experiment results can separate computation from communication
  the same way the paper's observations do (Section 4.3, observation ii/iii).

Concurrency
-----------
The router's scatter-gather executes every shard branch on its own worker
(:mod:`repro.sharding.executor`).  Workers never touch the shared
:class:`SimulatedNetwork` directly: each branch opens a private, lock-free
:class:`NetworkChannel`, accumulates its messages there, and the router
merges the channels back into the shared network at gather time — in
deterministic target order, so traffic totals and the message log are
identical to a sequential execution.  The shared object itself is also
thread-safe (a lock guards ``send``/``absorb``) for direct users such as the
balancer.

``NetworkModel(realtime=True)`` additionally makes every message *really*
wait for its simulated duration.  This emulates the paper's machine
boundaries in real time: per-shard network waits become genuine wall-clock
waits that concurrent shard branches overlap, which is how the parallel
scatter benchmark demonstrates makespan ≈ max-of-shards on a single host.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..documentstore.bson import decode_batch, encode_batch

__all__ = [
    "NetworkModel",
    "NetworkMessage",
    "NetworkStats",
    "NetworkChannel",
    "SimulatedNetwork",
]


#: Messages the shared network keeps for inspection; statistics stay exact.
MESSAGE_LOG_CAPACITY = 4096


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth parameters of the simulated interconnect.

    The defaults approximate a same-availability-zone cloud network: 0.5 ms
    round-trip latency per message and 1 Gbit/s of usable bandwidth.

    ``realtime=True`` turns the model from pure accounting into real-time
    emulation: every message sleeps for its simulated duration, so routed
    operations pay their network cost in wall-clock time (and concurrent
    shard branches can genuinely overlap those waits).
    """

    latency_seconds: float = 0.0005
    bandwidth_bytes_per_second: float = 125_000_000.0
    realtime: bool = False

    def transfer_seconds(self, payload_bytes: int) -> float:
        """Simulated seconds needed to move *payload_bytes* over the wire."""
        if payload_bytes <= 0:
            return 0.0
        return payload_bytes / self.bandwidth_bytes_per_second

    def message_seconds(self, payload_bytes: int) -> float:
        """Latency plus transfer time for one message."""
        return self.latency_seconds + self.transfer_seconds(payload_bytes)


@dataclass(frozen=True)
class NetworkMessage:
    """One message crossing the simulated network."""

    source: str
    destination: str
    purpose: str
    payload_bytes: int


@dataclass
class NetworkStats:
    """Aggregated traffic statistics."""

    messages: int = 0
    bytes_transferred: int = 0
    simulated_seconds: float = 0.0
    by_purpose: dict[str, int] = field(default_factory=dict)

    def record(self, message: NetworkMessage, seconds: float) -> None:
        self.messages += 1
        self.bytes_transferred += message.payload_bytes
        self.simulated_seconds += seconds
        self.by_purpose[message.purpose] = self.by_purpose.get(message.purpose, 0) + 1

    def merge(self, other: "NetworkStats") -> None:
        """Fold another accumulator into this one (used at gather time)."""
        self.messages += other.messages
        self.bytes_transferred += other.bytes_transferred
        self.simulated_seconds += other.simulated_seconds
        for purpose, count in other.by_purpose.items():
            self.by_purpose[purpose] = self.by_purpose.get(purpose, 0) + count

    def snapshot(self) -> dict[str, Any]:
        """Return the statistics as a plain dictionary."""
        return {
            "messages": self.messages,
            "bytes_transferred": self.bytes_transferred,
            "simulated_seconds": self.simulated_seconds,
            "by_purpose": dict(self.by_purpose),
        }


class _Endpoint:
    """Shared message API of the network and its per-worker channels."""

    model: NetworkModel

    def _record(self, message: NetworkMessage, seconds: float) -> None:
        raise NotImplementedError

    # -- raw accounting ------------------------------------------------------

    def send(self, source: str, destination: str, purpose: str, payload_bytes: int) -> float:
        """Account for one message and return its simulated duration."""
        message = NetworkMessage(source, destination, purpose, payload_bytes)
        seconds = self.model.message_seconds(payload_bytes)
        if self.model.realtime:
            time.sleep(seconds)
        self._record(message, seconds)
        return seconds

    # -- document transfer ----------------------------------------------------

    def ship_documents(
        self,
        documents: Iterable[Mapping[str, Any]],
        *,
        source: str,
        destination: str,
        purpose: str,
    ) -> list[dict[str, Any]]:
        """Serialize *documents*, account the transfer, and return copies.

        The encode/decode round trip both models the wire format cost and
        guarantees that the receiving side cannot share mutable state with
        the sender — exactly the isolation a real network provides.
        """
        payload = encode_batch(documents)
        self.send(source, destination, purpose, len(payload))
        return decode_batch(payload)

    def ship_command(
        self,
        command: Mapping[str, Any] | None,
        *,
        source: str,
        destination: str,
        purpose: str,
    ) -> float:
        """Account for a small command message (query, update, getmore)."""
        payload = encode_batch([command or {}])
        return self.send(source, destination, purpose, len(payload))


class NetworkChannel(_Endpoint):
    """Lock-free per-worker traffic accumulator.

    A scatter worker records its branch's messages here without touching any
    shared state; the router absorbs the channel into the shared
    :class:`SimulatedNetwork` at gather time (in deterministic target order),
    so totals match a sequential execution exactly.
    """

    def __init__(self, model: NetworkModel) -> None:
        self.model = model
        self.stats = NetworkStats()
        self.messages: list[NetworkMessage] = []

    def _record(self, message: NetworkMessage, seconds: float) -> None:
        self.stats.record(message, seconds)
        self.messages.append(message)


class SimulatedNetwork(_Endpoint):
    """Message accounting plus real (de)serialization at node boundaries.

    Thread-safe: direct sends and channel absorption are serialized by an
    internal lock, so concurrent scatter branches (and client threads) can
    never corrupt the statistics or the message log.  The log is a bounded
    window of recent messages — a long-running cluster must not grow with
    every message it ever sent — while :attr:`stats` counts all of them.
    """

    def __init__(self, model: NetworkModel | None = None) -> None:
        self.model = model or NetworkModel()
        self.stats = NetworkStats()
        self._log: deque[NetworkMessage] = deque(maxlen=MESSAGE_LOG_CAPACITY)
        self._lock = threading.Lock()

    def _record(self, message: NetworkMessage, seconds: float) -> None:
        with self._lock:
            self.stats.record(message, seconds)
            self._log.append(message)

    # -- per-worker channels ---------------------------------------------------

    def channel(self) -> NetworkChannel:
        """Open a private accumulator for one scatter branch."""
        return NetworkChannel(self.model)

    def absorb(self, channel: NetworkChannel) -> None:
        """Merge a branch channel's traffic into the shared log and stats."""
        with self._lock:
            self.stats.merge(channel.stats)
            self._log.extend(channel.messages)

    # -- introspection --------------------------------------------------------

    @property
    def log(self) -> list[NetworkMessage]:
        """The most recent :data:`MESSAGE_LOG_CAPACITY` messages, oldest first (copy)."""
        with self._lock:
            return list(self._log)

    def reset(self) -> None:
        """Clear statistics and the message log."""
        with self._lock:
            self.stats = NetworkStats()
            self._log.clear()
