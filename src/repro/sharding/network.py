"""Simulated network between the query router and the cluster nodes.

The paper's sharded environment runs ``mongos``, the config server and three
shards on separate EC2 machines, so every routed operation pays a per-message
latency and a transfer cost proportional to its payload.  The reproduction
runs everything in one process and makes that cost explicit: every message is
counted, with its purpose and size, in one :class:`NetworkStats`, and a
:class:`NetworkModel` turns it into *simulated* seconds, so results separate
computation from communication as the paper's observations do (Section 4.3,
observations ii/iii).  A payload's size is its BSON layout
(:func:`~repro.documentstore.bson.document_size`), the measure of chunk splits,
``dataSize`` and migrations, and the sender says it: a shard reports the sizes
it stores, so shipping a document costs a lookup, not a walk.  Nothing is
serialized or copied here: a shard's answer is already the copy the router
keeps, and a shard's write copies what it stores.

Each scatter branch (:mod:`repro.sharding.executor`) counts its messages on a
private network from :meth:`SimulatedNetwork.channel`, which the router adds
to the shared one (:meth:`SimulatedNetwork.absorb`) at gather time, so totals
are identical to a sequential execution.  A lock guards ``send``/``absorb`` for
direct users such as the balancer.  ``NetworkModel(realtime=True)`` makes every
message really wait for its simulated duration; the branches of a fan-out then
run on pool threads and overlap those waits (makespan ≈ max-of-shards).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from ..documentstore.bson import document_size

__all__ = ["NetworkModel", "NetworkStats", "SimulatedNetwork"]


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth parameters of the simulated interconnect.

    The defaults approximate a same-availability-zone cloud network: 0.5 ms
    round-trip latency per message and 1 Gbit/s of usable bandwidth.
    ``realtime=True`` makes every message sleep for its simulated duration.
    """

    latency_seconds: float = 0.0005
    bandwidth_bytes_per_second: float = 125_000_000.0
    realtime: bool = False

    def transfer_seconds(self, payload_bytes: int) -> float:
        """Simulated seconds needed to move *payload_bytes* over the wire."""
        return max(payload_bytes, 0) / self.bandwidth_bytes_per_second

    def message_seconds(self, payload_bytes: int) -> float:
        """Latency plus transfer time for one message."""
        return self.latency_seconds + self.transfer_seconds(payload_bytes)


@dataclass
class NetworkStats:
    """Aggregated traffic statistics."""

    messages: int = 0
    bytes_transferred: int = 0
    simulated_seconds: float = 0.0
    by_purpose: dict[str, int] = field(default_factory=dict)

    def record(self, purpose: str, payload_bytes: int, seconds: float) -> None:
        self.messages += 1
        self.bytes_transferred += payload_bytes
        self.simulated_seconds += seconds
        self.by_purpose[purpose] = self.by_purpose.get(purpose, 0) + 1

    def merge(self, other: "NetworkStats") -> None:
        """Fold another accumulator into this one (used at gather time)."""
        self.messages += other.messages
        self.bytes_transferred += other.bytes_transferred
        self.simulated_seconds += other.simulated_seconds
        for purpose, count in other.by_purpose.items():
            self.by_purpose[purpose] = self.by_purpose.get(purpose, 0) + count

    def snapshot(self) -> dict[str, Any]:
        """Return the statistics as a plain dictionary."""
        return asdict(self)


class SimulatedNetwork:
    """Message accounting at node boundaries.

    Thread-safe: sends and absorption are serialized by an internal lock, so
    concurrent client threads can never corrupt :attr:`stats`.
    """

    def __init__(self, model: NetworkModel | None = None) -> None:
        self.model = model or NetworkModel()
        self.stats = NetworkStats()
        self._lock = threading.Lock()

    # -- raw accounting ------------------------------------------------------

    def send(self, purpose: str, payload_bytes: int) -> float:
        """Account for one message and return its simulated duration."""
        seconds = self.model.message_seconds(payload_bytes)
        if self.model.realtime:
            time.sleep(seconds)
        with self._lock:
            self.stats.record(purpose, payload_bytes, seconds)
        return seconds

    def ship_command(self, command: Mapping[str, Any] | None, *, purpose: str) -> float:
        """Account for a small command message (query, update, getmore)."""
        return self.send(purpose, document_size(command or {}))

    # -- per-worker channels ---------------------------------------------------

    def channel(self) -> "SimulatedNetwork":
        """A fresh network with the same model, private to one scatter branch."""
        return SimulatedNetwork(self.model)

    def absorb(self, channel: "SimulatedNetwork") -> None:
        """Add a branch channel's traffic to these statistics."""
        with self._lock:
            self.stats.merge(channel.stats)

    def reset(self) -> None:
        """Clear the statistics."""
        with self._lock:
            self.stats = NetworkStats()
