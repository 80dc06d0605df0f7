"""Shard nodes.

A shard is a ``mongod`` instance that stores a horizontal slice of each
sharded collection plus, for the *primary* shard of a database, every
unsharded collection (Table 3.4 of the paper lists one ``mongod`` process per
shard node).  In the reproduction a shard wraps its own
:class:`~repro.documentstore.client.DocumentStoreClient`, so per-shard
execution cost is real work measured on real data structures.
"""

from __future__ import annotations

import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..documentstore.client import DocumentStoreClient
from ..documentstore.collection import Collection

__all__ = ["Shard", "ShardDescription"]


@dataclass(frozen=True)
class ShardDescription:
    """Static description of a shard node (the Table 3.1 hardware row).

    ``cpu_factor`` models the per-node hardware asymmetry of the paper's
    deployment: the stand-alone system is an m4.4xlarge (16 vCPU, 64 GB RAM)
    while each shard is a t2.large / m4.xlarge (2–4 vCPU, 8–16 GB RAM).  The
    simulated elapsed time of work executed on a shard is the measured wall
    time multiplied by this factor (1.0 = identical hardware).
    """

    shard_id: str
    ram_bytes: int = 8 * 1024 ** 3
    disk_bytes: int = 256 * 1024 ** 3
    vcpus: int = 2
    cpu_factor: float = 1.0


class Shard:
    """One data-bearing cluster node."""

    def __init__(
        self,
        shard_id: str,
        description: ShardDescription | None = None,
        *,
        data_dir: str | pathlib.Path | None = None,
        fsync: str = "batch",
    ) -> None:
        self.shard_id = shard_id
        self.description = description or ShardDescription(shard_id=shard_id)
        # With a data directory the shard's store is durable: it keeps its
        # own per-shard WAL/snapshot generation and recovers on construction,
        # exactly like a stand-alone node.
        self._client = DocumentStoreClient(name=shard_id, data_dir=data_dir, fsync=fsync)
        # Cumulative busy time, used to derive the parallel (simulated) elapsed
        # time of scatter-gather operations.  Guarded by a lock: concurrent
        # scatters from multiple client threads may account against the same
        # shard simultaneously.
        self.busy_seconds = 0.0
        self.operations = 0
        self._accounting_lock = threading.Lock()
        # Serializes storage operations on this node: a shard is one mongod
        # process, and two scatter branches from concurrent client threads
        # must not interleave structural mutations on its collections.
        self.op_lock = threading.RLock()

    # -- storage access --------------------------------------------------------

    def collection(self, database_name: str, collection_name: str) -> Collection:
        """Return the local slice of ``database.collection``."""
        return self._client[database_name][collection_name]

    def database(self, database_name: str):
        """Return the local database object called *database_name*."""
        return self._client[database_name]

    def drop_database(self, database_name: str) -> None:
        """Drop a database from this shard."""
        self._client.drop_database(database_name)

    # -- durability ------------------------------------------------------------

    @property
    def engine(self):
        """The shard's storage engine (``None`` when in-memory)."""
        return self._client.engine

    def flush_durability(self) -> None:
        """Force this shard's WAL to stable storage (no-op when in-memory)."""
        self._client.flush_durability()

    def checkpoint(self) -> int | None:
        """Checkpoint this shard's store (no-op when in-memory)."""
        with self.op_lock:
            return self._client.checkpoint()

    def durability_status(self) -> dict[str, Any]:
        """This shard's durability counters."""
        return self._client.durability_status()

    def close(self) -> None:
        """Flush and close the shard's storage engine."""
        self._client.close()

    # -- timed execution -------------------------------------------------------

    def timed(self, operation, *args, **kwargs):
        """Run *operation* and account its wall time as shard busy time."""
        started = time.perf_counter()
        try:
            with self.op_lock:
                return operation(*args, **kwargs)
        finally:
            self.record_busy(time.perf_counter() - started)

    def run(self, operation, *args, **kwargs):
        """Run *operation* under the shard's op lock, returning (result, seconds).

        Unlike :meth:`timed` this does *not* record busy time — the scatter
        gather records it at merge time so that cancelled/timed-out branches
        leave the accounting untouched.
        """
        started = time.perf_counter()
        with self.op_lock:
            result = operation(*args, **kwargs)
        return result, time.perf_counter() - started

    def record_busy(self, seconds: float, operations: int = 1) -> None:
        """Account *seconds* of storage work performed on this shard."""
        with self._accounting_lock:
            self.busy_seconds += seconds
            self.operations += operations

    def reset_accounting(self) -> None:
        """Clear busy-time counters (between experiments)."""
        with self._accounting_lock:
            self.busy_seconds = 0.0
            self.operations = 0

    # -- statistics ------------------------------------------------------------

    def data_size(self) -> int:
        """Total bytes stored on this shard."""
        return self._client.total_data_size()

    def document_count(self, database_name: str | None = None) -> int:
        """Number of documents stored on this shard (optionally one database)."""
        total = 0
        for database in self._client:
            if database_name is not None and database.name != database_name:
                continue
            total += int(database.stats()["objects"])
        return total

    def stats(self) -> dict[str, Any]:
        """Shard statistics (size, busy time, operation count)."""
        return {
            "shard": self.shard_id,
            "dataSize": self.data_size(),
            "documents": self.document_count(),
            "busySeconds": self.busy_seconds,
            "operations": self.operations,
            "ram": self.description.ram_bytes,
            "disk": self.description.disk_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard({self.shard_id!r}, documents={self.document_count()})"
