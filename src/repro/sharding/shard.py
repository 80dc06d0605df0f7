"""Shard nodes.

A shard is a ``mongod`` instance that stores a horizontal slice of each
sharded collection plus, for the *primary* shard of a database, every
unsharded collection (Table 3.4 of the paper lists one ``mongod`` process per
shard node).  In the reproduction a shard wraps its own
:class:`~repro.documentstore.client.DocumentStoreClient`, so per-shard
execution cost is real work measured on real data structures.  Every shard
runs on the same hardware as the process; the router's metrics
(:class:`~repro.sharding.router.RouterMetrics`) are the one record of the
time each shard spent.
"""

from __future__ import annotations

import pathlib
import threading
from typing import Any

from ..documentstore.client import DocumentStoreClient
from ..documentstore.collection import Collection

__all__ = ["Shard"]


class Shard:
    """One data-bearing cluster node."""

    def __init__(
        self,
        shard_id: str,
        *,
        data_dir: str | pathlib.Path | None = None,
        fsync: str = "batch",
    ) -> None:
        self.shard_id = shard_id
        # With a data directory the shard's store is durable: it keeps its
        # own per-shard WAL/snapshot generation and recovers on construction,
        # exactly like a stand-alone node.
        self._client = DocumentStoreClient(name=shard_id, data_dir=data_dir, fsync=fsync)
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
        """Flush and close the shard's storage engine, then release its store."""
        self._client.close()

    # -- execution -------------------------------------------------------------

    def run(self, operation, *args, **kwargs):
        """Run *operation* under the shard's op lock and return its result.

        Busy time is not recorded here: the router's gather records it at
        merge time, so a scatter with a failed branch leaves the accounting
        untouched.
        """
        with self.op_lock:
            return operation(*args, **kwargs)

    # -- statistics ------------------------------------------------------------

    def data_size(self) -> int:
        """Total bytes stored on this shard."""
        return self._client.total_data_size()

    def document_count(self, database_name: str | None = None) -> int:
        """Number of documents stored on this shard (optionally one database)."""
        return sum(
            len(database[name])
            for database in self._client
            if database_name in (None, database.name)
            for name in database.list_collection_names()
        )

    def stats(self) -> dict[str, Any]:
        """Shard statistics (stored bytes and documents)."""
        return {
            "shard": self.shard_id,
            "dataSize": self.data_size(),
            "documents": self.document_count(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard({self.shard_id!r}, documents={self.document_count()})"
