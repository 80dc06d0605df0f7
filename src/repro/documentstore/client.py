"""Top-level client.

A :class:`DocumentStoreClient` plays the role of a driver connection to a
single ``mongod`` process — the stand-alone deployment environment of the
paper.  The sharded deployment environment is provided by
:class:`repro.sharding.cluster.ShardedCluster`, which exposes the same
database/collection API through its query router.

Given a ``data_dir`` the client is *durable*: construction recovers
whatever the directory holds (snapshot load + WAL replay, truncating any
torn tail), and from then on every acknowledged write batch is logged
through the :class:`~repro.documentstore.storage.StorageEngine` before the
call returns.  Without a ``data_dir`` the store stays purely in-memory.
"""

from __future__ import annotations

import pathlib
from contextlib import nullcontext
from typing import Any, Iterator

from .database import Database
from .errors import OperationFailure
from .storage import StorageEngine

__all__ = ["DocumentStoreClient"]


class _ClosedHandle:
    """What a database or collection handle becomes when its client closes: every use raises."""

    def _refuse(self, *_args: Any) -> Any:
        raise OperationFailure("client is closed")

    __getattr__ = __getitem__ = __contains__ = __iter__ = __len__ = _refuse


class DocumentStoreClient:
    """An in-process document store server (stand-alone deployment)."""

    def __init__(
        self,
        name: str = "standalone",
        *,
        data_dir: str | pathlib.Path | None = None,
        fsync: str = "batch",
        batch_fsync_every: int | None = None,
        auto_checkpoint_bytes: int | None = None,
        storage_engine: StorageEngine | None = None,
    ) -> None:
        self.name = name
        self._databases: dict[str, Database] = {}
        self._closed = False
        # A real instance attribute, set before any engine work: __getattr__
        # materializes a *database* for unknown attribute names, so ``engine``
        # must always resolve through normal attribute lookup.
        self.engine: StorageEngine | None = None
        if storage_engine is None and data_dir is not None:
            kwargs: dict[str, Any] = {"fsync": fsync}
            if batch_fsync_every is not None:
                kwargs["batch_fsync_every"] = batch_fsync_every
            if auto_checkpoint_bytes is not None:
                kwargs["auto_checkpoint_bytes"] = auto_checkpoint_bytes
            storage_engine = StorageEngine(data_dir, **kwargs)
        if storage_engine is not None:
            # Recover first (logging disabled during replay), then publish
            # the engine so subsequent writes append to the WAL.
            storage_engine.attach(self)
            self.engine = storage_engine

    def __getitem__(self, name: str) -> Database:
        """Return the database called *name*, creating it lazily."""
        if self._closed:
            raise OperationFailure("client is closed")
        if name not in self._databases:
            self._databases[name] = Database(self, name)
        return self._databases[name]

    def __getattr__(self, name: str) -> Database:
        if name.startswith("_"):
            raise AttributeError(name)
        return self[name]

    def __iter__(self) -> Iterator[Database]:
        return iter(list(self._databases.values()))

    def get_database(self, name: str) -> Database:
        """Return (and lazily create) the database called *name*."""
        return self[name]

    def list_database_names(self) -> list[str]:
        """Names of every database, sorted."""
        return sorted(self._databases)

    def drop_database(self, name: str) -> None:
        """Drop the database called *name* and all its collections."""
        # Under the write lock up to the record: a write to a new database of
        # that name must not be logged ahead of the drop that replay runs.
        with nullcontext() if self.engine is None else self.engine.write_lock:
            database = self._databases.pop(name, None)
            if database is not None:
                for collection_name in database.list_collection_names():
                    database.drop_collection(collection_name)
                if self.engine is not None:
                    self.engine.log(name, None, {"op": "drop_database"})

    # ------------------------------------------------------------- durability

    def flush_durability(self) -> None:
        """Force group-committed WAL records to stable storage (if durable)."""
        if self.engine is not None:
            self.engine.flush()

    def checkpoint(self) -> int | None:
        """Snapshot + WAL truncation; returns the new generation (if durable)."""
        if self.engine is not None:
            return self.engine.checkpoint()
        return None

    def close(self) -> None:
        """Flush and detach the storage engine, then release the store.

        From then on the client and every handle it gave out refuse use;
        ``durability_status`` still answers.
        """
        if self.engine is not None:
            self.engine.close()
        for database in self._databases.values():
            for handle in (*database, database):
                # Held by nothing, the documents and indexes are freed by
                # reference counting even while a caller keeps the handle.
                vars(handle).clear()
                handle.__class__ = _ClosedHandle
        self._databases.clear()
        self._closed = True

    def durability_status(self) -> dict[str, Any]:
        """Durability counters, or ``{"active": False}`` when in-memory."""
        if self.engine is None:
            return {"active": False}
        return self.engine.status()

    def __enter__(self) -> "DocumentStoreClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ----------------------------------------------------------------- meta

    def total_data_size(self) -> int:
        """Total data size across all databases, in bytes."""
        return sum(int(database.stats()["dataSize"]) for database in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DocumentStoreClient({self.name!r}, databases={len(self._databases)})"
