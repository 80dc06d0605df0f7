"""On-disk persistence: the durable storage engine facade.

:class:`StorageEngine` gives one
:class:`~repro.documentstore.client.DocumentStoreClient` real durability:
every acknowledged write batch appends one checksummed record to a
write-ahead log (:mod:`repro.documentstore.wal`), periodic checkpoints write
an atomic snapshot and truncate the log (:mod:`repro.documentstore.snapshot`),
and construction over an existing data directory replays the store back to
exactly the acknowledged state (:mod:`repro.documentstore.recovery`).  The
snapshot is the only on-disk image of a store.

The engine logs *after* the in-memory apply and acknowledges only after the
record is as durable as its fsync policy promises — ``always`` makes every
acknowledged batch crash-proof, ``batch`` group-commits, ``off`` defers to
the page cache.  Records are physical redo (full documents by ``_id``), so
replay is deterministic and idempotent regardless of query-plan
nondeterminism in the original operation.
"""

from __future__ import annotations

import pathlib
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

from .bson import encode_document
from .errors import OperationFailure
from .recovery import RecoveryReport, recover, snapshot_path, wal_path
from .snapshot import write_snapshot
from .wal import (
    DEFAULT_BATCH_FSYNC_EVERY,
    REAL_FS,
    FileSystem,
    WalCounters,
    WriteAheadLog,
    wal_status,
)

__all__ = ["StorageEngine"]

#: Checkpoint (snapshot + WAL truncation) once the log grows past this size.
DEFAULT_AUTO_CHECKPOINT_BYTES = 64 * 1024 * 1024


class StorageEngine:
    """WAL + snapshot + recovery for one client's data directory.

    Lifecycle::

        engine = StorageEngine(data_dir, fsync="always")
        engine.attach(client)   # recovers existing state, then starts logging

    ``attach`` is what ``DocumentStoreClient(data_dir=...)`` performs during
    construction.  After it returns, every write batch the client
    acknowledges has been appended to the active WAL segment;
    :meth:`checkpoint` compacts the log behind an atomic snapshot, and
    :meth:`flush` forces group-committed records to disk (the server calls
    it on graceful drain).

    The engine is thread-safe: collections hold :attr:`write_lock` from
    applying a write until its record is appended (a ``bulk_write`` for the
    whole batch), and checkpoints take the same lock.  So the WAL lists every
    document's post-images in the order they were applied — replay depends on
    it — and a snapshot is always consistent with a log position.  Index DDL
    holds the lock the same way, so a write is logged on the side of the
    ``create_index``/``drop_index`` whose uniqueness rule it was checked on.
    """

    def __init__(
        self,
        data_dir: str | pathlib.Path,
        *,
        fsync: str = "batch",
        batch_fsync_every: int = DEFAULT_BATCH_FSYNC_EVERY,
        auto_checkpoint_bytes: int | None = DEFAULT_AUTO_CHECKPOINT_BYTES,
        fs: FileSystem = REAL_FS,
    ) -> None:
        self.data_dir = pathlib.Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.batch_fsync_every = batch_fsync_every
        self.auto_checkpoint_bytes = auto_checkpoint_bytes
        self.counters = WalCounters()
        self.checkpoints = 0
        self.recovery_report: RecoveryReport | None = None
        self._fs = fs
        # Public as ``write_lock``: what makes a write's apply and log one step.
        self.write_lock = self._lock = threading.RLock()
        self._wal: WriteAheadLog | None = None
        self._client: Any = None
        self._generation = 0
        self._enabled = False
        # Records the calling thread is holding back for one ``batch`` record.
        self._held = threading.local()

    # ------------------------------------------------------------- lifecycle

    def attach(self, client: Any) -> RecoveryReport:
        """Recover *client* from the data directory and start logging."""
        with self._lock:
            if self._client is not None:
                raise OperationFailure("storage engine is already attached")
            self._client = client
            # Replay must not re-log: logging stays disabled until the
            # store matches the acknowledged on-disk state.
            report = recover(client, self.data_dir, fs=self._fs)
            self.recovery_report = report
            self._generation = report.generation
            self._wal = self._open_wal(report.generation)
            self._enabled = True
            return report

    def _open_wal(self, generation: int) -> WriteAheadLog:
        return WriteAheadLog(
            wal_path(self.data_dir, generation),
            fsync=self.fsync_policy,
            batch_fsync_every=self.batch_fsync_every,
            fs=self._fs,
            counters=self.counters,
        )

    @property
    def generation(self) -> int:
        """The current snapshot/WAL generation."""
        return self._generation

    @property
    def wal(self) -> WriteAheadLog | None:
        """The active WAL segment (``None`` before attach / after close)."""
        return self._wal

    def flush(self) -> None:
        """Force every appended record to stable storage (any fsync policy)."""
        with self._lock:
            if self._wal is not None:
                self._wal.flush()

    def close(self) -> None:
        """Flush, stop logging and detach; the data directory stays recoverable."""
        with self._lock:
            self._enabled = False
            self._client = None
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    # ---------------------------------------------------------------- logging

    def log(self, database_name: str, collection_name: str | None, record: dict[str, Any]) -> None:
        """Append one write record; returns once it meets the fsync policy."""
        if not self._enabled:
            return
        held = getattr(self._held, "records", None)
        if held is not None:
            held.append(record)
            return
        payload = encode_document(
            {"db": database_name, "coll": collection_name, **record}
        )
        with self._lock:
            wal = self._wal
            if not self._enabled or wal is None:
                return
            wal.append(payload)
            if (
                self.auto_checkpoint_bytes is not None
                and wal.size >= self.auto_checkpoint_bytes
            ):
                self._checkpoint_locked()

    @contextmanager
    def batch(self, database_name: str, collection_name: str) -> Iterator[None]:
        """Hold back this thread's records for one collection; append them as one.

        The records :meth:`log` receives inside the block are written on exit
        as a single ``{"op": "batch", "records": [...]}`` record — one append,
        one checksum, one fsync — so a crash recovers all of them or none, and
        a block left by an exception still logs exactly what was applied.
        The write lock is held throughout: no other writer's record can
        overtake the post-images held back here.
        """
        records: list[dict[str, Any]] = []
        with self._lock:
            self._held.records = records
            try:
                yield
            finally:
                self._held.records = None
                if records:
                    self.log(database_name, collection_name, {"op": "batch", "records": records})

    # ------------------------------------------------------------- checkpoint

    def checkpoint(self) -> int:
        """Snapshot the store and truncate the WAL; returns the new generation.

        Crash-safe at every step (the fault-injection suite enumerates
        them): the snapshot appears atomically, a new WAL generation starts
        before the old one is deleted, and recovery resolves any
        intermediate state to exactly the acknowledged data.
        """
        with self._lock:
            if self._client is None or self._wal is None:
                raise OperationFailure("storage engine is not attached")
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> int:
        old_generation = self._generation
        new_generation = old_generation + 1
        write_snapshot(
            self._client,
            snapshot_path(self.data_dir, new_generation),
            generation=new_generation,
            fs=self._fs,
        )
        old_wal = self._wal
        self._wal = self._open_wal(new_generation)
        self._fs.fsync_dir(self.data_dir)
        self._generation = new_generation
        if old_wal is not None:
            old_wal.close()
            self._fs.remove(old_wal.path)
        self._fs.remove(snapshot_path(self.data_dir, old_generation))
        self.checkpoints += 1
        return new_generation

    # ------------------------------------------------------------------ stats

    def status(self) -> dict[str, Any]:
        """Durability counters and recovery cost (``serverStatus`` surface)."""
        with self._lock:
            status: dict[str, Any] = {
                "active": self._enabled,
                "data_dir": str(self.data_dir),
                "fsync_policy": self.fsync_policy,
                "generation": self._generation,
                "checkpoints": self.checkpoints,
                **self.counters.snapshot(),
                "wal": wal_status(self._wal),
            }
            if self.recovery_report is not None:
                status["recovery"] = self.recovery_report.as_dict()
            return status
