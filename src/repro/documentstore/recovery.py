"""Crash recovery: rebuild a client from its data directory.

The data directory of one node holds at most one *generation* of durable
state once the engine is healthy::

    <data_dir>/
        snapshot-00000003.snap   # point-in-time image (atomic rename)
        wal-00000003.log         # records appended since that snapshot

A checkpoint writes ``snapshot-<g+1>`` (atomically), starts ``wal-<g+1>``,
and only then deletes generation ``g`` — so a crash at *any* step leaves a
directory from which this module restores exactly the acknowledged state:

* leftover ``*.tmp`` files (crash mid-snapshot-write or mid-rename) are
  swept and ignored;
* the highest-generation complete snapshot wins; WAL segments of *older*
  generations describe writes the snapshot already contains and are
  discarded, never replayed;
* the surviving WAL segments are replayed in generation order, and a torn
  or corrupt tail — the signature of a crash mid-append — is truncated so
  the log is clean for new appends;
* replay is *physical redo* (full documents by ``_id``), which makes it
  idempotent: a record whose effect is already present (possible when a
  crash raced a checkpoint) re-applies harmlessly.

Index definitions travel inside the snapshot manifest and as WAL DDL
records; data indexes are rebuilt with one sort each through the bulk-load
machinery rather than replayed insert-by-insert.
"""

from __future__ import annotations

import pathlib
import re
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .bson import decode_document
from .errors import DuplicateKeyError, IndexNotFoundError, RecoveryError
from .snapshot import load_snapshot, read_manifest
from .wal import (
    REAL_FS,
    TAIL_CLEAN,
    FileSystem,
    read_log,
    truncate_log,
)

if TYPE_CHECKING:  # pragma: no cover
    from .client import DocumentStoreClient

__all__ = ["RecoveryReport", "recover", "snapshot_path", "wal_path", "apply_record"]

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.snap$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")


def snapshot_path(data_dir: pathlib.Path, generation: int) -> pathlib.Path:
    """The snapshot file for *generation*."""
    return data_dir / f"snapshot-{generation:08d}.snap"


def wal_path(data_dir: pathlib.Path, generation: int) -> pathlib.Path:
    """The WAL segment for *generation*."""
    return data_dir / f"wal-{generation:08d}.log"


@dataclass
class RecoveryReport:
    """What recovery found and did — the observable cost of a restart."""

    data_dir: str
    generation: int = 0
    snapshot_loaded: str | None = None
    snapshot_documents: int = 0
    wal_segments_replayed: int = 0
    records_replayed: int = 0
    documents_replayed: int = 0
    tail_state: str = TAIL_CLEAN
    torn_bytes_truncated: int = 0
    stale_files_removed: int = 0
    replay_seconds: float = 0.0
    operations: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """The report as a plain dictionary (``serverStatus`` surface)."""
        return {**vars(self), "operations": dict(self.operations)}


def _scan(data_dir: pathlib.Path) -> tuple[dict[int, pathlib.Path], dict[int, pathlib.Path], list[pathlib.Path]]:
    snapshots: dict[int, pathlib.Path] = {}
    wals: dict[int, pathlib.Path] = {}
    temps: list[pathlib.Path] = []
    for entry in data_dir.iterdir():
        if not entry.is_file():
            continue
        if entry.name.endswith(".tmp"):
            temps.append(entry)
            continue
        match = _SNAPSHOT_RE.match(entry.name)
        if match:
            snapshots[int(match.group(1))] = entry
            continue
        match = _WAL_RE.match(entry.name)
        if match:
            wals[int(match.group(1))] = entry
    return snapshots, wals, temps


def apply_record(client: "DocumentStoreClient", record: dict[str, Any]) -> int:
    """Redo one WAL record against *client*; returns documents touched.

    Every branch is idempotent: replaying a record whose effect is already
    present (a checkpoint raced the original write) leaves the store in the
    same state instead of erroring or double-applying.
    """
    op = record.get("op")
    database_name = record.get("db")
    collection_name = record.get("coll")
    if op == "drop_database":
        client.drop_database(str(database_name))
        return 0
    if database_name is None or collection_name is None:
        raise RecoveryError(f"WAL record missing namespace: {sorted(record)!r}")
    database = client.get_database(str(database_name))
    if op == "drop_collection":
        database.drop_collection(str(collection_name))
        return 0
    if op == "batch":
        # One bulk_write: its sub-records, in order, against the same namespace.
        return sum(
            apply_record(client, {"db": database_name, "coll": collection_name, **sub})
            for sub in record.get("records") or []
        )
    collection = database[str(collection_name)]
    if op == "insert":
        documents = record.get("docs") or []
        try:
            collection.insert_many(documents)
        except DuplicateKeyError:
            # The snapshot already held part of this batch (checkpoint race):
            # insert only the missing documents.
            for document in documents:
                if collection.find_one({"_id": document["_id"]}, {"_id": 1}) is None:
                    collection.insert_one(document)
        return len(documents)
    if op == "apply":
        documents = record.get("docs") or []
        for document in documents:
            result = collection.replace_one({"_id": document["_id"]}, document)
            if result.matched_count == 0:
                collection.insert_one(document)
        return len(documents)
    if op == "delete":
        ids = record.get("ids") or []
        if ids:
            collection.delete_many({"_id": {"$in": list(ids)}})
        return len(ids)
    if op == "create_index":
        spec = record.get("spec")
        if isinstance(spec, Mapping):
            # Structured spec (current WAL format): round-trips btree and
            # vector indexes alike through IndexSpec.from_key_specification.
            collection.create_index(spec)
        else:
            # Legacy record written before structured index specs existed.
            collection.create_index(
                [tuple(pair) for pair in record.get("keys") or []],
                unique=bool(record.get("unique")),
                name=str(record.get("name") or ""),
            )
        return 0
    if op == "drop_index":
        try:
            collection.drop_index(str(record.get("name")))
        except IndexNotFoundError:
            pass
        return 0
    raise RecoveryError(f"unknown WAL record op {op!r}")


def recover(
    client: "DocumentStoreClient",
    data_dir: str | pathlib.Path,
    *,
    fs: FileSystem = REAL_FS,
) -> RecoveryReport:
    """Restore *client* from *data_dir* and return a :class:`RecoveryReport`.

    After this returns, ``wal_path(data_dir, report.generation)`` is clean
    (torn tail truncated) and ready for appends, and every stale file from a
    crashed checkpoint has been removed.

    Raises :class:`RecoveryError` if the newest snapshot is corrupt — that
    cannot result from a crash (snapshots appear atomically), only from bit
    rot or operator error, and silently dropping the dataset would be worse.
    """
    directory = pathlib.Path(data_dir)
    directory.mkdir(parents=True, exist_ok=True)
    report = RecoveryReport(data_dir=str(directory))
    started = time.perf_counter()

    snapshots, wals, temps = _scan(directory)
    for leftover in temps:
        fs.remove(leftover)
        report.stale_files_removed += 1

    base_generation = 0
    if snapshots:
        base_generation = max(snapshots)
        snapshot_file = snapshots[base_generation]
        try:
            read_manifest(snapshot_file)
        except Exception as exc:
            raise RecoveryError(
                f"newest snapshot {snapshot_file} is corrupt: {exc}"
            ) from exc
        manifest = load_snapshot(client, snapshot_file)
        report.snapshot_loaded = str(snapshot_file)
        report.snapshot_documents = sum(
            int(info.get("count") or 0)
            for collections in manifest["databases"].values()
            for info in collections.values()
        )

    # WAL segments older than the snapshot describe state the snapshot
    # already contains; they survive only when a crash interrupted the
    # checkpoint's cleanup step.  Discard, never replay.
    for generation in sorted(wals):
        if generation < base_generation:
            fs.remove(wals[generation])
            report.stale_files_removed += 1
    for generation in sorted(snapshots):
        if generation < base_generation:
            fs.remove(snapshots[generation])
            report.stale_files_removed += 1

    live_generations = sorted(g for g in wals if g >= base_generation)
    report.generation = max([base_generation, *live_generations])
    for generation in live_generations:
        segment = wals[generation]
        payloads, clean_length, tail_state = read_log(segment)
        for payload in payloads:
            record = decode_document(payload)
            report.documents_replayed += apply_record(client, record)
            report.records_replayed += 1
            report.operations[record.get("op", "?")] = (
                report.operations.get(record.get("op", "?"), 0) + 1
            )
        if tail_state != TAIL_CLEAN:
            report.tail_state = tail_state
            report.torn_bytes_truncated += truncate_log(segment, clean_length, fs=fs)
            if generation != live_generations[-1]:
                # A torn *non-final* segment means everything after it
                # post-dates the tear; stop rather than replay across a gap.
                break
        report.wal_segments_replayed += 1

    report.replay_seconds = time.perf_counter() - started
    return report
