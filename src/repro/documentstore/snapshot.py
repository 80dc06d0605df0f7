"""Snapshots: point-in-time images of a whole client, written atomically.

A snapshot is one file of extended-JSON lines::

    {"type":"manifest","format":1,"generation":G,"databases":{...}}
    {"type":"collection","db":"d","coll":"c","count":N}
    <N raw document lines>
    ... more collection sections ...
    {"type":"end","documents":TOTAL}

Parsing is *count-driven*: a collection header announces exactly how many
document lines follow, so document content can never be confused with
framing.  The trailing ``end`` line is the completeness proof — a snapshot
without it is rejected as corrupt.

Snapshots are crash-safe by construction: the writer streams to
``<name>.tmp``, fsyncs the file, atomically renames it over the target, and
fsyncs the directory.  A crash at any point leaves either the previous
snapshot or the new one — never a partial file at the target path.  The same
:func:`atomic_writer` helper writes a sharded cluster's metadata file.

A restore reads the file once.  It stores each decoded document as it is,
inside a ``bulk_load()`` block with every secondary index registered as
deferred, so the entire restore costs one insert pass plus one sort per
index.  A document is validated once, when it is first written; a restore
checks only that each line is a ``dict`` carrying an ``_id``.
"""

from __future__ import annotations

import pathlib
from contextlib import contextmanager
from itertools import islice
from typing import TYPE_CHECKING, Any, BinaryIO, Iterator

from .bson import decode_document, encode_document
from .errors import OperationFailure, RecoveryError, SnapshotCorruptError
from .wal import REAL_FS, FileSystem

if TYPE_CHECKING:  # pragma: no cover
    from .client import DocumentStoreClient

__all__ = [
    "SNAPSHOT_FORMAT",
    "atomic_writer",
    "restore_index",
    "write_snapshot",
    "load_snapshot",
]

#: Version tag written into every snapshot manifest.
SNAPSHOT_FORMAT = 1

#: Documents a snapshot restore stores per ``Collection._insert_batch`` call.
RESTORE_BATCH_SIZE = 2000


class _AtomicFile:
    """Write facade routing bytes through the injectable filesystem."""

    __slots__ = ("_fs", "_handle")

    def __init__(self, fs: FileSystem, handle: BinaryIO) -> None:
        self._fs = fs
        self._handle = handle

    def write(self, data: bytes) -> None:
        self._fs.write(self._handle, data)


@contextmanager
def atomic_writer(
    path: str | pathlib.Path, *, fs: FileSystem = REAL_FS
) -> Iterator[_AtomicFile]:
    """Write a file crash-safely: temp file → fsync → atomic rename.

    The target path never holds a partial file: a crash before the rename
    leaves (at most) a ``*.tmp`` leftover, which readers ignore and the
    engine sweeps on recovery.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(target.name + ".tmp")
    handle = fs.open_write(temp)
    try:
        yield _AtomicFile(fs, handle)
    except BaseException:
        try:
            fs.close(handle)
        finally:
            fs.remove(temp)
        raise
    fs.fsync(handle)
    fs.close(handle)
    fs.replace(temp, target)
    fs.fsync_dir(target.parent)


def _collection_manifest(collection: Any) -> dict[str, Any]:
    # Structured specs (IndexSpec.describe()), the form create_index takes back.
    indexes = {
        spec["name"]: spec
        for spec in collection.list_indexes()
        if spec["name"] != "_id_"
    }
    return {"count": len(collection), "indexes": indexes}


def restore_index(collection: Any, spec: Any, *, defer: bool = False) -> None:
    """Recreate a logged index; a spec the store refuses is a :class:`RecoveryError`.

    Old data may name an index kind the store no longer has.  Recovery stops
    there, naming the namespace and the spec, instead of letting a bare
    ``OperationFailure`` escape.
    """
    try:
        collection.create_index(spec, defer=defer)
    except OperationFailure as exc:
        raise RecoveryError(
            f"cannot restore index {spec!r} on {collection.full_name}: {exc}"
        ) from exc


def write_snapshot(
    client: "DocumentStoreClient",
    path: str | pathlib.Path,
    *,
    generation: int = 0,
    fs: FileSystem = REAL_FS,
) -> dict[str, Any]:
    """Write a point-in-time snapshot of every database of *client*.

    Returns the manifest that was written.  The caller is responsible for
    quiescing writers (the storage engine snapshots under its commit lock).
    """
    databases: dict[str, dict[str, Any]] = {}
    sections: list[tuple[str, str, list[bytes]]] = []
    total = 0
    for database_name in client.list_database_names():
        database = client.get_database(database_name)
        databases[database_name] = {}
        for collection_name in database.list_collection_names():
            collection = database[collection_name]
            databases[database_name][collection_name] = _collection_manifest(collection)
            # Materialize the encoded documents before any byte is written:
            # the snapshot must be one consistent image even if an encoding
            # error aborts it halfway through a collection.
            encoded = [
                encode_document(document) for document in list(collection.raw_documents())
            ]
            databases[database_name][collection_name]["count"] = len(encoded)
            sections.append((database_name, collection_name, encoded))
            total += len(encoded)
    manifest = {
        "type": "manifest",
        "format": SNAPSHOT_FORMAT,
        "generation": generation,
        "databases": databases,
    }
    with atomic_writer(path, fs=fs) as handle:
        handle.write(encode_document(manifest))
        handle.write(b"\n")
        for database_name, collection_name, encoded in sections:
            header = {
                "type": "collection",
                "db": database_name,
                "coll": collection_name,
                "count": len(encoded),
            }
            handle.write(encode_document(header))
            handle.write(b"\n")
            for line in encoded:
                handle.write(line)
                handle.write(b"\n")
        handle.write(encode_document({"type": "end", "documents": total}))
        handle.write(b"\n")
    return manifest


def _parse_lines(path: pathlib.Path) -> Iterator[bytes]:
    with path.open("rb") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield line


def _store_decoded(collection: Any, documents: list[Any], source: str) -> None:
    """Store documents recovery just decoded, as they are: no copy, no second validation.

    Each was validated when it was first written, its bytes are guarded by the
    WAL record's CRC32 or the snapshot's framing, and decoding made a fresh
    object nothing else holds.  Only its structure is checked: a value that is
    not a ``dict`` carrying an ``_id`` is a :class:`RecoveryError` naming
    *source*, raised before any document of the batch is stored.
    """
    for document in documents:
        if type(document) is not dict or "_id" not in document:
            raise RecoveryError(
                f"{source} holds {document!r:.80} where a document with an _id belongs"
            )
    collection._insert_batch(documents)


def load_snapshot(
    client: "DocumentStoreClient", path: str | pathlib.Path
) -> dict[str, Any]:
    """Restore a snapshot into *client* (which should be empty) in one pass over the file.

    Every collection is rebuilt through ``bulk_load()`` with its secondary
    indexes deferred, so the restore pays one insert pass plus a single sort
    per index — the fast shape measured by the PR 4 load benchmarks.
    Returns the snapshot manifest.

    Raises :class:`SnapshotCorruptError` when the file is not a snapshot, uses
    an unknown format, or lacks its ``end`` footer or a document its counts
    announce (which cannot happen through the atomic writer, but can through
    bit rot or a copy of a ``*.tmp`` leftover).  The check ends the same pass
    that stores the documents, so *client* then holds a partial image and is
    only fit to be discarded.
    """
    source = pathlib.Path(path)
    lines = _parse_lines(source)
    manifest = decode_document(next(lines, b"null"))
    if not isinstance(manifest, dict) or manifest.get("type") != "manifest":
        raise SnapshotCorruptError(f"snapshot {source} does not start with a manifest")
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotCorruptError(
            f"snapshot {source} has unsupported format {manifest.get('format')!r}"
        )
    stored = 0
    for raw in lines:
        record = decode_document(raw)
        section = record.get("type") if isinstance(record, dict) else None
        if section == "end":
            if int(record.get("documents") or 0) != stored:
                raise SnapshotCorruptError(
                    f"snapshot {source} footer documents={record.get('documents')} "
                    f"but {stored} were present"
                )
            return manifest
        if section != "collection":
            raise SnapshotCorruptError(f"snapshot {source} has an unexpected section {section!r}")
        database_name = record["db"]
        collection_name = record["coll"]
        count = int(record.get("count") or 0)
        collection = client.get_database(database_name)[collection_name]
        index_specs = (
            manifest["databases"].get(database_name, {}).get(collection_name, {}).get("indexes", {})
        )
        with collection.bulk_load():
            for info in index_specs.values():
                restore_index(collection, info, defer=True)
            # A short section leaves the footer unread: "missing its end footer".
            for start in range(0, count, RESTORE_BATCH_SIZE):
                batch = islice(lines, min(count - start, RESTORE_BATCH_SIZE))
                _store_decoded(collection, list(map(decode_document, batch)), f"snapshot {source}")
        stored += count
    raise SnapshotCorruptError(f"snapshot {source} is missing its end footer")
