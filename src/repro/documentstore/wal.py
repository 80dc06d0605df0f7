"""The write-ahead log: the durability primitive of the storage engine.

Every acknowledged write batch becomes exactly one *record* appended to an
append-only log file.  A record is self-describing and self-verifying::

    +-------+----------+---------+------------------+
    | magic | length   | crc32   | payload          |
    | 2 B   | 4 B (LE) | 4 B(LE) | ``length`` bytes |
    +-------+----------+---------+------------------+

The payload is an extended-JSON document (the store's wire encoding), so a
WAL record is byte-comparable to what the same batch costs on the simulated
network.  The CRC covers the payload; the header is protected by the magic
and by the fact that a truncated header can never parse as a record.

Torn-tail semantics (the property the fault-injection suite enumerates):
decoding any *prefix* of a valid log yields exactly the records whose bytes
are fully present, followed by a clean tail signal — ``"clean"`` when the
prefix ends on a record boundary, ``"torn"`` when it ends mid-record, and
``"corrupt"`` when the bytes present fail the magic or CRC check (a bit
flip, not a truncation).  Decoding never raises and never yields a record
that was not written.

Three fsync policies trade durability for throughput:

* ``"always"`` — fsync after every append; an acknowledged batch is durable.
* ``"batch"``  — group commit: fsync every ``batch_fsync_every`` records and
  on :meth:`~WriteAheadLog.flush`; a crash can lose the last unsynced group.
* ``"off"``    — never fsync (except explicit :meth:`~WriteAheadLog.flush` /
  :meth:`~WriteAheadLog.close`); durability is whatever the OS page cache
  survives.

All file operations go through a tiny :class:`FileSystem` indirection so the
fault-injection harness can interpose crashes at every interesting point
without monkey-patching the interpreter.
"""

from __future__ import annotations

import os
import pathlib
import struct
import threading
import zlib
from typing import Any, BinaryIO

__all__ = [
    "FSYNC_POLICIES",
    "TAIL_CLEAN",
    "TAIL_TORN",
    "TAIL_CORRUPT",
    "FileSystem",
    "REAL_FS",
    "WalCounters",
    "WriteAheadLog",
    "encode_record",
    "decode_records",
    "read_log",
    "truncate_log",
]

#: Per-record magic; also guards against replaying a non-WAL file.
RECORD_MAGIC = b"WL"
_HEADER = struct.Struct("<2sII")  # magic, payload length, crc32(payload)

#: Valid ``fsync`` policy names.
FSYNC_POLICIES = ("always", "batch", "off")

#: Tail states reported by :func:`decode_records`.
TAIL_CLEAN = "clean"
TAIL_TORN = "torn"
TAIL_CORRUPT = "corrupt"

#: Default group-commit size for the ``"batch"`` policy.
DEFAULT_BATCH_FSYNC_EVERY = 32


class FileSystem:
    """The file operations the durability layer performs, made injectable.

    The production implementation delegates straight to ``os``/``open``;
    the fault harness substitutes an instance that counts operations,
    models what is durable, and crashes on schedule.
    """

    def open_append(self, path: str | os.PathLike) -> BinaryIO:
        """Open *path* for appending, creating it if missing."""
        return open(path, "ab")

    def open_write(self, path: str | os.PathLike) -> BinaryIO:
        """Open *path* for writing from scratch (snapshot temp files)."""
        return open(path, "wb")

    def write(self, handle: BinaryIO, data: bytes) -> None:
        """Write *data* to an open handle."""
        handle.write(data)

    def fsync(self, handle: BinaryIO) -> None:
        """Flush user-space buffers and force the bytes to stable storage."""
        handle.flush()
        os.fsync(handle.fileno())

    def close(self, handle: BinaryIO) -> None:
        """Flush and close an open handle (no fsync)."""
        handle.close()

    def replace(self, source: str | os.PathLike, target: str | os.PathLike) -> None:
        """Atomically rename *source* over *target*."""
        os.replace(source, target)

    def fsync_dir(self, path: str | os.PathLike) -> None:
        """fsync a directory so renames/creations inside it are durable."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def remove(self, path: str | os.PathLike) -> None:
        """Delete a file, ignoring a missing one."""
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def truncate(self, path: str | os.PathLike, length: int) -> None:
        """Truncate *path* to *length* bytes and fsync the result."""
        with open(path, "r+b") as handle:
            handle.truncate(length)
            handle.flush()
            os.fsync(handle.fileno())


#: The default, real filesystem.
REAL_FS = FileSystem()


def encode_record(payload: bytes) -> bytes:
    """Frame *payload* as one WAL record (header + checksummed body)."""
    return _HEADER.pack(RECORD_MAGIC, len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def decode_records(data: bytes) -> tuple[list[bytes], int, str]:
    """Parse *data* into WAL record payloads.

    Returns ``(payloads, clean_length, tail_state)`` where *clean_length* is
    the number of leading bytes forming complete, verified records and
    *tail_state* is one of :data:`TAIL_CLEAN` (the data ends exactly on a
    record boundary), :data:`TAIL_TORN` (the data ends mid-record — the
    normal shape of a crash during an append), or :data:`TAIL_CORRUPT` (the
    bytes present fail the magic or checksum — bit rot or a misdirected
    write).  Never raises; never returns a payload that fails its checksum.
    """
    payloads: list[bytes] = []
    offset = 0
    total = len(data)
    while True:
        if offset == total:
            return payloads, offset, TAIL_CLEAN
        if total - offset < _HEADER.size:
            return payloads, offset, TAIL_TORN
        magic, length, crc = _HEADER.unpack_from(data, offset)
        if magic != RECORD_MAGIC:
            return payloads, offset, TAIL_CORRUPT
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return payloads, offset, TAIL_TORN
        payload = data[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return payloads, offset, TAIL_CORRUPT
        payloads.append(payload)
        offset = end


def read_log(path: str | os.PathLike) -> tuple[list[bytes], int, str]:
    """Read and parse an entire WAL file (missing file = empty, clean log)."""
    try:
        data = pathlib.Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0, TAIL_CLEAN
    return decode_records(data)


def truncate_log(path: str | os.PathLike, clean_length: int, *, fs: FileSystem = REAL_FS) -> int:
    """Truncate a torn/corrupt tail off a WAL file; returns bytes removed."""
    size = pathlib.Path(path).stat().st_size
    removed = size - clean_length
    if removed > 0:
        fs.truncate(path, clean_length)
    return removed


class WalCounters:
    """Durability counters shared between a WAL and its owning engine."""

    def __init__(self) -> None:
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsync_calls = 0
        self.bytes_fsynced = 0

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dictionary (``serverStatus`` surface)."""
        return {
            "records_appended": self.records_appended,
            "bytes_appended": self.bytes_appended,
            "fsync_calls": self.fsync_calls,
            "bytes_fsynced": self.bytes_fsynced,
        }


class WriteAheadLog:
    """One append-only log file with a configurable fsync policy.

    Appends are serialized by an internal lock: the server handles sessions
    on independent threads and a record must hit the file in one contiguous
    write.  The append returns only after the record is as durable as the
    policy promises — with ``"always"`` that means fsynced.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: str = "batch",
        batch_fsync_every: int = DEFAULT_BATCH_FSYNC_EVERY,
        fs: FileSystem = REAL_FS,
        counters: WalCounters | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if batch_fsync_every <= 0:
            raise ValueError("batch_fsync_every must be positive")
        self.path = pathlib.Path(path)
        self.fsync_policy = fsync
        self.batch_fsync_every = batch_fsync_every
        self.counters = counters if counters is not None else WalCounters()
        self._fs = fs
        self._lock = threading.Lock()
        self._handle: BinaryIO | None = fs.open_append(self.path)
        self._size = self.path.stat().st_size if self.path.exists() else 0
        self._unsynced_records = 0
        self._unsynced_bytes = 0

    # ------------------------------------------------------------------ append

    def append(self, payload: bytes) -> int:
        """Append one record; returns the record's end offset in the file."""
        record = encode_record(payload)
        with self._lock:
            handle = self._require_handle()
            self._fs.write(handle, record)
            self._size += len(record)
            self.counters.records_appended += 1
            self.counters.bytes_appended += len(record)
            self._unsynced_records += 1
            self._unsynced_bytes += len(record)
            if self.fsync_policy == "always" or (
                self.fsync_policy == "batch"
                and self._unsynced_records >= self.batch_fsync_every
            ):
                self._fsync_locked(handle)
            return self._size

    def flush(self) -> None:
        """Force everything appended so far to stable storage (any policy)."""
        with self._lock:
            handle = self._handle
            if handle is None:
                return
            self._fsync_locked(handle)

    def _fsync_locked(self, handle: BinaryIO) -> None:
        self._fs.fsync(handle)
        self.counters.fsync_calls += 1
        self.counters.bytes_fsynced += self._unsynced_bytes
        self._unsynced_records = 0
        self._unsynced_bytes = 0

    def _require_handle(self) -> BinaryIO:
        if self._handle is None:
            raise ValueError(f"write-ahead log {self.path} is closed")
        return self._handle

    # --------------------------------------------------------------- lifecycle

    @property
    def size(self) -> int:
        """Current log size in bytes (header + payload of every record)."""
        return self._size

    def close(self) -> None:
        """Flush (fsync) and close the log file."""
        with self._lock:
            handle = self._handle
            if handle is None:
                return
            try:
                self._fsync_locked(handle)
            finally:
                self._handle = None
                self._fs.close(handle)


def wal_status(log: "WriteAheadLog | None") -> dict[str, Any]:
    """A small status dictionary for an (optional) live WAL."""
    if log is None:
        return {"active": False}
    return {
        "active": True,
        "path": str(log.path),
        "size_bytes": log.size,
        "fsync_policy": log.fsync_policy,
        **log.counters.snapshot(),
    }
