"""The length-prefixed binary wire protocol spoken by the served front door.

Every message crossing the socket is one *frame*::

    +--------+---------+------------+------------+--------+-------+---------+
    | magic  | version | body len   | request id | opcode | flags | payload |
    | u16 BE | u8      | u32 BE     | u32 BE     | u8     | u8    | bytes   |
    +--------+---------+------------+------------+--------+-------+---------+
    '--------- 7-byte header ------' '------------- body -------------------'

``body len`` counts everything after the header (request id + opcode +
flags + payload), so a reader needs exactly two reads per frame.  The
payload is one serialized document produced by the existing BSON layer
(:func:`repro.documentstore.bson.encode_document`), which round-trips the
store's extended types (ObjectId, datetime/date, bytes) — the same encoding
the simulated shard↔router network uses, so served byte counts are directly
comparable to :class:`~repro.sharding.router.RouterMetrics` estimates.

Requests carry an opcode (:class:`Opcode` is the table of payloads) and a
request id chosen by the client, echoed on the matching :data:`Opcode.REPLY`
or :data:`Opcode.ERROR` frame.  ``FIND`` and ``AGGREGATE`` both answer
cursor-style — a first batch, then ``GET_MORE`` — so no result set has to fit
one frame.  Error frames carry a structured ``{code, message, details}``
document that :func:`raise_wire_error` turns back into the proper exception
class on the client (a :class:`~repro.sharding.executor.ShardTimeoutError` too).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Mapping, NoReturn

from ..documentstore import errors as _errors
from ..documentstore.bson import decode_document, encode_document
from ..documentstore.bulk import BulkWriteError, BulkWriteResult
from ..documentstore.errors import (
    DocumentStoreError,
    DocumentTooLargeError,
    DuplicateKeyError,
    OperationFailure,
)
from ..documentstore.findspec import FindSpec
from ..sharding.executor import ShardTimeoutError

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_FRAME_SIZE",
    "MAX_CURSORS_PER_CONNECTION",
    "FLAG_HAS_MORE",
    "Opcode",
    "Frame",
    "ProtocolError",
    "ConnectionFailure",
    "encode_frame",
    "recv_frame",
    "read_exact",
    "encode_findspec",
    "decode_findspec",
    "encode_error",
    "raise_wire_error",
]

#: Frame magic — rejects non-protocol peers immediately.
MAGIC = 0xD0C5
#: Protocol version carried in every frame header.
VERSION = 1
#: Hard upper bound on one frame body: one 16 MB document batch plus margin.
MAX_FRAME_SIZE = 64 * 1024 * 1024
#: Server cursors one connection may hold open (a ``RemoteClient`` connection holds one).
MAX_CURSORS_PER_CONNECTION = 16

#: Reply-frame flag: the server holds an open cursor with more batches.
FLAG_HAS_MORE = 0x01

_HEADER = struct.Struct(">HBI")  # magic, version, body length
_BODY_PREFIX = struct.Struct(">IBB")  # request id, opcode, flags


class ProtocolError(DocumentStoreError):
    """A frame violated the wire protocol (bad magic, truncation, size)."""


class ConnectionFailure(DocumentStoreError):
    """The socket to the server was lost and could not be re-established."""


class Opcode(IntEnum):
    """Operation codes carried in the frame body (request payload → reply payload)."""

    # Requests (client → server); all but COMMAND also name ``db`` and ``collection``.
    FIND = 1  # spec (``encode_findspec``) → batch, cursor_id, has_more
    GET_MORE = 2  # cursor_id, batch_size → batch, cursor_id, has_more
    KILL_CURSOR = 3  # cursor_id → ok
    INSERT_MANY = 4  # documents → inserted_ids
    WRITE = 5  # operation (one ``encode_operation`` value) → its result; 6-8 are retired
    AGGREGATE = 9  # pipeline, batch_size → batch, cursor_id, has_more (exactly as FIND)
    DISTINCT = 10  # key, filter → values
    COUNT = 11  # filter → n
    COMMAND = 12  # db, command → its reply; ``createIndexes`` takes ``IndexSpec.describe()``
    BULK_WRITE = 13  # operations, ordered → ``BulkWriteResult.as_document()``
    # Replies (server → client).
    REPLY = 64
    ERROR = 65


@dataclass(frozen=True)
class Frame:
    """One decoded frame, plus its actual encoded size for byte accounting."""

    request_id: int
    opcode: int
    flags: int
    document: dict[str, Any]
    wire_size: int

    @property
    def has_more(self) -> bool:
        """True when the server signalled an open cursor on this reply."""
        return bool(self.flags & FLAG_HAS_MORE)


def encode_frame(
    opcode: int,
    request_id: int,
    document: Mapping[str, Any],
    *,
    flags: int = 0,
) -> bytes:
    """Serialize one frame; raises :class:`ProtocolError` if oversized."""
    payload = encode_document(document)
    body_length = _BODY_PREFIX.size + len(payload)
    if body_length > MAX_FRAME_SIZE:
        raise ProtocolError(
            f"frame body of {body_length} bytes exceeds the {MAX_FRAME_SIZE}-byte limit"
        )
    return (
        _HEADER.pack(MAGIC, VERSION, body_length)
        + _BODY_PREFIX.pack(request_id & 0xFFFFFFFF, int(opcode), flags)
        + payload
    )


def read_exact(sock: Any, count: int) -> bytes | None:
    """Read exactly *count* bytes from a socket.

    Returns ``None`` on a clean EOF at offset zero (the peer closed between
    frames); raises :class:`ProtocolError` when the stream ends mid-frame.
    """
    chunks: list[bytes] = []
    received = 0
    while received < count:
        chunk = sock.recv(count - received)
        if not chunk:
            if received == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({received}/{count} bytes read)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: Any) -> Frame | None:
    """Read one complete frame from *sock* (``None`` on clean EOF)."""
    header = read_exact(sock, _HEADER.size)
    if header is None:
        return None
    magic, version, body_length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic 0x{magic:04X} (expected 0x{MAGIC:04X})")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if body_length < _BODY_PREFIX.size or body_length > MAX_FRAME_SIZE:
        raise ProtocolError(f"invalid frame body length {body_length}")
    body = read_exact(sock, body_length)
    if body is None:
        raise ProtocolError("connection closed before the frame body arrived")
    request_id, opcode, flags = _BODY_PREFIX.unpack_from(body)
    document = decode_document(body[_BODY_PREFIX.size:])
    return Frame(
        request_id=request_id,
        opcode=opcode,
        flags=flags,
        document=document,
        wire_size=_HEADER.size + body_length,
    )


# --------------------------------------------------------------------------
# FindSpec encoding: the complete lazy read spec crosses the wire in one
# piece, so shard-side sort/skip/limit/projection pushdown survives serving.
# --------------------------------------------------------------------------


def encode_findspec(spec: FindSpec) -> dict[str, Any]:
    """Return the wire form of a :class:`FindSpec`."""
    return {
        "filter": dict(spec.filter) if spec.filter else None,
        "projection": dict(spec.projection) if spec.projection else None,
        "sort": [[field, direction] for field, direction in spec.sort]
        if spec.sort
        else None,
        "skip": spec.skip,
        "limit": spec.limit,
        "batch_size": spec.batch_size,
        "hint": spec.hint,
    }


def decode_findspec(document: Mapping[str, Any]) -> FindSpec:
    """Rebuild a :class:`FindSpec` from its wire form."""
    sort = document.get("sort")
    return FindSpec(
        filter=document.get("filter") or None,
        projection=document.get("projection") or None,
        sort=tuple((str(field), int(direction)) for field, direction in sort)
        if sort
        else None,
        skip=int(document.get("skip") or 0),
        limit=document.get("limit"),
        batch_size=document.get("batch_size"),
        hint=document.get("hint"),
    )


# --------------------------------------------------------------------------
# Structured error frames.
# --------------------------------------------------------------------------


def encode_error(exc: BaseException) -> dict[str, Any]:
    """Return the error-frame payload describing *exc*."""
    details: dict[str, Any] = {}
    if isinstance(exc, ShardTimeoutError):
        details = {
            "purpose": exc.purpose,
            "shard_ids": list(exc.shard_ids),
            "completed": list(exc.completed),
            "deadline_seconds": exc.deadline_seconds,
        }
    elif isinstance(exc, DuplicateKeyError):
        # The key is the tuple of the colliding field values: it travels as
        # an array of wire values and is rebuilt as a tuple.
        key = list(exc.key) if isinstance(exc.key, tuple) else exc.key
        details = {"index_name": exc.index_name, "key": key}
    elif isinstance(exc, DocumentTooLargeError):
        details = {"size": exc.size, "limit": exc.limit}
    elif isinstance(exc, BulkWriteError):
        details = {"errors": exc.errors, "result": exc.result.as_document()}
    return {
        "code": type(exc).__name__,
        "message": str(exc),
        "details": details,
    }


def raise_wire_error(document: Mapping[str, Any]) -> NoReturn:
    """Raise the exception described by an error-frame payload."""
    code = str(document.get("code") or "OperationFailure")
    message = str(document.get("message") or "server error")
    details = document.get("details") or {}
    if code == "ShardTimeoutError":
        raise ShardTimeoutError(
            str(details.get("purpose", "operation")),
            [str(s) for s in details.get("shard_ids", [])],
            [str(s) for s in details.get("completed", [])],
            float(details.get("deadline_seconds", 0.0)),
        )
    if code == "DuplicateKeyError":
        key = details.get("key")
        raise DuplicateKeyError(
            str(details.get("index_name", "")), tuple(key) if isinstance(key, list) else key
        )
    if code == "DocumentTooLargeError":
        raise DocumentTooLargeError(
            int(details.get("size", 0)), int(details.get("limit", 0))
        )
    if code == "BulkWriteError":
        raise BulkWriteError(
            [dict(entry) for entry in details.get("errors") or []],
            BulkWriteResult.from_document(details.get("result") or {}),
        )
    exc_class = getattr(_errors, code, None)
    if isinstance(exc_class, type) and issubclass(exc_class, DocumentStoreError):
        raise exc_class(message)
    if code in ("TooManyConnections", "ShuttingDown"):
        raise ConnectionFailure(message)
    raise OperationFailure(f"{code}: {message}")
