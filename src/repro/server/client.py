"""A thin driver re-speaking the Collection API over the wire protocol.

:class:`RemoteClient` connects to a :class:`~repro.server.server.
DocumentStoreServer` and exposes the same database/collection surface as the
in-process backends: ``client[db][collection].find(...)`` returns the same
lazy :class:`~repro.documentstore.cursor.Cursor` type, chained
``sort``/``skip``/``limit`` calls refine a :class:`FindSpec`, and the
complete spec crosses the wire in one ``FIND`` frame when iteration starts —
so shard-side pushdown behaves exactly as it does for an imported library.
``aggregate`` streams back through the same cursor loop.

Connections are pooled (``pool_size`` sockets, created lazily, checked out
per request).  A cursor pins its connection until it is exhausted, because
``GET_MORE`` addresses per-connection session state; abandoning a cursor
mid-stream sends a best-effort ``KILL_CURSOR`` before the socket returns to
the pool.  Idempotent reads (find, count, distinct, aggregate, commands) are
retried once on a fresh connection when the socket dies mid-request;
writes are never retried automatically.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..documentstore.aggregation import compile_pipeline, validate_user_pipeline
from ..documentstore.bson import EXACT_SCALARS, encode_document, require_mapping, validate_document
from ..documentstore.bulk import (
    BulkWriteError,
    BulkWriteResult,
    DeleteMany,
    DeleteOne,
    UpdateMany,
    UpdateOne,
    checked_operations,
    encode_operation,
)
from ..documentstore.cursor import CollectionSurface, DeleteResult, InsertManyResult, UpdateResult
from ..documentstore.errors import DocumentStoreError, InvalidDocumentError
from ..documentstore.findspec import FindSpec
from ..documentstore.indexes import IndexSpec
from ..documentstore.matching import compile_matcher
from ..documentstore.update import OperatorUpdate, is_update_document
from ..sharding.executor import ShardTimeoutError
from .protocol import (
    ConnectionFailure,
    Frame,
    Opcode,
    ProtocolError,
    encode_findspec,
    encode_frame,
    raise_wire_error,
    recv_frame,
)

__all__ = ["RemoteClient", "RemoteDatabase", "RemoteCollection"]

#: Exceptions meaning "the transport died" (retryable for idempotent reads),
#: as opposed to a structured error the server delivered over a live socket.
_TRANSPORT_ERRORS = (ConnectionFailure, ProtocolError, OSError, TimeoutError)


_ENCODED_LEAVES = tuple(EXACT_SCALARS)  # the codec writes their subclasses too


def _codec_keeps(value: Any) -> bool:
    """Whether every key in *value*, at any depth, is a ``str`` and every leaf codec-writable."""
    if type(value) is dict:
        if not all(type(key) is str for key in value):
            return False
        value = value.values()
    elif type(value) in EXACT_SCALARS:
        return True
    elif isinstance(value, Mapping):
        return all(isinstance(key, str) and _codec_keeps(item) for key, item in value.items())
    elif not isinstance(value, (list, tuple)):
        return isinstance(value, _ENCODED_LEAVES)
    return all(type(item) in EXACT_SCALARS or _codec_keeps(item) for item in value)


def _refuse_what_the_codec_changes(query: Any, update: Any = None, document: Any = None) -> None:
    """Refuse a request the wire codec would change or cannot write, as a collection refuses it.

    The codec writes a key that is not a ``str`` as a string and cannot write
    a value such as a set, so the server could not refuse either.  Such a
    request gets a collection's own checks here, in its order: the document's
    to insert, the update's, then the filter's.  One that passes them and
    still cannot be encoded (a set in a filter) is refused as the codec refuses it.
    """
    if _codec_keeps(query) and _codec_keeps(update) and _codec_keeps(document):
        return
    if document is not None:
        validate_document(document)
    if update is not None and is_update_document(update):
        OperatorUpdate(update)
    compile_matcher(query)
    try:
        encode_document({"request": [query, update, document]})
    except (TypeError, ValueError) as exc:
        raise InvalidDocumentError(f"cannot encode the request: {exc}") from None


class _PooledConnection:
    """One socket to the server plus its request-id counter."""

    def __init__(
        self,
        address: tuple[str, int],
        connect_timeout: float,
        socket_timeout: float | None,
    ) -> None:
        try:
            self.sock = socket.create_connection(address, timeout=connect_timeout)
        except OSError as exc:
            raise ConnectionFailure(f"cannot connect to {address[0]}:{address[1]}: {exc}") from exc
        self.sock.settimeout(socket_timeout)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform without TCP_NODELAY
            pass
        self._request_ids = itertools.count(1)
        self.broken = False

    def request(self, opcode: int, payload: Mapping[str, Any]) -> Frame:
        """Send one request frame and return the matching reply frame.

        Transport failures mark the connection broken and raise one of
        ``_TRANSPORT_ERRORS``; server-side errors raise the reconstructed
        exception while leaving the connection usable.
        """
        request_id = next(self._request_ids) & 0xFFFFFFFF
        try:
            data = encode_frame(opcode, request_id, payload)
        except (TypeError, ValueError) as exc:  # nothing was sent: the socket is intact
            raise InvalidDocumentError(f"cannot encode the request: {exc}") from None
        try:
            self.sock.sendall(data)
            frame = recv_frame(self.sock)
        except _TRANSPORT_ERRORS:
            self.broken = True
            raise
        if frame is None:
            self.broken = True
            raise ConnectionFailure("server closed the connection")
        if frame.opcode == Opcode.ERROR:
            if frame.document.get("code") in ("TooManyConnections", "ShuttingDown"):
                self.broken = True
            raise_wire_error(frame.document)
        if frame.request_id != request_id:
            self.broken = True
            raise ProtocolError(
                f"reply id {frame.request_id} does not match request id {request_id}"
            )
        return frame

    def close(self) -> None:
        self.broken = True
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


class RemoteClient:
    """Socket client for a served document store (standalone or sharded)."""

    def __init__(
        self,
        host: str | tuple[str, int] = "127.0.0.1",
        port: int | None = None,
        *,
        pool_size: int = 4,
        connect_timeout_seconds: float = 5.0,
        socket_timeout_seconds: float | None = 30.0,
    ) -> None:
        if isinstance(host, tuple):
            host, port = host
        if port is None:
            raise ValueError("a server port is required")
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.address = (str(host), int(port))
        self.pool_size = pool_size
        self.connect_timeout_seconds = connect_timeout_seconds
        self.socket_timeout_seconds = socket_timeout_seconds
        self._idle: list[_PooledConnection] = []
        self._total = 0
        self._cond = threading.Condition()
        self._closed = False

    # ----------------------------------------------------------------- pooling

    def _checkout(self) -> _PooledConnection:
        with self._cond:
            while True:
                if self._closed:
                    raise ConnectionFailure("client is closed")
                while self._idle:
                    connection = self._idle.pop()
                    if connection.broken:
                        self._total -= 1
                        continue
                    return connection
                if self._total < self.pool_size:
                    self._total += 1
                    break
                self._cond.wait()
        try:
            return _PooledConnection(
                self.address, self.connect_timeout_seconds, self.socket_timeout_seconds
            )
        except BaseException:
            with self._cond:
                self._total -= 1
                self._cond.notify()
            raise

    def _checkin(self, connection: _PooledConnection) -> None:
        with self._cond:
            if connection.broken or self._closed:
                connection.close()
                self._total -= 1
            else:
                self._idle.append(connection)
            self._cond.notify()

    def _discard(self, connection: _PooledConnection) -> None:
        connection.close()
        with self._cond:
            self._total -= 1
            self._cond.notify()

    def close(self) -> None:
        """Close every pooled connection; in-use sockets close on check-in."""
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._total -= len(idle)
            self._cond.notify_all()
        for connection in idle:
            connection.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ---------------------------------------------------------------- requests

    def _request_pinned(
        self, opcode: int, payload: Mapping[str, Any], *, idempotent: bool
    ) -> tuple[_PooledConnection, dict[str, Any]]:
        """Issue a request and return ``(connection, reply)`` without check-in.

        The caller owns the connection (cursors pin it for ``GET_MORE``) and
        must return it via ``_checkin``/``_discard``.  Transport failures are
        retried once on a fresh connection when *idempotent*; after any other
        error the connection goes back (checked in if intact, else discarded).
        """
        attempts = 2 if idempotent else 1
        last_error: BaseException | None = None
        for _attempt in range(attempts):
            connection = self._checkout()
            try:
                frame = connection.request(opcode, payload)
            except _TRANSPORT_ERRORS as exc:
                self._discard(connection)
                last_error = exc
                continue
            except (DocumentStoreError, ShardTimeoutError):
                self._checkin(connection)
                raise
            except BaseException:
                self._discard(connection)
                raise
            return connection, frame.document
        raise ConnectionFailure(
            f"request failed after {attempts} attempt(s): {last_error}"
        ) from last_error

    def _request(
        self, opcode: int, payload: Mapping[str, Any], *, idempotent: bool = False
    ) -> dict[str, Any]:
        connection, document = self._request_pinned(opcode, payload, idempotent=idempotent)
        self._checkin(connection)
        return document

    # ---------------------------------------------------------------- surface

    def __getitem__(self, name: str) -> "RemoteDatabase":
        return RemoteDatabase(self, name)

    def __getattr__(self, name: str) -> "RemoteDatabase":
        if name.startswith("_"):
            raise AttributeError(name)
        return self[name]

    def get_database(self, name: str) -> "RemoteDatabase":
        """Return a database handle speaking the wire protocol."""
        return self[name]

    def command(self, database_name: str, command: Mapping[str, Any]) -> dict[str, Any]:
        """Run a database command on the server."""
        return self._request(
            Opcode.COMMAND,
            {"db": database_name, "command": dict(command)},
            idempotent=True,
        )

    def ping(self) -> bool:
        """Round-trip a ``ping`` command."""
        return self.command("admin", {"ping": 1}).get("ok") == 1.0

    def server_status(self) -> dict[str, Any]:
        """The server's observability surface (opcounters, latency, wire bytes)."""
        return self.command("admin", {"serverStatus": 1})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        return f"RemoteClient({host}:{port}, pool_size={self.pool_size})"


class RemoteDatabase:
    """Database handle over the wire."""

    def __init__(self, client: RemoteClient, name: str) -> None:
        self.client = client
        self.name = name

    def __getitem__(self, collection_name: str) -> "RemoteCollection":
        return RemoteCollection(self.client, self.name, collection_name)

    def __getattr__(self, collection_name: str) -> "RemoteCollection":
        if collection_name.startswith("_"):
            raise AttributeError(collection_name)
        return self[collection_name]

    def command(self, command: Mapping[str, Any]) -> dict[str, Any]:
        """Run a command against this database."""
        return self.client.command(self.name, command)

    def list_collection_names(self) -> list[str]:
        """Collection names present on the server for this database."""
        return list(self.command({"listCollections": 1}).get("collections", []))

    def drop_collection(self, collection_name: str) -> None:
        """Drop a collection on the server."""
        self.command({"drop": collection_name})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteDatabase({self.name!r})"


class RemoteCollection(CollectionSurface):
    """Collection handle with the same surface as the in-process backends."""

    def __init__(self, client: RemoteClient, database_name: str, name: str) -> None:
        self.client = client
        self._database_name = database_name
        self.name = name

    def _namespace(self) -> dict[str, Any]:
        return {"db": self._database_name, "collection": self.name}

    # ------------------------------------------------------------------ reads

    def _stream(
        self, opcode: int, request: Mapping[str, Any], batch_size: int | None
    ) -> Iterator[dict[str, Any]]:
        """Stream a cursor: one ``FIND``/``AGGREGATE`` frame, then ``GET_MORE`` per batch.

        The connection is pinned for the cursor's lifetime (server cursor
        state is per-connection); a cursor abandoned before exhaustion sends
        a best-effort ``KILL_CURSOR`` so the server frees its state.
        """
        connection, reply = self.client._request_pinned(
            opcode, {**self._namespace(), **request}, idempotent=True
        )
        cursor_id = 0
        try:
            while True:
                cursor_id = int(reply.get("cursor_id") or 0)
                for document in reply.get("batch", []):
                    yield document
                if not reply.get("has_more"):
                    cursor_id = 0
                    return
                try:
                    frame = connection.request(
                        Opcode.GET_MORE,
                        {**self._namespace(), "cursor_id": cursor_id, "batch_size": batch_size},
                    )
                except _TRANSPORT_ERRORS as exc:
                    lost_cursor_id, cursor_id = cursor_id, 0  # died with its connection
                    raise ConnectionFailure(
                        f"connection lost while streaming cursor {lost_cursor_id}: {exc}"
                    ) from exc
                reply = frame.document
        finally:
            if cursor_id and not connection.broken:
                try:
                    connection.request(
                        Opcode.KILL_CURSOR,
                        {**self._namespace(), "cursor_id": cursor_id},
                    )
                except (DocumentStoreError, ShardTimeoutError, *_TRANSPORT_ERRORS):
                    pass
            if connection.broken:
                self.client._discard(connection)
            else:
                self.client._checkin(connection)

    def _execute_find(self, spec: FindSpec) -> Iterator[dict[str, Any]]:
        """The complete spec crosses the wire at once, in one ``FIND`` frame."""
        _refuse_what_the_codec_changes(spec.filter)
        return self._stream(Opcode.FIND, {"spec": encode_findspec(spec)}, spec.batch_size)

    def count_documents(self, query: Mapping[str, Any] | None = None) -> int:
        """Count matching documents on the server."""
        _refuse_what_the_codec_changes(query)
        reply = self.client._request(
            Opcode.COUNT, {**self._namespace(), "filter": query}, idempotent=True
        )
        return int(reply["n"])

    def distinct(self, key: str, query: Mapping[str, Any] | None = None) -> list[Any]:
        """Distinct values of *key* across matching documents."""
        _refuse_what_the_codec_changes(query)
        reply = self.client._request(
            Opcode.DISTINCT,
            {**self._namespace(), "key": key, "filter": query},
            idempotent=True,
        )
        return list(reply["values"])

    def aggregate(
        self,
        pipeline: Sequence[Mapping[str, Any]],
        *,
        batch_size: int | None = None,
    ) -> list[dict[str, Any]]:
        """Run an aggregation pipeline on the server.

        The results stream back in ``GET_MORE`` batches of *batch_size*
        (``None``: the server's default), exactly like :meth:`find` — a large
        ``$group`` result never has to fit one frame.
        """
        if not _codec_keeps(pipeline):  # refused as the codec would change it
            validate_user_pipeline(pipeline)
            compile_pipeline(pipeline, output_writer=lambda _name, _documents: None)
        request = {"pipeline": [dict(stage) for stage in pipeline], "batch_size": batch_size}
        return list(self._stream(Opcode.AGGREGATE, request, batch_size))

    def _explain_command(self, target: dict[str, Any], verbosity: str) -> dict[str, Any]:
        """``surface="served"``: the server asks its backend and relabels the document."""
        command = {"explain": self.name, "verbosity": verbosity, **target}
        return dict(self.client.command(self._database_name, command)["explain"])

    def _explain_spec(self, spec: FindSpec, verbosity: str) -> dict[str, Any]:
        return self._explain_command({"spec": encode_findspec(spec)}, verbosity)

    def _explain_pipeline(
        self, pipeline: list[Mapping[str, Any]], verbosity: str
    ) -> dict[str, Any]:
        return self._explain_command({"pipeline": [dict(stage) for stage in pipeline]}, verbosity)

    # ----------------------------------------------------------------- writes

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> InsertManyResult:
        """Insert a batch of documents in one frame."""
        documents = [dict(require_mapping(document)) for document in documents]
        if not _codec_keeps(documents):  # the batch is checked as a collection checks it
            for document in documents:
                validate_document(document)
        reply = self.client._request(
            Opcode.INSERT_MANY, {**self._namespace(), "documents": documents}
        )
        return InsertManyResult(inserted_ids=list(reply["inserted_ids"]))

    def _write(self, operation: Any) -> dict[str, Any]:
        """Send one operation value in a ``WRITE`` frame (a write: never retried).

        The server applies it with the method it names and answers that
        method's result object, field for field.
        """
        return self.client._request(
            Opcode.WRITE, {**self._namespace(), "operation": encode_operation(operation)}
        )

    def update_one(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Update at most one matching document."""
        _refuse_what_the_codec_changes(query, update)
        return UpdateResult(**self._write(UpdateOne(query, dict(update), upsert)))

    def update_many(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Update every matching document."""
        _refuse_what_the_codec_changes(query, update)
        return UpdateResult(**self._write(UpdateMany(query, dict(update), upsert)))

    def delete_one(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Delete at most one matching document."""
        _refuse_what_the_codec_changes(query)
        return DeleteResult(**self._write(DeleteOne(query)))

    def delete_many(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Delete every matching document."""
        _refuse_what_the_codec_changes(query)
        return DeleteResult(**self._write(DeleteMany(query)))

    def bulk_write(self, operations: Iterable[Any], *, ordered: bool = True) -> BulkWriteResult:
        """Apply a list of operation values in one frame (a write: never retried).

        An operation the wire codec would change (a key that is not a ``str``)
        or cannot write (a set) is refused here, in its position, with a
        collection's error; the ones a collection would still apply go in the frame.
        """
        operations = checked_operations(operations)
        errors: list[dict[str, Any]] = []
        for index, operation in enumerate(operations):
            try:
                _refuse_what_the_codec_changes(*(
                    getattr(operation, name, None) for name in ("filter", "update", "document")
                ))
            except DocumentStoreError as error:
                errors.append({"index": index, "code": type(error).__name__, "message": str(error)})
                if ordered:
                    break
        refused = {entry["index"] for entry in errors}
        end = errors[0]["index"] if ordered and errors else len(operations)
        sent = [index for index in range(end) if index not in refused]
        result = BulkWriteResult()
        if sent:
            request = {
                **self._namespace(),
                "ordered": ordered,
                "operations": [encode_operation(operations[index]) for index in sent],
            }
            try:
                result = BulkWriteResult.from_document(
                    self.client._request(Opcode.BULK_WRITE, request)
                )
            except BulkWriteError as error:
                result = error.result
                served = [{**entry, "index": sent[entry["index"]]} for entry in error.errors]
                errors = served if ordered else served + errors
            result.upserted_ids = {sent[index]: _id for index, _id in result.upserted_ids.items()}
        if errors:
            raise BulkWriteError(errors, result)
        return result

    # -------------------------------------------------------------------- DDL

    def create_index(self, keys: Any, *, unique: bool = False, name: str = "") -> str:
        """Create an index on the served collection.

        Accepts the same shapes as the in-process backends; whatever the
        shape, only the structured spec (``IndexSpec.describe()``, the form
        ``list_indexes`` returns) crosses the wire.
        """
        spec = IndexSpec.from_key_specification(keys, unique=unique, name=name)
        reply = self.client.command(
            self._database_name, {"createIndexes": self.name, "spec": spec.describe()}
        )
        return str(reply["name"])

    def list_indexes(self) -> list[dict[str, Any]]:
        """Structured index specs (``Collection.list_indexes`` analogue)."""
        reply = self.client.command(self._database_name, {"listIndexes": self.name})
        return [dict(spec) for spec in reply["indexes"]]

    def drop_index(self, index_name: str) -> None:
        """Drop an index from the served collection."""
        self.client.command(
            self._database_name, {"dropIndexes": self.name, "index": index_name}
        )

    def drop(self) -> None:
        """Drop the served collection."""
        self.client.command(self._database_name, {"drop": self.name})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteCollection({self.full_name!r})"
