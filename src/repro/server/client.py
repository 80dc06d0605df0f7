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

from ..documentstore.bulk import (
    BulkWriteResult,
    DeleteMany,
    DeleteOne,
    UpdateMany,
    UpdateOne,
    checked_operations,
    encode_operation,
)
from ..documentstore.cursor import CollectionSurface, DeleteResult, InsertManyResult, UpdateResult
from ..documentstore.errors import DocumentStoreError
from ..documentstore.findspec import FindSpec
from ..documentstore.indexes import IndexSpec
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
            self.sock.sendall(encode_frame(opcode, request_id, payload))
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
        retry_reads: bool = True,
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
        self.retry_reads = retry_reads
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
        retried once on a fresh connection when *idempotent*.
        """
        attempts = 2 if (idempotent and self.retry_reads) else 1
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

    def get_collection(self, collection_name: str) -> "RemoteCollection":
        """Return a collection handle speaking the wire protocol."""
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
        return self._stream(Opcode.FIND, {"spec": encode_findspec(spec)}, spec.batch_size)

    def count_documents(self, query: Mapping[str, Any] | None = None) -> int:
        """Count matching documents on the server."""
        reply = self.client._request(
            Opcode.COUNT, {**self._namespace(), "filter": query}, idempotent=True
        )
        return int(reply["n"])

    def distinct(self, key: str, query: Mapping[str, Any] | None = None) -> list[Any]:
        """Distinct values of *key* across matching documents."""
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
        ``$vectorSearch``/``$group`` result never has to fit one frame.
        """
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
        reply = self.client._request(
            Opcode.INSERT_MANY,
            {**self._namespace(), "documents": [dict(doc) for doc in documents]},
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
        return UpdateResult(**self._write(UpdateOne(query, dict(update), upsert)))

    def update_many(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Update every matching document."""
        return UpdateResult(**self._write(UpdateMany(query, dict(update), upsert)))

    def delete_one(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Delete at most one matching document."""
        return DeleteResult(**self._write(DeleteOne(query)))

    def delete_many(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Delete every matching document."""
        return DeleteResult(**self._write(DeleteMany(query)))

    def bulk_write(self, operations: Iterable[Any], *, ordered: bool = True) -> BulkWriteResult:
        """Apply a list of operation values in one frame (a write: never retried)."""
        operations = checked_operations(operations)
        if not operations:
            return BulkWriteResult()
        reply = self.client._request(
            Opcode.BULK_WRITE,
            {
                **self._namespace(),
                "ordered": ordered,
                "operations": [encode_operation(operation) for operation in operations],
            },
        )
        return BulkWriteResult.from_document(reply)

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
