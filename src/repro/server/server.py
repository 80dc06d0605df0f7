"""A threaded socket server fronting the document store.

:class:`DocumentStoreServer` binds one TCP listening socket and speaks the
length-prefixed frame protocol of :mod:`repro.server.protocol`.  It can
front any backend exposing ``get_database(name)`` — a stand-alone
:class:`~repro.documentstore.client.DocumentStoreClient`, a
:class:`~repro.sharding.cluster.ShardedCluster`, or a bare
:class:`~repro.sharding.router.QueryRouter` — so the same wire surface
serves both of the paper's deployment environments.

Design points:

* **one thread per connection** — each accepted socket gets a daemon
  handler thread with its own session state; accepts beyond
  ``max_connections`` are rejected with a structured error frame
  (backpressure the client can see and retry on);
* **cursor state for batched streaming** — a ``FIND`` or ``AGGREGATE`` whose
  result exceeds the batch size registers a server-side cursor (at most
  ``MAX_CURSORS_PER_CONNECTION`` per session); ``GET_MORE`` frames stream
  the remaining batches.  A find's cursor wraps the backend's lazy
  :class:`~repro.documentstore.cursor.Cursor`, so the complete
  :class:`~repro.documentstore.findspec.FindSpec` reached the planner before
  the first batch was produced — shard-side pushdown survives the wire;
* **graceful shutdown** — :meth:`shutdown` stops accepting, waits for
  in-flight operations to drain, then closes every session;
* **observability from day one** — :class:`ServerStats` counts every
  opcode, keeps a per-opcode log-bucketed latency histogram, and records
  the *actual* encoded size of every frame in both directions
  (``bytes_in``/``bytes_out``), making the simulated
  ``RouterMetrics.bytes_shipped`` numbers checkable against real sockets.
  The whole surface is exposed through the ``serverStatus`` command.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..documentstore.bulk import decode_operation
from ..documentstore.errors import DocumentStoreError, OperationFailure
from ..sharding.router import RESPONSE_BATCH_SIZE, QueryRouter
from .protocol import (
    FLAG_HAS_MORE,
    MAX_CURSORS_PER_CONNECTION,
    Frame,
    Opcode,
    ProtocolError,
    encode_error,
    encode_frame,
    decode_findspec,
    recv_frame,
)

__all__ = ["DocumentStoreServer", "ServerStats", "LatencyHistogram"]


class LatencyHistogram:
    """Log-bucketed latency histogram (power-of-two buckets from 1 µs).

    Exact enough for p50/p95/p99 reporting at a fixed, tiny memory cost per
    opcode; percentiles are interpolated inside the winning bucket.
    """

    #: Lower edge of the first bucket, in seconds.
    BASE_SECONDS = 1e-6
    #: Number of power-of-two buckets (covers 1 µs .. ~134 s).
    BUCKETS = 28

    def __init__(self) -> None:
        self.counts = [0] * self.BUCKETS
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Add one observation."""
        if seconds < 0:
            seconds = 0.0
        index = 0
        if seconds > self.BASE_SECONDS:
            index = min(
                self.BUCKETS - 1,
                1 + int(math.log2(seconds / self.BASE_SECONDS)),
            )
        self.counts[index] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def _bucket_edges(self, index: int) -> tuple[float, float]:
        if index == 0:
            return 0.0, self.BASE_SECONDS
        return (
            self.BASE_SECONDS * 2 ** (index - 1),
            self.BASE_SECONDS * 2 ** index,
        )

    def percentile(self, fraction: float) -> float:
        """Approximate the latency at *fraction* (0..1) of observations."""
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= target:
                low, high = self._bucket_edges(index)
                within = (target - seen) / bucket_count
                return min(low + (high - low) * within, self.max_seconds or high)
            seen += bucket_count
        return self.max_seconds

    def snapshot(self) -> dict[str, Any]:
        """Summary statistics in milliseconds."""
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_ms": mean * 1e3,
            "p50_ms": self.percentile(0.50) * 1e3,
            "p95_ms": self.percentile(0.95) * 1e3,
            "p99_ms": self.percentile(0.99) * 1e3,
            "max_ms": self.max_seconds * 1e3,
        }


class ServerStats:
    """Thread-safe operation counters, latency histograms, wire byte totals.

    ``bytes_in``/``bytes_out`` are *actual* encoded frame sizes measured at
    the socket boundary — not estimates — which is what makes the
    traffic-benchmark byte numbers and the ``RouterMetrics`` comparison
    honest.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.opcounters: dict[str, int] = {}
        self.errors = 0
        self.latency: dict[str, LatencyHistogram] = {}
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.connections_accepted = 0
        self.connections_rejected = 0
        self.connections_active = 0
        self.cursors_opened = 0
        self.cursors_exhausted = 0
        self.cursors_killed = 0

    def record_frame_in(self, wire_size: int) -> None:
        with self._lock:
            self.frames_in += 1
            self.bytes_in += wire_size

    def record_frame_out(self, wire_size: int) -> None:
        with self._lock:
            self.frames_out += 1
            self.bytes_out += wire_size

    def record_operation(self, opcode_name: str, seconds: float, *, failed: bool) -> None:
        with self._lock:
            self.opcounters[opcode_name] = self.opcounters.get(opcode_name, 0) + 1
            if failed:
                self.errors += 1
            histogram = self.latency.get(opcode_name)
            if histogram is None:
                histogram = self.latency[opcode_name] = LatencyHistogram()
            histogram.record(seconds)

    def adjust_connections(self, delta: int) -> None:
        with self._lock:
            self.connections_active += delta
            if delta > 0:
                self.connections_accepted += delta

    def record_rejection(self) -> None:
        with self._lock:
            self.connections_rejected += 1

    def record_cursor(self, event: str, count: int = 1) -> None:
        with self._lock:
            if event == "opened":
                self.cursors_opened += count
            elif event == "exhausted":
                self.cursors_exhausted += count
            elif event == "killed":
                self.cursors_killed += count

    def reset(self) -> None:
        """Zero every counter (between benchmark phases)."""
        with self._lock:
            self.opcounters.clear()
            self.latency.clear()
            self.errors = 0
            self.frames_in = self.frames_out = 0
            self.bytes_in = self.bytes_out = 0
            self.cursors_opened = self.cursors_exhausted = self.cursors_killed = 0

    def snapshot(self) -> dict[str, Any]:
        """The full statistics surface as a plain dictionary."""
        with self._lock:
            return {
                "uptime_seconds": time.time() - self.started_at,
                "opcounters": dict(self.opcounters),
                "errors": self.errors,
                "latency_ms": {
                    name: histogram.snapshot()
                    for name, histogram in self.latency.items()
                },
                "wire": {
                    "frames_in": self.frames_in,
                    "frames_out": self.frames_out,
                    "bytes_in": self.bytes_in,
                    "bytes_out": self.bytes_out,
                },
                "connections": {
                    "accepted": self.connections_accepted,
                    "rejected": self.connections_rejected,
                    "active": self.connections_active,
                },
                "cursors": {
                    "opened": self.cursors_opened,
                    "exhausted": self.cursors_exhausted,
                    "killed": self.cursors_killed,
                },
            }


class _ServerCursor:
    """Session-local state of one batched ``FIND``/``AGGREGATE`` being streamed."""

    def __init__(self, iterator: Iterator[dict[str, Any]], batch_size: int) -> None:
        self.iterator = iterator
        self.batch_size = batch_size
        self._lookahead: dict[str, Any] | None = None
        self._has_lookahead = False

    def next_batch(self, batch_size: int | None = None) -> tuple[list[dict[str, Any]], bool]:
        """Return (documents, has_more) for the next response batch."""
        size = batch_size or self.batch_size
        batch: list[dict[str, Any]] = []
        if self._has_lookahead:
            assert self._lookahead is not None
            batch.append(self._lookahead)
            self._lookahead = None
            self._has_lookahead = False
        while len(batch) < size:
            try:
                batch.append(next(self.iterator))
            except StopIteration:
                return batch, False
        try:
            self._lookahead = next(self.iterator)
            self._has_lookahead = True
        except StopIteration:
            return batch, False
        return batch, True


class DocumentStoreServer:
    """The wire-protocol front door to a stand-alone store or a cluster.

    Parameters
    ----------
    backend:
        Anything with ``get_database(name)`` — ``DocumentStoreClient``,
        ``ShardedCluster``, or ``QueryRouter``.  The server does not own
        the backend: closing the server leaves it untouched.
    max_connections:
        Concurrent session cap; further accepts receive a
        ``TooManyConnections`` error frame and are closed (backpressure).
    read_timeout_seconds / write_timeout_seconds:
        Socket timeouts for receiving requests (``None`` = wait forever)
        and sending replies.  A read timeout closes the idle session; a
        write timeout closes a session whose client stopped draining.

    A find or aggregate that sets no batch size is answered in batches of
    :data:`~repro.sharding.router.RESPONSE_BATCH_SIZE` documents.
    """

    def __init__(
        self,
        backend: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 64,
        read_timeout_seconds: float | None = None,
        write_timeout_seconds: float | None = 30.0,
        name: str = "documentstore-server",
    ) -> None:
        if not hasattr(backend, "get_database"):
            raise TypeError(
                "backend must expose get_database(name) "
                "(DocumentStoreClient, ShardedCluster, or QueryRouter)"
            )
        self.name = name
        self.backend = backend
        self.stats = ServerStats()
        self.max_connections = max_connections
        self.read_timeout_seconds = read_timeout_seconds
        self.write_timeout_seconds = write_timeout_seconds
        self._requested_host = host
        self._requested_port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._sessions: set[_Session] = set()
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cond = threading.Condition(self._state_lock)
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "DocumentStoreServer":
        """Bind, listen, and start accepting connections; returns ``self``."""
        with self._state_lock:
            if self._started:
                return self
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._requested_host, self._requested_port))
            listener.listen(128)
            # The timeout is a portable fallback so the accept loop re-checks
            # ``_stopping`` even if closing the listener fails to wake it.
            listener.settimeout(1.0)
            self._listener = listener
            self._started = True
            self._stopping = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server is actually bound to."""
        if self._listener is None:
            raise OperationFailure("server is not started")
        return self._listener.getsockname()[:2]

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` ephemeral binds)."""
        return self.address[1]

    def shutdown(self, *, drain_timeout_seconds: float = 10.0) -> None:
        """Gracefully stop: no new connections, drain in-flight operations.

        Operations already executing when shutdown begins run to completion
        and their replies are delivered (bounded by *drain_timeout_seconds*);
        only then are the session sockets closed.
        """
        with self._state_lock:
            if not self._started or self._stopping:
                self._stopping = True
                return
            self._stopping = True
            listener = self._listener
        if listener is not None:
            # SHUT_RDWR wakes a thread blocked in accept(); close alone
            # does not on Linux.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - best effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=drain_timeout_seconds)
        deadline = time.monotonic() + drain_timeout_seconds
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(remaining)
        with self._state_lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.close()
        for session in sessions:
            session.join(timeout=2.0)
        # Every acknowledged write has been logged by the backend; a graceful
        # drain also forces group-committed WAL records to stable storage so
        # a planned restart never depends on the fsync policy.
        self._flush_backend_durability()
        self._started = False

    def _flush_backend_durability(self) -> None:
        """Flush the backend's WAL(s), when it has a durable storage engine.

        Class-level check for the same reason as :meth:`_router`: the
        standalone client materializes databases for unknown attributes.
        """
        if hasattr(type(self.backend), "flush_durability"):
            try:
                self.backend.flush_durability()
            except Exception:  # pragma: no cover - best effort on teardown
                pass

    close = shutdown

    def __enter__(self) -> "DocumentStoreServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------ accept loop

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while True:
            try:
                conn, _addr = listener.accept()
            except (TimeoutError, socket.timeout):
                if self._stopping:
                    return
                continue
            except OSError:
                return  # listener closed by shutdown()
            with self._state_lock:
                stopping = self._stopping
                active = len(self._sessions)
            if stopping or active >= self.max_connections:
                self._reject(conn, stopping=stopping)
                continue
            session = _Session(self, conn)
            with self._state_lock:
                self._sessions.add(session)
            self.stats.adjust_connections(+1)
            session.start()

    def _reject(self, conn: socket.socket, *, stopping: bool) -> None:
        """Refuse a connection with a structured error frame (backpressure)."""
        self.stats.record_rejection()
        code = "ShuttingDown" if stopping else "TooManyConnections"
        message = (
            "server is shutting down"
            if stopping
            else f"connection limit of {self.max_connections} reached; retry later"
        )
        try:
            conn.settimeout(1.0)
            frame = encode_frame(
                Opcode.ERROR, 0, {"code": code, "message": message, "details": {}}
            )
            conn.sendall(frame)
            self.stats.record_frame_out(len(frame))
        except OSError:  # pragma: no cover - peer vanished
            pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _session_finished(self, session: "_Session") -> None:
        with self._state_lock:
            self._sessions.discard(session)
        self.stats.adjust_connections(-1)

    # -------------------------------------------------------------- op window

    def _operation_started(self) -> bool:
        """Enter the in-flight window; False when the server is draining."""
        with self._inflight_cond:
            if self._stopping:
                return False
            self._inflight += 1
            return True

    def _operation_finished(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_cond.notify_all()

    # ------------------------------------------------------------- backend ops

    def _collection(self, database_name: str, collection_name: str) -> Any:
        return self.backend.get_database(database_name)[collection_name]

    def _router(self) -> Any | None:
        """The query router behind this server, when fronting a cluster.

        A cluster's router is read from its instance dict: ``DocumentStoreClient``
        materializes a database for *any* attribute name via ``__getattr__``,
        so plain ``getattr`` would misidentify a standalone backend.
        """
        if isinstance(self.backend, QueryRouter):
            return self.backend
        router = vars(self.backend).get("router")
        return router if isinstance(router, QueryRouter) else None

    def server_status(self) -> dict[str, Any]:
        """The ``serverStatus`` command body."""
        router = self._router()
        status: dict[str, Any] = {
            "ok": 1.0,
            "name": self.name,
            "deployment": "sharded" if router is not None else "standalone",
            **self.stats.snapshot(),
        }
        if router is not None:
            status["router"] = router.metrics.snapshot()
            status["network"] = router.network.stats.snapshot()
        if hasattr(type(self.backend), "durability_status"):
            status["durability"] = self.backend.durability_status()
        return status


class _Session(threading.Thread):
    """One connection: a request loop plus per-connection cursor state."""

    def __init__(self, server: DocumentStoreServer, sock: socket.socket) -> None:
        super().__init__(name=f"{server.name}-session", daemon=True)
        self.server = server
        self.sock = sock
        self.cursors: dict[int, _ServerCursor] = {}
        self._next_cursor_id = 1
        self._closed = False
        self._handlers: dict[int, Callable[[Mapping[str, Any]], tuple[dict[str, Any], int]]] = {
            Opcode.FIND: self._handle_find,
            Opcode.GET_MORE: self._handle_get_more,
            Opcode.KILL_CURSOR: self._handle_kill_cursor,
            Opcode.INSERT_MANY: self._handle_insert_many,
            Opcode.WRITE: self._handle_write,
            Opcode.AGGREGATE: self._handle_aggregate,
            Opcode.DISTINCT: self._handle_distinct,
            Opcode.COUNT: self._handle_count,
            Opcode.COMMAND: self._handle_command,
            Opcode.BULK_WRITE: self._handle_bulk_write,
        }

    # --------------------------------------------------------------- plumbing

    def close(self) -> None:
        """Close the session socket (unblocks the request loop)."""
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass

    def run(self) -> None:
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform without TCP_NODELAY
            pass
        try:
            while True:
                try:
                    self.sock.settimeout(self.server.read_timeout_seconds)
                    frame = recv_frame(self.sock)
                except (TimeoutError, socket.timeout):
                    break  # idle past the read timeout: close the session
                except (OSError, ProtocolError):
                    break
                if frame is None:
                    break  # clean EOF
                self.server.stats.record_frame_in(frame.wire_size)
                reply, in_flight = self._dispatch(frame)
                # Account the reply *before* sending it: once the client has
                # read the frame, the stats must already include it.
                self.server.stats.record_frame_out(len(reply))
                try:
                    self.sock.settimeout(self.server.write_timeout_seconds)
                    self.sock.sendall(reply)
                except (TimeoutError, socket.timeout, OSError):
                    break
                finally:
                    if in_flight:
                        self.server._operation_finished()
        finally:
            self.server.stats.record_cursor("killed", len(self.cursors))  # die with the connection
            self.cursors.clear()
            if not self._closed:
                try:
                    self.sock.close()
                except OSError:  # pragma: no cover
                    pass
            self.server._session_finished(self)

    def _dispatch(self, frame: Frame) -> tuple[bytes, bool]:
        """Execute one frame; returns (encoded reply, entered in-flight window).

        When the second element is True the caller must call
        ``_operation_finished()`` once the reply has been sent (or the send
        failed) — the in-flight window covers delivery, not just execution,
        so a draining shutdown never cuts a session between handler
        completion and ``sendall``.
        """
        started = time.perf_counter()
        # The ``opcounters``/latency row; ``_handle_write`` renames it to the
        # operation its frame carries (``update_one``, ``delete_many``, ...).
        try:
            self._stats_row = Opcode(frame.opcode).name.lower()
        except ValueError:
            self._stats_row = f"op{frame.opcode}"
        if not self.server._operation_started():
            payload = {
                "code": "ShuttingDown",
                "message": "server is shutting down",
                "details": {},
            }
            return encode_frame(Opcode.ERROR, frame.request_id, payload), False
        failed = False
        try:
            handler = self._handlers.get(frame.opcode)
            if handler is None:
                raise OperationFailure(f"unknown opcode {frame.opcode}")
            payload, flags = handler(frame.document)
            reply = encode_frame(Opcode.REPLY, frame.request_id, payload, flags=flags)
        except DocumentStoreError as exc:
            failed = True
            reply = encode_frame(Opcode.ERROR, frame.request_id, encode_error(exc))
        except Exception as exc:  # noqa: BLE001 - the server must not die
            failed = True
            reply = encode_frame(
                Opcode.ERROR,
                frame.request_id,
                {"code": "InternalError", "message": repr(exc), "details": {}},
            )
        self.server.stats.record_operation(
            self._stats_row, time.perf_counter() - started, failed=failed
        )
        # The caller closes the in-flight window *after* sending the reply:
        # a draining shutdown must not close this session between handler
        # completion and sendall, or the reply would be dropped.
        return reply, True

    # --------------------------------------------------------------- handlers

    def _open_cursor(
        self, results: Iterable[dict[str, Any]], batch_size: int | None
    ) -> tuple[dict[str, Any], int]:
        """Reply with the first batch of *results*; keep the rest for ``GET_MORE``.

        The one place a server cursor is registered, hence where the
        per-connection cap holds: a peer that opens cursors and never drains
        them is refused the next one, while its open cursors keep working.
        """
        size = int(batch_size or RESPONSE_BATCH_SIZE)
        server_cursor = _ServerCursor(iter(results), size)
        batch, has_more = server_cursor.next_batch()
        cursor_id = 0
        if has_more:
            if len(self.cursors) >= MAX_CURSORS_PER_CONNECTION:
                raise OperationFailure(
                    f"connection holds {MAX_CURSORS_PER_CONNECTION} open cursors: drain or kill one"
                )
            cursor_id = self._next_cursor_id
            self._next_cursor_id += 1
            self.cursors[cursor_id] = server_cursor
            self.server.stats.record_cursor("opened")
        reply = {"batch": batch, "cursor_id": cursor_id, "has_more": has_more}
        return reply, FLAG_HAS_MORE if has_more else 0

    def _handle_find(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        collection = self.server._collection(doc["db"], doc["collection"])
        spec = decode_findspec(doc.get("spec") or {})
        cursor = collection.find(
            spec.filter,
            spec.projection,
            sort=spec.sort,
            skip=spec.skip,
            limit=spec.limit or 0,
            batch_size=spec.batch_size,
            hint=spec.hint,
        )
        return self._open_cursor(cursor, spec.batch_size)

    def _handle_aggregate(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        collection = self.server._collection(doc["db"], doc["collection"])
        results = collection.aggregate(doc.get("pipeline") or [])
        return self._open_cursor(results, doc.get("batch_size"))

    def _handle_get_more(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        cursor_id = int(doc.get("cursor_id") or 0)
        server_cursor = self.cursors.get(cursor_id)
        if server_cursor is None:
            raise OperationFailure(f"cursor {cursor_id} not found on this connection")
        batch, has_more = server_cursor.next_batch(doc.get("batch_size"))
        if not has_more:
            del self.cursors[cursor_id]
            self.server.stats.record_cursor("exhausted")
            cursor_id = 0
        flags = FLAG_HAS_MORE if has_more else 0
        return {"batch": batch, "cursor_id": cursor_id, "has_more": has_more}, flags

    def _handle_kill_cursor(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        cursor_id = int(doc.get("cursor_id") or 0)
        if self.cursors.pop(cursor_id, None) is not None:
            self.server.stats.record_cursor("killed")
        return {"ok": 1.0}, 0

    def _handle_insert_many(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        collection = self.server._collection(doc["db"], doc["collection"])
        result = collection.insert_many(doc.get("documents") or [])
        return {"inserted_ids": list(result.inserted_ids)}, 0

    def _handle_write(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        """Apply one operation value by the method it names (no bulk semantics)."""
        collection = self.server._collection(doc["db"], doc["collection"])
        operation = decode_operation(doc.get("operation") or {})
        self._stats_row = str(doc["operation"]["op"])  # it decoded: a known name
        return vars(operation.apply(collection)), 0  # the result object, field for field

    def _handle_bulk_write(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        collection = self.server._collection(doc["db"], doc["collection"])
        operations = [decode_operation(item) for item in doc.get("operations") or []]
        result = collection.bulk_write(operations, ordered=bool(doc.get("ordered", True)))
        return result.as_document(), 0

    def _handle_distinct(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        collection = self.server._collection(doc["db"], doc["collection"])
        values = collection.distinct(doc["key"], doc.get("filter"))
        return {"values": list(values)}, 0

    def _handle_count(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        collection = self.server._collection(doc["db"], doc["collection"])
        return {"n": collection.count_documents(doc.get("filter"))}, 0

    def _handle_command(self, doc: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        command = doc.get("command") or {}
        database_name = doc.get("db") or "admin"
        if "ping" in command:
            return {"ok": 1.0}, 0
        if "serverStatus" in command:
            return self.server.server_status(), 0
        if "createIndexes" in command:
            collection = self.server._collection(database_name, command["createIndexes"])
            spec = command.get("spec")
            if not isinstance(spec, Mapping):
                raise OperationFailure("createIndexes takes a structured index 'spec'")
            # ``IndexSpec.describe()``: a listed index round-trips as-is.
            return {"ok": 1.0, "name": collection.create_index(spec)}, 0
        if "listIndexes" in command:
            collection = self.server._collection(database_name, command["listIndexes"])
            return {"ok": 1.0, "indexes": collection.list_indexes()}, 0
        if "explain" in command:
            collection = self.server._collection(database_name, command["explain"])
            if "pipeline" in command:
                argument: Any = command["pipeline"]
            else:
                argument = decode_findspec(command.get("spec") or {})
            explain = collection.explain(
                argument, verbosity=str(command.get("verbosity") or "queryPlanner")
            )
            # The backend reports its own surface; the client sees a served one.
            explain["surface"] = "served"
            return {"ok": 1.0, "explain": explain}, 0
        if "dropIndexes" in command:
            collection = self.server._collection(database_name, command["dropIndexes"])
            collection.drop_index(str(command["index"]))
            return {"ok": 1.0}, 0
        if "drop" in command:
            collection = self.server._collection(database_name, command["drop"])
            collection.drop()
            return {"ok": 1.0}, 0
        if "listCollections" in command:
            database = self.server.backend.get_database(database_name)
            return {"ok": 1.0, "collections": database.list_collection_names()}, 0
        raise OperationFailure(f"unknown command {sorted(command)!r}")
