"""Served-vs-standalone parity, cursor streaming, observability, honesty.

The acceptance matrix of the served front door: every operation issued
through a real socket against the 2-shard served cluster must return exactly
what the stand-alone in-process database returns, including sort+skip+limit
pushdown and ``getMore`` batched cursors; the server's byte accounting must
be at least the router's simulated shipping estimate for the same query.
"""

from __future__ import annotations

import datetime as dt
import socket
import time

import pytest

from repro.documentstore import DocumentStoreClient, FindSpec, ObjectId
from repro.documentstore.errors import DuplicateKeyError, OperationFailure
from repro.server import (
    ConnectionFailure,
    DocumentStoreServer,
    Opcode,
    RemoteClient,
    encode_frame,
    recv_frame,
)
from repro.server.protocol import MAX_CURSORS_PER_CONNECTION

from .conftest import DOCS


def stripped(docs):
    """Deterministic order, ignoring auto-generated ``_id`` values."""
    return sorted(
        ({k: v for k, v in d.items() if k != "_id"} for d in docs),
        key=lambda d: d["order_id"],
    )


class TestParityMatrix:
    def test_find_broadcast(self, remote, standalone):
        got = remote.find({"store": 2}).to_list()
        want = standalone.find({"store": 2}).to_list()
        assert stripped(got) == stripped(want)

    def test_find_sort_skip_limit_projection(self, remote, standalone):
        kwargs = dict(
            projection={"_id": 0, "order_id": 1, "amount": 1},
            sort=[("amount", -1), ("order_id", 1)],
            skip=5,
            limit=20,
        )
        got = remote.find({"store": {"$gte": 1}}, **kwargs).to_list()
        want = standalone.find({"store": {"$gte": 1}}, **kwargs).to_list()
        assert got == want

    def test_find_chained_cursor_options(self, remote, standalone):
        got = (
            remote.find({}, {"_id": 0, "order_id": 1})
            .sort("order_id", -1)
            .skip(2)
            .limit(9)
            .to_list()
        )
        want = (
            standalone.find({}, {"_id": 0, "order_id": 1})
            .sort("order_id", -1)
            .skip(2)
            .limit(9)
            .to_list()
        )
        assert got == want

    def test_find_targeted_on_shard_key(self, remote, standalone):
        got = remote.find({"order_id": 41}).to_list()
        want = standalone.find({"order_id": 41}).to_list()
        assert stripped(got) == stripped(want)

    def test_get_more_batched_cursor(self, remote, standalone, server):
        got = remote.find(
            {}, {"_id": 0}, sort=[("order_id", 1)], batch_size=7, limit=40
        ).to_list()
        want = standalone.find(
            {}, {"_id": 0}, sort=[("order_id", 1)], batch_size=7, limit=40
        ).to_list()
        assert got == want
        status = server.stats.snapshot()
        assert status["opcounters"]["get_more"] >= 5  # 40 docs / 7 per batch
        assert status["cursors"]["opened"] == 1
        assert status["cursors"]["exhausted"] == 1

    def test_aggregate(self, remote, standalone):
        pipeline = [
            {"$match": {"store": {"$lte": 3}}},
            {"$group": {"_id": "$store", "total": {"$sum": "$amount"}, "n": {"$sum": 1}}},
            {"$sort": {"_id": 1}},
        ]
        assert remote.aggregate(pipeline) == standalone.aggregate(pipeline)

    def test_count_and_distinct(self, remote, standalone):
        assert remote.count_documents({"store": 3}) == standalone.count_documents({"store": 3})
        assert sorted(remote.distinct("tag")) == sorted(standalone.distinct("tag"))
        assert sorted(remote.distinct("tag", {"store": 1})) == sorted(
            standalone.distinct("tag", {"store": 1})
        )

    def test_insert_many_parity(self, remote, standalone):
        extra = [{"order_id": 1_000 + i, "amount": float(i), "store": 9} for i in range(25)]
        got_result = remote.insert_many(extra)
        want_result = standalone.insert_many(extra)
        assert len(got_result.inserted_ids) == len(want_result.inserted_ids) == 25
        assert all(isinstance(oid, ObjectId) for oid in got_result.inserted_ids)
        got = remote.find({"store": 9}).to_list()
        want = standalone.find({"store": 9}).to_list()
        assert stripped(got) == stripped(want)

    def test_insert_one_returns_id(self, remote):
        result = remote.insert_one({"order_id": 5_000, "amount": 1.5, "store": 8})
        assert isinstance(result.inserted_id, ObjectId)
        assert remote.count_documents({"order_id": 5_000}) == 1

    def test_update_one_modifies_exactly_one(self, remote, standalone):
        got = remote.update_one({"store": 2}, {"$set": {"flag": True}})
        want = standalone.update_one({"store": 2}, {"$set": {"flag": True}})
        assert (got.matched_count, got.modified_count) == (
            want.matched_count,
            want.modified_count,
        ) == (1, 1)
        assert remote.count_documents({"flag": True}) == 1

    def test_update_many_and_upsert(self, remote, standalone):
        got = remote.update_many({"store": 4}, {"$inc": {"amount": 1.0}})
        want = standalone.update_many({"store": 4}, {"$inc": {"amount": 1.0}})
        assert got.modified_count == want.modified_count
        upserted = remote.update_one(
            {"order_id": 77_777}, {"$set": {"store": 1}}, upsert=True
        )
        assert upserted.upserted_id is not None
        assert remote.count_documents({"order_id": 77_777}) == 1

    def test_delete_one_and_many(self, remote, standalone):
        got_one = remote.delete_one({"store": 1})
        want_one = standalone.delete_one({"store": 1})
        assert got_one.deleted_count == want_one.deleted_count == 1
        got_many = remote.delete_many({"store": 0})
        want_many = standalone.delete_many({"store": 0})
        assert got_many.deleted_count == want_many.deleted_count
        assert remote.count_documents({}) == standalone.count_documents({})

    def test_extended_types_round_trip_through_server(self, remote):
        oid = ObjectId()
        when = dt.datetime(2017, 3, 21, 9, 30, 0)
        remote.insert_many(
            [{"order_id": 9_000, "ref": oid, "when": when, "raw": b"\x01\x02"}]
        )
        stored = remote.find_one({"order_id": 9_000})
        assert stored["ref"] == oid
        assert stored["when"] == when
        assert stored["raw"] == b"\x01\x02"


class TestWriteOpcode:
    """``update_one``/``update_many``/``delete_one``/``delete_many`` share one opcode.

    The frame carries the operation value and the server applies it with the
    method it names: same result object, same exception class, and its own
    ``serverStatus`` row — exactly what the four retired opcodes did.
    """

    #: name -> (a call that works, a call the store refuses)
    CALLS = {
        "update_one": (
            lambda c: c.update_one(
                {"_id": "fresh", "order_id": 77_777}, {"$set": {"store": 1}}, upsert=True
            ),
            lambda c: c.update_one({"store": 1}, {"$frob": {"amount": 1}}),
        ),
        "update_many": (
            lambda c: c.update_many({"store": 4}, {"$inc": {"amount": 1.0}}),
            lambda c: c.update_many({"store": 4}, {"amount": 1.0}),
        ),
        "delete_one": (
            lambda c: c.delete_one({"order_id": 5}),
            lambda c: c.delete_one({"amount": {"$frob": 1}}),
        ),
        "delete_many": (
            lambda c: c.delete_many({"store": 0}),
            lambda c: c.delete_many({"amount": {"$frob": 1}}),
        ),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_same_result_same_error_own_counter(self, name, remote, standalone, server):
        works, refused = self.CALLS[name]
        got, want = works(remote), works(standalone)
        assert got == want and type(got) is type(want)
        if name == "update_one":
            assert got.upserted_id == "fresh"
        assert remote.count_documents({}) == standalone.count_documents({})
        with pytest.raises(Exception) as reference:
            refused(standalone)
        with pytest.raises(type(reference.value)):
            refused(remote)
        status = server.stats.snapshot()
        assert status["opcounters"][name] == 2 and "write" not in status["opcounters"]
        assert status["latency_ms"][name]["count"] == 2
        assert status["errors"] == 1

    def test_an_unknown_operation_is_refused_and_counted_as_write(self, client, server):
        request = {"db": "shop", "collection": "orders", "operation": {"op": "frobnicate"}}
        with pytest.raises(OperationFailure, match="malformed bulk operation"):
            client._request(Opcode.WRITE, request)
        assert server.stats.snapshot()["opcounters"] == {"write": 1}

    def test_a_single_write_is_not_a_one_element_bulk_write(self, tmp_path):
        """No ``batch`` WAL record, and the store's own exception, not ``BulkWriteError``."""
        with DocumentStoreClient(data_dir=tmp_path) as backend:
            backend["db"]["c"].insert_many([{"_id": i, "n": i} for i in range(3)])
            with DocumentStoreServer(backend, port=0) as server:
                with RemoteClient(server.address) as client:
                    client["db"]["c"].update_one({"_id": 1}, {"$set": {"n": 10}})
                    with pytest.raises(OperationFailure) as refused:
                        client["db"]["c"].update_one({"_id": 1}, {"$set": {"_id": 2}})
                    assert type(refused.value) is OperationFailure
        with DocumentStoreClient(data_dir=tmp_path) as recovered:
            assert recovered.engine.recovery_report.operations == {"insert": 1, "apply": 1}
            assert recovered["db"]["c"].find_one({"_id": 1}) == {"_id": 1, "n": 10}


class TestOneCursorLoop:
    """``find`` and ``aggregate`` stream through the same client loop and server cursors."""

    STREAMS = {
        "find": lambda remote: remote._execute_find(FindSpec(batch_size=7)),
        "aggregate": lambda remote: remote._stream(
            Opcode.AGGREGATE, {"pipeline": [{"$match": {}}], "batch_size": 7}, 7
        ),
    }

    @pytest.mark.parametrize("name", STREAMS)
    def test_an_abandoned_stream_kills_its_server_cursor(self, name, remote, server):
        stream = self.STREAMS[name](remote)
        first = [next(stream) for _ in range(10)]  # into the second batch
        assert len({doc["order_id"] for doc in first}) == 10
        stream.close()  # abandoned mid-way
        status = server.stats.snapshot()
        assert status["opcounters"] == {name: 1, "get_more": 1, "kill_cursor": 1}
        assert status["cursors"] == {"opened": 1, "exhausted": 0, "killed": 1}
        # The connection went back to the pool and serves the next request.
        assert remote.count_documents({}) == len(DOCS)

    def test_aggregate_always_answers_cursor_style(self, remote, standalone, server):
        """No monolithic reply: the server's default batch size pages a big result."""
        pipeline = [{"$match": {}}, {"$project": {"_id": 0}}]
        assert stripped(remote.aggregate(pipeline)) == stripped(standalone.aggregate(pipeline))
        status = server.stats.snapshot()
        assert status["opcounters"] == {"aggregate": 1, "get_more": 2}  # 300 / 101
        assert status["cursors"] == {"opened": 1, "exhausted": 1, "killed": 0}
        assert remote.aggregate(pipeline, batch_size=50) == remote.aggregate(pipeline)

    def test_a_peer_that_never_drains_is_capped(self, server):
        """A raw peer opening cursors without ``GET_MORE`` is refused the next one.

        ``RemoteClient`` cannot get here (it pins one connection per open
        cursor); its open cursors keep working, and the counters balance
        once the connection drops.
        """
        namespace = {"db": "shop", "collection": "orders"}
        requests = [
            (Opcode.FIND, {**namespace, "spec": {"batch_size": 5}}),
            (Opcode.AGGREGATE, {**namespace, "pipeline": [{"$match": {}}], "batch_size": 5}),
        ]

        def ask(sock, request_id, opcode, payload):
            sock.sendall(encode_frame(opcode, request_id, payload))
            return recv_frame(sock)

        with socket.create_connection(server.address, timeout=5) as sock:
            for number in range(MAX_CURSORS_PER_CONNECTION):
                reply = ask(sock, number, *requests[number % 2])
                assert reply.opcode == Opcode.REPLY and reply.document["cursor_id"]
            (session,) = server._sessions
            for number, (opcode, payload) in enumerate(requests, start=100):
                refused = ask(sock, number, opcode, payload)
                assert refused.opcode == Opcode.ERROR
                assert refused.document["code"] == "OperationFailure"
                assert "open cursors" in refused.document["message"]
                assert len(session.cursors) == MAX_CURSORS_PER_CONNECTION
            # A result that fits one batch needs no cursor, and open ones still stream.
            small = ask(sock, 200, Opcode.FIND, {**namespace, "spec": {"filter": {"order_id": 1}}})
            assert small.opcode == Opcode.REPLY and len(small.document["batch"]) == 1
            more = ask(sock, 201, Opcode.GET_MORE, {**namespace, "cursor_id": 1})
            assert more.opcode == Opcode.REPLY and len(more.document["batch"]) == 5
            assert ask(sock, 202, Opcode.KILL_CURSOR, {**namespace, "cursor_id": 1}).opcode == Opcode.REPLY
            again = ask(sock, 203, *requests[0])
            assert again.opcode == Opcode.REPLY and again.document["cursor_id"]
            assert len(session.cursors) == MAX_CURSORS_PER_CONNECTION
        session.join(timeout=5)
        assert not session.is_alive() and session.cursors == {}
        cursors = server.stats.snapshot()["cursors"]
        assert cursors["opened"] == MAX_CURSORS_PER_CONNECTION + 1
        assert cursors["opened"] == cursors["exhausted"] + cursors["killed"]


class TestSetOperatorTyping:
    """``$in``/``$nin`` tell bools from numbers on every surface and plan.

    Regression: the operand was probed with Python equality, so an unindexed
    ``{"$in": [1]}`` also returned ``True`` — unlike ``$eq`` and the index.
    """

    NAN = float("nan")
    FLAGS = [
        {"k": 0, "x": True},
        {"k": 1, "x": False},
        {"k": 2, "x": 1},
        {"k": 3, "x": 1.0},
        {"k": 4, "x": 0},
        {"k": 5, "x": 0.0},
        {"k": 6, "x": NAN},
        {"k": 7},
    ]
    CASES = [
        ({"$in": [1]}, [2, 3]),
        ({"$in": [True]}, [0]),
        ({"$in": [False]}, [1]),
        ({"$in": [0.0]}, [4, 5]),
        ({"$in": [NAN]}, []),
        ({"$nin": [1, 0]}, [0, 1, 6, 7]),
        ({"$nin": [True, NAN]}, [1, 2, 3, 4, 5, 6, 7]),
    ]

    @pytest.fixture(params=["collscan", "ixscan"])
    def surfaces(self, request, cluster, client):
        cluster.shard_collection("shop", "flags", {"k": "hashed"})
        routed = cluster.get_database("shop")["flags"]
        routed.insert_many(self.FLAGS)
        local = DocumentStoreClient()["shop"]["flags"]
        local.insert_many(self.FLAGS)
        if request.param == "ixscan":
            routed.create_index("x")
            local.create_index("x")
        return {"standalone": local, "routed": routed, "served": client["shop"]["flags"]}

    @pytest.mark.parametrize("condition, expected", CASES, ids=[repr(c) for c, _ in CASES])
    def test_same_answer_on_every_surface(self, surfaces, condition, expected):
        for name, collection in surfaces.items():
            found = collection.find({"x": condition}).to_list()
            assert sorted(document["k"] for document in found) == expected, name
            assert collection.count_documents({"x": condition}) == len(expected), name

    def test_distinct_merges_numbers_across_shards_like_one_collection(self, surfaces):
        for name, collection in surfaces.items():
            values = collection.distinct("x", {"k": {"$in": [0, 2, 3, 4, 5]}})
            # True, 1 == 1.0 and 0 == 0.0: whichever spelling a shard ships first.
            assert len(values) == 3, (name, values)
            assert sorted(float(v) for v in values if v is not True) == [0.0, 1.0], name


class TestErrorsOverTheWire:
    def test_unknown_command(self, client):
        with pytest.raises(OperationFailure, match="unknown command"):
            client.command("shop", {"frobnicate": 1})

    def test_duplicate_key_error(self, remote):
        remote.create_index([("order_id", 1)], unique=True, name="uniq_order")
        with pytest.raises(DuplicateKeyError):
            remote.insert_many([{"order_id": 0, "amount": 0.0, "store": 0}])

    def test_invalid_filter_operator(self, remote):
        with pytest.raises(OperationFailure):
            remote.find({"amount": {"$frob": 1}}).to_list()


class TestObservability:
    def test_server_status_surface(self, client, remote):
        remote.find({"store": 1}).to_list()
        remote.count_documents({})
        status = client.server_status()
        assert status["deployment"] == "sharded"
        assert status["opcounters"]["find"] >= 1
        assert status["opcounters"]["count"] >= 1
        find_latency = status["latency_ms"]["find"]
        assert find_latency["count"] >= 1
        assert find_latency["p50_ms"] <= find_latency["p99_ms"] <= find_latency["max_ms"]
        assert status["wire"]["bytes_in"] > 0
        assert status["wire"]["bytes_out"] > 0
        assert status["connections"]["active"] >= 1
        assert "router" in status and "bytes_shipped" in status["router"]

    def test_wire_bytes_at_least_simulated_bytes_shipped(self, cluster, server, remote):
        """Byte-accounting honesty: real frames >= the simulated estimate.

        A broadcast find without projection makes every shard ship its full
        matching documents to the router (``RouterMetrics.bytes_shipped``,
        simulated), and the server then sends the same documents to the
        client in reply frames whose *actual* encoded sizes are accounted in
        ``ServerStats.bytes_out``.  The wire carries the same payload plus
        framing and envelope overhead, so the real number must dominate the
        simulated one for the same query.
        """
        server.stats.reset()
        cluster.reset_metrics()
        results = remote.find({"store": {"$lte": 2}}).to_list()
        assert results  # a real broadcast result set
        simulated = cluster.router.metrics.bytes_shipped
        actual = server.stats.snapshot()["wire"]["bytes_out"]
        assert simulated > 0
        assert actual >= simulated

    def test_stats_reset(self, server, remote):
        remote.count_documents({})
        server.stats.reset()
        status = server.stats.snapshot()
        assert status["opcounters"] == {}
        assert status["wire"]["bytes_out"] == 0


class TestConnectionLimits:
    def test_max_connections_backpressure(self, cluster):
        with DocumentStoreServer(cluster, port=0, max_connections=1) as server:
            with RemoteClient(server.address, pool_size=1) as first:
                assert first.ping()  # occupies the only session slot
                with RemoteClient(server.address, pool_size=1) as second:
                    with pytest.raises(ConnectionFailure, match="connection limit"):
                        second.ping()
                assert server.stats.snapshot()["connections"]["rejected"] >= 1
            # The slot frees once the server notices the first client's EOF;
            # retry briefly rather than racing the session teardown.
            deadline = time.monotonic() + 2.0
            while True:
                try:
                    with RemoteClient(server.address, pool_size=1) as third:
                        assert third.ping()
                    break
                except ConnectionFailure:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.02)

    def test_standalone_backend(self):
        from repro.documentstore import DocumentStoreClient

        backend = DocumentStoreClient()
        backend["db"]["events"].insert_many([{"n": i} for i in range(10)])
        with DocumentStoreServer(backend, port=0) as server:
            with RemoteClient(server.address) as client:
                assert client["db"]["events"].count_documents({"n": {"$gte": 5}}) == 5
                status = client.server_status()
                assert status["deployment"] == "standalone"
                assert "router" not in status
                assert client["db"].list_collection_names() == ["events"]
