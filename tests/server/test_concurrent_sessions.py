"""Concurrent sessions: racing clients, cursor isolation, drains.

Two clients hammering one server must behave exactly like one client run
twice: inserts land once, sorted finds see a consistent order, and each
connection's cursors stream their own results (no cross-talk).  A graceful
shutdown delivers in-flight replies before closing sessions.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.server import ConnectionFailure, DocumentStoreServer, RemoteClient

from .conftest import build_served_cluster, slow_down_shard


class TestRacingClients:
    def test_two_clients_racing_insert_many_and_sorted_find(self, server):
        """Interleaved insert_many + sorted finds from two sessions stay exact."""
        address = server.address
        per_client = 120
        batch = 20
        errors: list[BaseException] = []

        def run(client_index: int) -> None:
            base = 10_000 + client_index * per_client
            try:
                with RemoteClient(address, pool_size=1) as client:
                    race = client["shop"]["race"]
                    for start in range(base, base + per_client, batch):
                        race.insert_many(
                            [
                                {"seq": n, "owner": client_index, "payload": n * 3}
                                for n in range(start, start + batch)
                            ]
                        )
                        # A sorted, paged read of this client's own rows must
                        # never see another session's cursor batches.
                        mine = race.find(
                            {"owner": client_index},
                            {"_id": 0, "seq": 1},
                            sort=[("seq", 1)],
                            batch_size=7,
                        ).to_list()
                        assert [d["seq"] for d in mine] == list(range(base, start + batch))
            except BaseException as exc:  # noqa: BLE001 - surfaced in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

        # Single-client ground truth after the race: every row exactly once,
        # in global sort order.
        with RemoteClient(address, pool_size=1) as client:
            rows = client["shop"]["race"].find(
                {}, {"_id": 0, "seq": 1}, sort=[("seq", 1)], batch_size=11
            ).to_list()
        assert [d["seq"] for d in rows] == list(range(10_000, 10_000 + 2 * per_client))

    def test_interleaved_cursors_do_not_cross_talk(self, client, standalone):
        """Two cursors pulled alternately yield their own streams."""
        evens = iter(
            client["shop"]["orders"].find(
                {"order_id": {"$in": list(range(0, 300, 2))}},
                {"_id": 0, "order_id": 1},
                sort=[("order_id", 1)],
                batch_size=5,
            )
        )
        odds = iter(
            client["shop"]["orders"].find(
                {"order_id": {"$in": list(range(1, 300, 2))}},
                {"_id": 0, "order_id": 1},
                sort=[("order_id", 1)],
                batch_size=3,
            )
        )
        got_evens, got_odds = [], []
        for _ in range(60):
            got_evens.append(next(evens)["order_id"])
            got_odds.append(next(odds)["order_id"])
        assert got_evens == [2 * i for i in range(60)]
        assert got_odds == [2 * i + 1 for i in range(60)]


class TestReconnectAndShutdown:
    def test_idempotent_read_retries_on_dead_socket(self, server):
        with RemoteClient(server.address, pool_size=1) as client:
            orders = client["shop"]["orders"]
            assert client.ping()  # establishes the pooled connection
            client._idle[0].sock.close()  # simulate the socket dying under us
            rows = orders.find({"store": 1}, {"_id": 0}).to_list()  # retried
            assert len(rows) == 60

    @pytest.mark.parametrize(
        "write",
        [
            lambda orders: orders.insert_many([{"order_id": 99_999, "amount": 0.0, "store": 0}]),
            lambda orders: orders.update_one(
                {"order_id": 99_999}, {"$set": {"store": 0}}, upsert=True
            ),
        ],
        ids=["insert_many", "write_opcode"],
    )
    def test_writes_are_not_retried(self, server, write):
        with RemoteClient(server.address, pool_size=1) as client:
            orders = client["shop"]["orders"]
            assert client.ping()
            client._idle[0].sock.close()
            with pytest.raises(ConnectionFailure):
                write(orders)
            # The write never reached the server and the pool recovered.
            assert orders.count_documents({"order_id": 99_999}) == 0

    def test_graceful_shutdown_drains_in_flight_operation(self):
        cluster = build_served_cluster()
        slow_down_shard(cluster, "shard1", 0.4)
        server = DocumentStoreServer(cluster, port=0).start()
        results: list[int] = []
        errors: list[BaseException] = []

        def slow_read() -> None:
            try:
                with RemoteClient(server.address, pool_size=1) as client:
                    results.append(
                        client["shop"]["orders"].count_documents({"store": 2})
                    )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=slow_read)
        thread.start()
        # Wait until the count is actually in flight (not a fixed sleep, which
        # races on a loaded host) before starting the graceful shutdown.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            with server._inflight_cond:
                if server._inflight > 0:
                    break
            time.sleep(0.005)
        server.shutdown(drain_timeout_seconds=5.0)
        thread.join(timeout=5.0)
        assert not errors, errors
        assert results == [60]  # the in-flight reply was delivered, not dropped
        cluster.close()

    def test_requests_after_shutdown_are_refused(self):
        cluster = build_served_cluster()
        try:
            server = DocumentStoreServer(cluster, port=0).start()
            address = server.address
            server.shutdown()
            with RemoteClient(address, pool_size=1) as client:
                with pytest.raises(ConnectionFailure):
                    client.ping()
        finally:
            cluster.close()
