"""Served-store durability: SIGKILL mid-traffic and graceful-drain flush.

The hard case runs a real server in a child process with ``fsync="always"``
and kills it with SIGKILL while a client thread is streaming acknowledged
inserts.  Reopening the data directory must show every acknowledged write
and nothing that was never attempted; at most the single in-flight batch
may be missing or present (it was never acknowledged either way).

The soft case checks the graceful path: with group commit
(``fsync="batch"``) a drain must flush the unsynced tail, so a planned
restart loses nothing regardless of policy.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.documentstore import DocumentStoreClient
from repro.server import ConnectionFailure, DocumentStoreServer, RemoteClient

CHILD = pathlib.Path(__file__).with_name("_server_child.py")
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def start_child(data_dir: pathlib.Path, fsync: str = "always") -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, str(CHILD), str(data_dir), fsync],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    assert process.stdout is not None
    line = process.stdout.readline().strip()
    if not line:
        stderr = process.stderr.read() if process.stderr else ""
        raise RuntimeError(f"server child failed to start: {stderr}")
    return process, int(line)


class TestSigkillMidTraffic:
    def test_acknowledged_writes_survive_sigkill(self, tmp_path):
        data_dir = tmp_path / "data"
        process, port = start_child(data_dir, "always")
        acked: list[int] = []
        stop = threading.Event()

        def writer() -> None:
            try:
                with RemoteClient(("127.0.0.1", port), pool_size=1) as client:
                    collection = client.db.c
                    doc_id = 0
                    while not stop.is_set():
                        collection.insert_many(
                            [{"_id": doc_id + i, "v": doc_id + i} for i in range(5)]
                        )
                        acked.append(doc_id)  # append only after the ack
                        doc_id += 5
            except Exception:
                pass  # the kill severs the connection mid-request

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            deadline = time.monotonic() + 5.0
            while len(acked) < 10 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(acked) >= 10, "traffic never got going"
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            stop.set()
            thread.join(timeout=10)

        acked_ids = {base + i for base in acked for i in range(5)}
        survivor = DocumentStoreClient(data_dir=data_dir)
        recovered_ids = {doc["_id"] for doc in survivor.db.c.find()}
        # Every acknowledged write survived the kill ...
        missing = acked_ids - recovered_ids
        assert not missing, f"lost {len(missing)} acknowledged documents"
        # ... and nothing appeared beyond the acked stream plus at most the
        # one batch that was in flight when the process died.
        ghosts = recovered_ids - acked_ids
        in_flight = {max(acked_ids) + 1 + i for i in range(5)} if acked_ids else set()
        assert ghosts <= in_flight, f"ghost documents recovered: {sorted(ghosts)[:10]}"
        survivor.close()

    def test_killed_server_leaves_reusable_directory(self, tmp_path):
        data_dir = tmp_path / "data"
        process, port = start_child(data_dir, "always")
        with RemoteClient(("127.0.0.1", port), pool_size=1) as client:
            client.db.c.insert_many([{"_id": i} for i in range(25)])
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)

        # The directory reopens as a served backend and keeps accepting writes.
        backend = DocumentStoreClient(data_dir=data_dir, fsync="always")
        assert backend.db.c.count_documents({}) == 25
        with DocumentStoreServer(backend, port=0) as server:
            with RemoteClient(server.address, pool_size=1) as client:
                client.db.c.insert_many([{"_id": 100 + i} for i in range(5)])
                assert client.db.c.count_documents({}) == 30


class TestGracefulShutdownFlushes:
    def test_drain_flushes_group_commit_tail(self, tmp_path):
        data_dir = tmp_path / "data"
        # Group commit with a huge group: nothing would be synced without
        # the drain-time flush.
        backend = DocumentStoreClient(
            data_dir=data_dir, fsync="batch", batch_fsync_every=10_000
        )
        server = DocumentStoreServer(backend, port=0).start()
        with RemoteClient(server.address, pool_size=1) as client:
            client.db.c.insert_many([{"_id": i} for i in range(17)])
        counters = backend.engine.counters
        assert counters.bytes_fsynced < counters.bytes_appended
        server.shutdown()
        assert counters.bytes_fsynced == counters.bytes_appended
        backend.close()

        reopened = DocumentStoreClient(data_dir=data_dir)
        assert reopened.db.c.count_documents({}) == 17
        reopened.close()

    def test_shutdown_rejects_new_traffic_but_keeps_durability(self, tmp_path):
        data_dir = tmp_path / "data"
        backend = DocumentStoreClient(data_dir=data_dir, fsync="batch")
        server = DocumentStoreServer(backend, port=0).start()
        address = server.address
        with RemoteClient(address, pool_size=1) as client:
            client.db.c.insert_one({"_id": 1})
        server.shutdown()
        with pytest.raises(ConnectionFailure):
            with RemoteClient(address, pool_size=1, connect_timeout_seconds=1.0) as client:
                client.ping()
        backend.close()
        reopened = DocumentStoreClient(data_dir=data_dir)
        assert reopened.db.c.count_documents({}) == 1
        reopened.close()

    def test_server_status_exposes_durability_counters(self, tmp_path):
        backend = DocumentStoreClient(data_dir=tmp_path / "data", fsync="always")
        with DocumentStoreServer(backend, port=0) as server:
            with RemoteClient(server.address, pool_size=1) as client:
                client.db.c.insert_many([{"_id": i} for i in range(3)])
                status = client.server_status()
        durability = status["durability"]
        assert durability["active"] is True
        assert durability["fsync_policy"] == "always"
        assert durability["records_appended"] >= 1
        assert durability["bytes_fsynced"] > 0
        assert "recovery" in durability
