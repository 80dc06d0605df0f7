"""Shared fixtures for the served-front-door tests.

Builds a 2-shard cluster loaded with a small order dataset, serves it
through a :class:`DocumentStoreServer` on an ephemeral port, and connects a
:class:`RemoteClient`; a stand-alone collection with the same data is the
parity reference.
"""

from __future__ import annotations

import time

import pytest

from repro.documentstore import DocumentStoreClient
from repro.server import DocumentStoreServer, RemoteClient
from repro.sharding import ShardedCluster

DOCS = [
    {"order_id": i, "amount": float((i * 37) % 97), "store": i % 5, "tag": f"t{i % 7}"}
    for i in range(300)
]


def build_served_cluster() -> ShardedCluster:
    """A 2-shard cluster with the shared order dataset loaded and balanced."""
    cluster = ShardedCluster(shard_count=2)
    cluster.enable_sharding("shop")
    cluster.shard_collection("shop", "orders", {"order_id": "hashed"})
    cluster.get_database("shop")["orders"].insert_many(DOCS)
    cluster.balance()
    cluster.reset_metrics()
    return cluster


def slow_down_shard(cluster: ShardedCluster, shard_id: str, seconds: float) -> None:
    """Make every storage operation on one shard sleep before executing."""
    shard = cluster.shard(shard_id)
    original = shard.run

    def slow_run(operation, *args, **kwargs):
        time.sleep(seconds)
        return original(operation, *args, **kwargs)

    shard.run = slow_run


@pytest.fixture()
def cluster():
    cluster = build_served_cluster()
    yield cluster
    cluster.close()


@pytest.fixture()
def server(cluster):
    with DocumentStoreServer(cluster, port=0) as server:
        yield server


@pytest.fixture()
def client(server):
    with RemoteClient(server.address, pool_size=2) as client:
        yield client


@pytest.fixture()
def remote(client):
    return client["shop"]["orders"]


@pytest.fixture()
def standalone():
    client = DocumentStoreClient()
    client["shop"]["orders"].insert_many(DOCS)
    return client["shop"]["orders"]
