"""A closed deployment is freed by reference counting, even while a caller holds a handle.

Every test here runs with the cyclic collector off: what it checks must be
freed at ``del`` (or at ``close()``), not whenever a generation-2 collection
happens to run.  A stored document is a ``dict``, which cannot be weakly
referenced, so its release is checked by its reference count: once the store
lets go, the test's own name is its only holder.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import weakref

import pytest

from repro.documentstore import DocumentStoreClient, OperationFailure
from repro.sharding import ShardedCluster

ROWS = [{"_id": i, "k": i, "tags": [i, {"n": i}]} for i in range(200)]


@contextlib.contextmanager
def without_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def standalone(tmp_path, durable: bool):
    client = DocumentStoreClient(data_dir=tmp_path if durable else None)
    collection = client["db"]["items"]
    collection.insert_many(ROWS)
    collection.create_index([("k", 1)])
    return client, collection


def sharded(tmp_path, durable: bool):
    cluster = ShardedCluster(shard_count=3, data_dir=tmp_path if durable else None)
    cluster.shard_collection("db", "items", {"k": "hashed"})
    cluster.get_database("db")["items"].insert_many(ROWS)
    return cluster, cluster.shard("shard2").collection("db", "items")


DEPLOYMENTS = {
    "standalone": lambda tmp_path: standalone(tmp_path, durable=False),
    "durable standalone": lambda tmp_path: standalone(tmp_path, durable=True),
    "cluster": lambda tmp_path: sharded(tmp_path, durable=False),
    "durable cluster": lambda tmp_path: sharded(tmp_path, durable=True),
}


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_close_frees_the_store_while_a_handle_is_held(tmp_path, deployment):
    with without_cyclic_collector():
        owner, collection = DEPLOYMENTS[deployment](tmp_path)
        document = next(iter(collection.raw_documents()))
        unstored: dict = {}  # held, like the document, by one name of this frame
        reference = weakref.ref(collection)
        assert sys.getrefcount(document) > sys.getrefcount(unstored)

        owner.close()
        assert sys.getrefcount(document) == sys.getrefcount(unstored)  # the handle is still held
        with pytest.raises(OperationFailure, match="client is closed"):
            collection.find_one({})

        del collection
        assert reference() is None
        del owner
        assert gc.collect() == 0
