"""A closed durable deployment refuses writes; reopening it reads the acknowledged ones.

Before ``close()`` released the store, a write through a handle taken before
the close was applied in memory and acknowledged, but the detached engine no
longer logged it: the reopened store silently lacked it.
"""

from __future__ import annotations

import pytest

from repro.documentstore import DocumentStoreClient, InsertOne, OperationFailure, UpdateOne
from repro.sharding import ShardedCluster

#: Writes through a collection handle taken before the close.
WRITES = {
    "insert_one": lambda c: c.insert_one({"_id": 99, "k": 99}),
    "insert_many": lambda c: c.insert_many([{"_id": 98, "k": 98}]),
    "update_many": lambda c: c.update_many({}, {"$set": {"late": True}}),
    "update_one upsert": lambda c: c.update_one({"_id": 97}, {"$set": {"k": 97}}, upsert=True),
    "delete_many": lambda c: c.delete_many({}),
    "bulk_write": lambda c: c.bulk_write(
        [InsertOne({"_id": 96, "k": 96}), UpdateOne({}, {"$inc": {"k": 1}})]
    ),
    "create_index": lambda c: c.create_index([("k", 1)]),
    "drop": lambda c: c.drop(),
}

ACKNOWLEDGED = [{"_id": i, "k": i} for i in range(10)]


def stored(collection) -> list[dict]:
    return sorted(collection.find({}), key=lambda document: document["_id"])


@pytest.mark.parametrize("write", WRITES)
def test_a_write_after_close_is_refused_and_reopening_reads_the_acknowledged_writes(
    tmp_path, write
):
    client = DocumentStoreClient(data_dir=tmp_path, fsync="always")
    database = client["db"]
    collection = database["items"]
    collection.insert_many(ACKNOWLEDGED)
    client.close()

    with pytest.raises(OperationFailure, match="client is closed"):
        WRITES[write](collection)
    with pytest.raises(OperationFailure, match="client is closed"):
        database["other"].insert_one({"_id": 1})
    with pytest.raises(OperationFailure, match="client is closed"):
        client["db"]
    assert client.durability_status()["active"] is False

    with DocumentStoreClient(data_dir=tmp_path) as reopened:
        assert stored(reopened["db"]["items"]) == ACKNOWLEDGED
        assert reopened.list_database_names() == ["db"]
        assert reopened["db"].list_collection_names() == ["items"]


@pytest.mark.parametrize("write", WRITES)
def test_a_routed_write_after_close_is_refused_and_reopening_reads_the_acknowledged_writes(
    tmp_path, write
):
    cluster = ShardedCluster(shard_count=3, data_dir=tmp_path, fsync="always")
    cluster.shard_collection("db", "items", {"k": "hashed"})
    routed = cluster.get_database("db")["items"]
    routed.insert_many(ACKNOWLEDGED)
    local = cluster.shard("shard1").collection("db", "items")
    cluster.close()

    for handle in (routed, local):
        with pytest.raises(OperationFailure, match="client is closed"):
            WRITES[write](handle)
    assert cluster.status()["shard_count"] == 3
    assert cluster.durability_status()["active"] is True

    reopened = ShardedCluster(shard_count=3, data_dir=tmp_path)
    try:
        assert stored(reopened.get_database("db")["items"]) == ACKNOWLEDGED
    finally:
        reopened.close()
