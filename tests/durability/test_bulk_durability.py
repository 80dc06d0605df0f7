"""``bulk_write`` durability: one WAL record per batch, crash-atomic batches.

A durable ``bulk_write`` appends exactly one record — per shard in a cluster —
whatever the number of sub-operations, so a torn tail recovers to a batch
boundary; a batch that fails part-way logs (and recovers) exactly what was
applied.  The enumerated crash schedule of ``test_crash_recovery.py`` runs a
bulk step too; here are the exact counts and the record's shape.
"""

from __future__ import annotations

import threading

import pytest

import faults
from repro.documentstore import (
    BulkWriteError,
    DeleteMany,
    DeleteOne,
    DocumentStoreClient,
    InsertOne,
    UpdateMany,
    UpdateOne,
    decode_document,
)
from repro.documentstore.recovery import wal_path
from repro.documentstore.wal import read_log
from repro.sharding import ShardedCluster

BATCH = [
    InsertOne({"_id": 10, "n": 10}),
    InsertOne({"_id": 11, "n": 11}),
    UpdateMany({"n": {"$lt": 3}}, {"$set": {"small": True}}),
    UpdateOne({"_id": 3}, {"$inc": {"n": 100}}),
    UpdateOne({"_id": "up"}, {"$set": {"via": "upsert"}}, upsert=True),
    UpdateMany({"n": -1}, {"$set": {"never": True}}),  # matches nothing: logs nothing
    DeleteOne({"_id": 4}),
    DeleteMany({"n": {"$gte": 10, "$lt": 11}}),
]


def contents(collection):
    return sorted(collection.find({}).to_list(), key=lambda doc: str(doc["_id"]))


def seeded_client(data_dir, **kwargs):
    client = DocumentStoreClient(data_dir=data_dir, fsync="always", **kwargs)
    client.db.c.insert_many([{"_id": i, "n": i} for i in range(6)])
    return client


class TestOneRecordPerBatch:
    def test_a_batch_is_one_record_and_one_fsync(self, tmp_path):
        with seeded_client(tmp_path) as client:
            before = client.durability_status()
            result = client.db.c.bulk_write(BATCH)
            after = client.durability_status()
            assert (result.inserted_count, result.matched_count, result.deleted_count) == (2, 4, 2)
            assert after["records_appended"] == before["records_appended"] + 1
            assert after["fsync_calls"] == before["fsync_calls"] + 1
            expected = contents(client.db.c)
            log = wal_path(tmp_path, 0)
        payloads, _length, _tail = read_log(log)
        record = decode_document(payloads[-1])
        assert (record["op"], record["db"], record["coll"]) == ("batch", "db", "c")
        # One sub-record per operation that changed something, in order.
        assert [sub["op"] for sub in record["records"]] == [
            "insert", "insert", "apply", "apply", "apply", "delete", "delete",
        ]
        with DocumentStoreClient(data_dir=tmp_path) as recovered:
            assert contents(recovered.db.c) == expected
            assert recovered.engine.recovery_report.operations == {"insert": 1, "batch": 1}

    def test_a_batch_that_changes_nothing_logs_nothing(self, tmp_path):
        with seeded_client(tmp_path) as client:
            before = client.durability_status()["records_appended"]
            client.db.c.bulk_write([UpdateMany({"n": -1}, {"$set": {"x": 1}}), DeleteOne({"n": -1})])
            assert client.durability_status()["records_appended"] == before

    def test_single_operations_still_log_their_own_records(self, tmp_path):
        with seeded_client(tmp_path) as client:
            client.db.c.bulk_write([InsertOne({"_id": 20})])
            client.db.c.insert_one({"_id": 21})
            client.db.c.delete_many({"_id": 20})
        payloads, _length, _tail = read_log(wal_path(tmp_path, 0))
        assert [decode_document(payload)["op"] for payload in payloads] == [
            "insert", "batch", "insert", "delete",
        ]

    def test_one_record_per_shard_in_a_cluster(self, tmp_path):
        cluster = ShardedCluster(3, data_dir=tmp_path, fsync="always")
        try:
            cluster.shard_collection("db", "t", {"k": "hashed"})
            table = cluster["db"]["t"]
            table.insert_many([{"_id": i, "k": i, "n": 0} for i in range(30)])
            owners = {
                shard.shard_id: [doc["k"] for doc in shard.collection("db", "t").find({})]
                for shard in cluster.shards
            }
            assert all(owners.values())
            before = {s.shard_id: s.durability_status() for s in cluster.shards}
            result = table.bulk_write(
                [UpdateMany({"k": k}, {"$inc": {"n": 1}}) for k in range(30)], ordered=False
            )
            assert result.modified_count == 30
            for shard in cluster.shards:
                after = shard.durability_status()
                assert after["records_appended"] == before[shard.shard_id]["records_appended"] + 1
                assert after["fsync_calls"] == before[shard.shard_id]["fsync_calls"] + 1
            expected = contents(table)
        finally:
            cluster.close()
        reopened = ShardedCluster(3, data_dir=tmp_path)
        try:
            assert contents(reopened["db"]["t"]) == expected
            for shard in reopened.shards:
                assert shard.engine.recovery_report.operations["batch"] == 1
        finally:
            reopened.close()


class TestPartialBatches:
    @pytest.mark.parametrize("ordered", [True, False])
    def test_a_failing_batch_logs_and_recovers_exactly_what_was_applied(self, tmp_path, ordered):
        operations = [
            InsertOne({"_id": 10}),
            UpdateOne({"_id": 0}, {"$set": {"seen": 1}}),
            InsertOne({"_id": 1}),  # duplicate: fails at index 2
            InsertOne({"_id": 11}),
            UpdateOne({"_id": 2}, {"$set": {"_id": 99}}),  # _id is immutable
            DeleteOne({"_id": 5}),
        ]
        with seeded_client(tmp_path) as client:
            before = client.durability_status()["records_appended"]
            with pytest.raises(BulkWriteError) as excinfo:
                client.db.c.bulk_write(operations, ordered=ordered)
            assert excinfo.value.index == 2
            assert [entry["index"] for entry in excinfo.value.errors] == ([2] if ordered else [2, 4])
            assert client.durability_status()["records_appended"] == before + 1
            applied = contents(client.db.c)
            ids = [doc["_id"] for doc in applied]
            assert ids == ([0, 1, 10, 2, 3, 4, 5] if ordered else [0, 1, 10, 11, 2, 3, 4])
        with DocumentStoreClient(data_dir=tmp_path) as recovered:
            assert contents(recovered.db.c) == applied


class TestConcurrentWriter:
    def test_a_single_write_cannot_overtake_the_batch_it_raced(self, tmp_path, monkeypatch):
        """The WAL lists post-images in apply order, or replay loses a write.

        A batch has touched document 0 and not yet document 1 when another
        thread updates both.  Its record must not reach the log before the
        batch's: it waits for the write lock, so what was acknowledged is
        what a reopened store holds.
        """
        with seeded_client(tmp_path) as client:
            collection = client.db.c
            mid_batch, single_write_done = threading.Event(), threading.Event()
            delete_one = collection.delete_one

            def gated_delete_one(query):
                mid_batch.set()
                single_write_done.wait(0.3)  # never set while the batch holds the lock
                return delete_one(query)

            def single_write():
                mid_batch.wait(5)
                collection.update_many({"_id": {"$in": [0, 1]}}, {"$set": {"b": 1}})
                single_write_done.set()

            monkeypatch.setattr(collection, "delete_one", gated_delete_one)
            writer = threading.Thread(target=single_write)
            writer.start()
            collection.bulk_write([
                UpdateOne({"_id": 0}, {"$set": {"a": 1}}),
                DeleteOne({"_id": 5}),
                UpdateOne({"_id": 1}, {"$set": {"a": 1}}),
            ])
            writer.join(5)
            assert single_write_done.is_set()
            acknowledged = contents(collection)
            assert acknowledged[:2] == [
                {"_id": 0, "n": 0, "a": 1, "b": 1}, {"_id": 1, "n": 1, "a": 1, "b": 1},
            ]
        payloads, _length, _tail = read_log(wal_path(tmp_path, 0))
        assert [decode_document(payload)["op"] for payload in payloads] == [
            "insert", "batch", "apply",
        ]
        with DocumentStoreClient(data_dir=tmp_path) as recovered:
            assert contents(recovered.db.c) == acknowledged

    def test_an_insert_cannot_overtake_the_drop_index_that_made_it_legal(
        self, tmp_path, monkeypatch
    ):
        """Index DDL is applied and logged under the write lock, like a write.

        A unique index is gone from memory but its ``drop_index`` record is
        not yet in the log when another thread inserts a now-legal duplicate.
        Logged ahead of the drop, the acknowledged insert would replay against
        the unique index and recovery would raise ``DuplicateKeyError``.
        """
        with seeded_client(tmp_path) as client:
            collection = client.db.c
            index_name = collection.create_index("n", unique=True)
            index_dropped, insert_done = threading.Event(), threading.Event()
            write_log = collection._write_log

            def gated_write_log(record):
                if record["op"] == "drop_index":
                    index_dropped.set()
                    insert_done.wait(0.3)  # never set while drop_index holds the lock
                write_log(record)

            def duplicate_insert():
                index_dropped.wait(5)
                collection.insert_one({"_id": "dup", "n": 0})
                insert_done.set()

            monkeypatch.setattr(collection, "_write_log", gated_write_log)
            writer = threading.Thread(target=duplicate_insert)
            writer.start()
            collection.drop_index(index_name)
            writer.join(5)
            assert insert_done.is_set()
            acknowledged = contents(collection)
            assert {"_id": "dup", "n": 0} in acknowledged
        payloads, _length, _tail = read_log(wal_path(tmp_path, 0))
        assert [decode_document(payload)["op"] for payload in payloads] == [
            "insert", "create_index", "drop_index", "insert",
        ]
        with DocumentStoreClient(data_dir=tmp_path) as recovered:
            assert contents(recovered.db.c) == acknowledged


    def test_a_write_cannot_be_logged_between_a_drop_database_and_its_record(
        self, tmp_path, monkeypatch
    ):
        """``drop_database`` holds the write lock from the drop to its record.

        The collections are dropped but the ``drop_database`` record is not yet
        in the log when another thread inserts into a new database of that
        name.  Logged ahead of the drop, the acknowledged insert would be
        erased when the log is replayed.
        """
        with seeded_client(tmp_path) as client:
            engine = client.engine
            dropping, insert_done = threading.Event(), threading.Event()
            log = engine.log

            def gated_log(database_name, collection_name, record):
                if record["op"] == "drop_database":
                    dropping.set()
                    insert_done.wait(0.3)  # never set while drop_database holds the lock
                log(database_name, collection_name, record)

            def insert_into_the_new_database():
                dropping.wait(5)
                client["db"]["c"].insert_one({"_id": "after"})
                insert_done.set()

            monkeypatch.setattr(engine, "log", gated_log)
            writer = threading.Thread(target=insert_into_the_new_database)
            writer.start()
            client.drop_database("db")
            writer.join(5)
            assert not writer.is_alive() and insert_done.is_set()
            acknowledged = contents(client["db"]["c"])
            assert acknowledged == [{"_id": "after"}]
        payloads, _length, _tail = read_log(wal_path(tmp_path, 0))
        assert [decode_document(payload)["op"] for payload in payloads] == [
            "insert", "drop_collection", "drop_database", "insert",
        ]
        with DocumentStoreClient(data_dir=tmp_path) as recovered:
            assert contents(recovered["db"]["c"]) == acknowledged


class TestTornBatch:
    def test_a_torn_batch_record_recovers_to_the_state_before_the_batch(self, tmp_path):
        with seeded_client(tmp_path) as client:
            before_batch = contents(client.db.c)
            client.db.c.bulk_write(BATCH)
        faults.tear_tail(wal_path(tmp_path, 0), drop_bytes=9)
        with DocumentStoreClient(data_dir=tmp_path) as recovered:
            assert recovered.engine.recovery_report.tail_state == "torn"
            assert contents(recovered.db.c) == before_batch
            # The truncated log takes new batches.
            recovered.db.c.bulk_write(BATCH)
            after_batch = contents(recovered.db.c)
        with DocumentStoreClient(data_dir=tmp_path) as again:
            assert contents(again.db.c) == after_batch
