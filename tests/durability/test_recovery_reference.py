"""Recovery reproduces the store it recovers: the reopened image equals the closed one.

Replay and snapshot restore store each decoded document as it is, with no
second copy or validation: a document was validated when it was first
written.  These tests compare, for every collection, the store before
``close()`` with the store a fresh client recovers from the same directory
— its documents by ``_id``, its ``list_indexes()`` and the
``document_size`` of every stored document (which tells ``1`` from ``1.0``)
— over each shape a data directory can take.  A snapshot line or a logged
document that is not a ``dict`` carrying an ``_id`` is refused with a
:class:`RecoveryError` that names the file.
"""

from __future__ import annotations

import datetime

import pytest

from repro.documentstore import (
    DeleteOne,
    DocumentStoreClient,
    InsertOne,
    ObjectId,
    RecoveryError,
    UpdateMany,
    document_size,
)
from repro.documentstore.bson import decode_document, encode_document
from repro.documentstore.recovery import snapshot_path, wal_path
from repro.documentstore.wal import encode_record, read_log

OID = ObjectId("5f1d7c0a9b1e8a3c4d5e6f70")


def rows(first: int, last: int) -> list[dict]:
    """Documents of every value kind the codec carries, int and float kept apart."""
    return [
        {
            "_id": i,
            "n": i,
            "x": float(i),
            "s": f"s{i % 3}",
            "tags": [i % 2, "t", None] if i % 2 else [],
            "sub": {
                "day": datetime.date(2002, 1, 1 + i % 28),
                "at": datetime.datetime(2003, 1, 2, 3, i % 60),
            },
            "rows": [{"k": i, "v": [1.5, {"deep": True}]}],
            "blob": bytes([i % 256]),
            "ref": OID,
        }
        for i in range(first, last)
    ]


def image(client: DocumentStoreClient) -> dict:
    """Every collection's documents by ``_id``, index specs and stored sizes."""
    result = {}
    for database_name in client.list_database_names():
        database = client[database_name]
        for collection_name in database.list_collection_names():
            collection = database[collection_name]
            documents = {document["_id"]: document for document in collection.find({})}
            result[database_name, collection_name] = {
                "documents": documents,
                "indexes": collection.list_indexes(),
                "sizes": {key: document_size(value) for key, value in documents.items()},
            }
    return result


def reopened_image(data_dir) -> dict:
    with DocumentStoreClient(data_dir=data_dir) as client:
        return image(client)


def write_and_close(data_dir, *steps) -> dict:
    """Run *steps* against a durable client; the image just before ``close()``."""
    with DocumentStoreClient(data_dir=data_dir, fsync="always") as client:
        for step in steps:
            step(client)
        return image(client)


def load(client):
    client.db.c.insert_many(rows(0, 40))
    client.db.c.create_index("s")
    client.db.c.create_index([("sub.day", 1), ("n", -1)])
    client.db.other.insert_many([{"_id": f"k{i}", "v": i} for i in range(5)])


def change(client):
    client.db.c.update_many({"n": {"$lt": 5}}, {"$set": {"x": 2}, "$inc": {"n": 100}})
    client.db.c.delete_many({"n": {"$gte": 30, "$lt": 35}})
    client.db.c.insert_many(rows(40, 50))


def checkpoint(client):
    client.checkpoint()


def batch(client):
    client.db.c.bulk_write(
        [
            InsertOne({"_id": 100, "n": 1.0, "tags": [1, 1.0]}),
            UpdateMany({"s": "s1"}, {"$set": {"flag": True}}),
            DeleteOne({"_id": 7}),
            InsertOne({"_id": 101, "sub": {"day": datetime.date(2010, 5, 5)}}),
        ]
    )


def assert_images_equal(before: dict, after: dict) -> None:
    assert after.keys() == before.keys()
    for namespace, expected in before.items():
        assert after[namespace]["indexes"] == expected["indexes"], namespace
        assert after[namespace]["documents"] == expected["documents"], namespace
        assert after[namespace]["sizes"] == expected["sizes"], namespace


class TestTheReopenedStoreIsTheClosedOne:
    def test_wal_only(self, tmp_path):
        before = write_and_close(tmp_path, load, change)
        assert not list(tmp_path.glob("snapshot-*"))
        assert_images_equal(before, reopened_image(tmp_path))

    def test_snapshot_only(self, tmp_path):
        before = write_and_close(tmp_path, load, change, checkpoint)
        assert read_log(wal_path(tmp_path, 1))[0] == []
        assert_images_equal(before, reopened_image(tmp_path))

    def test_snapshot_and_wal(self, tmp_path):
        before = write_and_close(tmp_path, load, checkpoint, change)
        assert snapshot_path(tmp_path, 1).exists() and read_log(wal_path(tmp_path, 1))[0]
        assert_images_equal(before, reopened_image(tmp_path))

    def test_a_bulk_write_batch_record(self, tmp_path):
        before = write_and_close(tmp_path, load, batch)
        ops = [decode_document(payload)["op"] for payload in read_log(wal_path(tmp_path, 0))[0]]
        assert ops[-1] == "batch"
        assert_images_equal(before, reopened_image(tmp_path))

    def test_a_checkpoint_raced_duplicate_batch(self, tmp_path):
        # The snapshot already holds documents 0..39 and the WAL inserts
        # 40..49; a batch logged again across the checkpoint re-inserts
        # 30..44 (on top of the snapshot and of the record before it).
        before = write_and_close(
            tmp_path, load, checkpoint, lambda c: c.db.c.insert_many(rows(40, 50))
        )
        raced = {"op": "insert", "db": "db", "coll": "c", "docs": rows(30, 45)}
        with wal_path(tmp_path, 1).open("ab") as handle:
            handle.write(encode_record(encode_document(raced)))
        after = reopened_image(tmp_path)
        assert_images_equal(before, after)
        # And the store is usable: replay left no half-built index behind.
        with DocumentStoreClient(data_dir=tmp_path) as client:
            assert client.db.c.count_documents({"s": "s1"}) == len(range(1, 50, 3))


def rewrite_document_line(path, old_id: int, replacement: bytes) -> None:
    """Replace the snapshot line of the document with ``_id`` *old_id*."""
    lines = path.read_bytes().split(b"\n")
    target = encode_document(next(d for d in rows(0, 40) if d["_id"] == old_id))
    assert target in lines
    path.write_bytes(b"\n".join(replacement if line == target else line for line in lines))


class TestRecoveryChecksTheStructureOfWhatItStores:
    @pytest.mark.parametrize(
        "line",
        [b"[1, 2]", b"5", b'"text"', b"null", b'{"n": 3, "s": "no id"}'],
        ids=["array", "number", "string", "null", "no-id"],
    )
    def test_a_snapshot_line_that_is_not_a_document_with_an_id(self, tmp_path, line):
        write_and_close(tmp_path, lambda c: c.db.c.insert_many(rows(0, 40)), checkpoint)
        snapshot = snapshot_path(tmp_path, 1)
        rewrite_document_line(snapshot, 17, line)
        with pytest.raises(RecoveryError, match="where a document with an _id belongs") as raised:
            DocumentStoreClient(data_dir=tmp_path)
        assert str(snapshot) in str(raised.value)

    @pytest.mark.parametrize(
        "document", [[1, 2], 5, {"n": 3}], ids=["array", "number", "no-id"]
    )
    def test_a_logged_document_that_is_not_a_document_with_an_id(self, tmp_path, document):
        write_and_close(tmp_path, lambda c: c.db.c.insert_many(rows(0, 3)))
        record = {"op": "insert", "db": "db", "coll": "c", "docs": [{"_id": 9}, document]}
        segment = wal_path(tmp_path, 0)
        with segment.open("ab") as handle:
            handle.write(encode_record(encode_document(record)))
        with pytest.raises(RecoveryError, match="where a document with an _id belongs") as raised:
            DocumentStoreClient(data_dir=tmp_path)
        assert str(segment) in str(raised.value) and "db.c" in str(raised.value)

    def test_a_snapshot_cut_inside_a_collection_is_corrupt(self, tmp_path):
        write_and_close(tmp_path, lambda c: c.db.c.insert_many(rows(0, 40)), checkpoint)
        snapshot = snapshot_path(tmp_path, 1)
        lines = snapshot.read_bytes().split(b"\n")
        snapshot.write_bytes(b"\n".join(lines[:10]) + b"\n")
        with pytest.raises(RecoveryError, match="missing its end footer"):
            DocumentStoreClient(data_dir=tmp_path)

    def test_a_snapshot_with_a_line_too_many_is_corrupt(self, tmp_path):
        write_and_close(tmp_path, lambda c: c.db.c.insert_many(rows(0, 40)), checkpoint)
        snapshot = snapshot_path(tmp_path, 1)
        lines = snapshot.read_bytes().split(b"\n")
        lines.insert(5, encode_document({"_id": 1000}))
        snapshot.write_bytes(b"\n".join(lines))
        with pytest.raises(RecoveryError, match="unexpected section"):
            DocumentStoreClient(data_dir=tmp_path)
