"""Vector indexes through the durability stack: WAL replay, snapshots, dumps."""

from __future__ import annotations

import pytest

from repro.documentstore import DocumentStoreClient, dump_database, load_database
from repro.documentstore.errors import RecoveryError
from repro.documentstore.recovery import apply_record

DIMS = 3

VECTOR_SPEC = {"keys": ["embedding"], "type": "vector", "dims": DIMS, "metric": "l2"}

DOCS = [
    {"_id": i, "embedding": [float(i), float(i % 4), float(i % 6)], "tenant": i % 2}
    for i in range(30)
]

QUERY = [7.0, 3.0, 1.0]

PIPELINE = [{"$vectorSearch": {"queryVector": QUERY, "k": 5}}]


def make_client(tmp_path, **kwargs):
    return DocumentStoreClient(data_dir=tmp_path / "data", **kwargs)


class TestVectorDurability:
    def test_vector_index_survives_wal_replay(self, tmp_path):
        with make_client(tmp_path, fsync="always") as client:
            chunks = client.rag.chunks
            chunks.insert_many(DOCS)
            chunks.create_index(VECTOR_SPEC)
            expected = chunks.aggregate(PIPELINE)

        # No checkpoint ran: reopening replays the DDL from the WAL.
        with make_client(tmp_path) as client:
            chunks = client.rag.chunks
            spec = {s["name"]: s for s in chunks.list_indexes()}["embedding_vector"]
            assert spec["type"] == "vector"
            assert spec["dims"] == DIMS
            assert spec["metric"] == "l2"
            assert chunks.aggregate(PIPELINE) == expected

    def test_vector_index_survives_snapshot_restore(self, tmp_path):
        with make_client(tmp_path, fsync="always") as client:
            chunks = client.rag.chunks
            chunks.insert_many(DOCS)
            chunks.create_index(VECTOR_SPEC)
            expected = chunks.aggregate(PIPELINE)
            client.checkpoint()  # spec must round-trip through the manifest

        with make_client(tmp_path) as client:
            chunks = client.rag.chunks
            assert chunks.aggregate(PIPELINE) == expected
            # Post-restore maintenance still lands in the rebuilt index.
            probe = [250.0, 250.0, 250.0]
            chunks.insert_one({"_id": 999, "embedding": probe})
            top = chunks.aggregate([{"$vectorSearch": {"queryVector": probe, "k": 1}}])
            assert top[0]["_id"] == 999

    def test_btree_unique_index_spec_round_trips(self, tmp_path):
        with make_client(tmp_path, fsync="always") as client:
            chunks = client.rag.chunks
            chunks.insert_many(DOCS)
            chunks.create_index(
                {"keys": [["tenant", 1], ["_id", -1]], "unique": True, "name": "by_tenant"}
            )
            client.checkpoint()

        with make_client(tmp_path) as client:
            spec = {s["name"]: s for s in client.rag.chunks.list_indexes()}["by_tenant"]
            assert spec["keys"] == [["tenant", 1], ["_id", -1]]
            assert spec["unique"] is True

    def test_legacy_wal_record_shape_is_refused(self):
        # Records written before structured specs carried keys/unique/name; no
        # tracked fixture holds one (test_bson.py's golden segment carries a spec).
        client = DocumentStoreClient()
        client.db.items.insert_many([{"_id": 1, "n": 1}])
        legacy = {
            "op": "create_index",
            "db": "db",
            "coll": "items",
            "keys": [["n", 1]],
            "unique": True,
            "name": "legacy_n",
        }
        with pytest.raises(RecoveryError, match="without a structured spec"):
            apply_record(client, legacy)
        assert "legacy_n" not in client.db.items.index_information()

    def test_dump_and_load_carry_vector_specs(self, tmp_path):
        source = DocumentStoreClient()
        source.rag.chunks.insert_many(DOCS)
        source.rag.chunks.create_index(VECTOR_SPEC)
        expected = source.rag.chunks.aggregate(PIPELINE)
        dump_database(source.rag, tmp_path / "dump")

        target = DocumentStoreClient()
        load_database(target.rag, tmp_path / "dump")
        spec = {s["name"]: s for s in target.rag.chunks.list_indexes()}[
            "embedding_vector"
        ]
        assert spec["type"] == "vector"
        assert target.rag.chunks.aggregate(PIPELINE) == expected
