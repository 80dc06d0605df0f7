"""The 16 MB limit (paper Sec. 2.1.1) on the update path.

An operator update keeps the document's size by delta instead of walking the
new document, so the guard is checked here against a walked ``document_size``:
it must refuse the same step with the same size, a refused update must leave
documents, indexes and the WAL as they were, and all of it must hold again
after a WAL recovery, where every cached size is gone.
"""

from __future__ import annotations

import pytest

from repro.documentstore import DocumentStoreClient, DocumentTooLargeError
from repro.documentstore.bson import MAX_DOCUMENT_SIZE, document_size

SIX_MB = "x" * (6 * 1024 * 1024)
NINE_MB = "y" * (9 * 1024 * 1024)


def observed(client):
    """Everything a refused update must leave alone."""
    collection = client["db"]["t"]
    status = client.durability_status()
    return (
        sorted(collection.find({}).to_list(), key=lambda doc: doc["_id"]),
        [collection.find({"k": key}).explain()["queryPlanner"]["winningPlan"] for key in (1, 2)],
        [doc["_id"] for key in (1, 2) for doc in collection.find({"k": key})],
        collection.stats().size_bytes,
        status["records_appended"],
        status["wal"],
    )


def refused(client, query, update, expected_size):
    before = observed(client)
    with pytest.raises(DocumentTooLargeError) as excinfo:
        client["db"]["t"].update_many(query, update)
    assert (excinfo.value.size, excinfo.value.limit) == (expected_size, MAX_DOCUMENT_SIZE)
    assert observed(client) == before


def test_repeated_push_is_refused_at_the_step_a_walk_refuses(tmp_path):
    mirror = {"_id": 1, "k": 1, "chunks": []}
    with DocumentStoreClient(data_dir=tmp_path, fsync="off") as client:
        collection = client["db"]["t"]
        collection.create_index("k")
        collection.insert_one(mirror)
        for step in range(4):
            grown = {**mirror, "chunks": mirror["chunks"] + [SIX_MB]}
            if document_size(grown) > MAX_DOCUMENT_SIZE:
                break
            collection.update_one({"k": 1}, {"$push": {"chunks": SIX_MB}})
            mirror = grown
        assert step == 2  # two chunks fit, the third does not
        refused(client, {"k": 1}, {"$push": {"chunks": SIX_MB}}, document_size(grown))
    with DocumentStoreClient(data_dir=tmp_path, fsync="off") as client:
        collection = client["db"]["t"]
        assert collection.find_one({"k": 1}) == mirror
        refused(client, {"k": 1}, {"$push": {"chunks": SIX_MB}}, document_size(grown))
        collection.update_one({"k": 1}, {"$push": {"chunks": "small"}})
        mirror["chunks"].append("small")
        assert collection.stats().size_bytes == document_size(mirror)


def test_one_large_shared_value_is_refused_for_every_document_it_matches(tmp_path):
    mirrors = [{"_id": key, "k": key} for key in (1, 2)]
    with DocumentStoreClient(data_dir=tmp_path, fsync="off") as client:
        collection = client["db"]["t"]
        collection.create_index("k")
        collection.insert_many(mirrors)
        assert collection.update_many({}, {"$set": {"a": {"v": NINE_MB}}}).modified_count == 2
        mirrors = [{**mirror, "a": {"v": NINE_MB}} for mirror in mirrors]
        too_large = document_size({**mirrors[0], "b": {"v": NINE_MB}})
        assert too_large > MAX_DOCUMENT_SIZE
        refused(client, {}, {"$set": {"b": {"v": NINE_MB}}}, too_large)
    with DocumentStoreClient(data_dir=tmp_path, fsync="off") as client:
        collection = client["db"]["t"]
        assert observed(client)[0] == mirrors
        refused(client, {}, {"$set": {"b": {"v": NINE_MB}}}, too_large)
        # Replacing the large value (not adding to it) still fits.
        assert collection.update_many({}, {"$set": {"a": {"v": SIX_MB}}}).modified_count == 2
        shrunk = document_size({**mirrors[0], "a": {"v": SIX_MB}})
        assert collection.stats().size_bytes == 2 * shrunk
