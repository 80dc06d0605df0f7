"""Tests for single-pass batch routing of inserts through the query router."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.documentstore import (
    ChunkSplitError,
    Collection,
    DocumentStoreError,
    DuplicateKeyError,
    InsertOne,
    ShardKeyError,
)
from repro.documentstore.bson import MAX_DOCUMENT_SIZE
from repro.sharding import ShardedCluster
from repro.sharding.chunks import ChunkManager, ShardKeyPattern


def make_cluster(shard_key) -> ShardedCluster:
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    cluster.shard_collection("db", "items", shard_key)
    return cluster


def documents(count: int = 240) -> list[dict]:
    return [{"_id": i, "k": i, "store": i % 9, "pad": "x" * 32} for i in range(count)]


class TestBatchRoutingParity:
    @pytest.mark.parametrize(
        "shard_key", [{"k": "hashed"}, {"k": 1}], ids=["hashed", "range"]
    )
    def test_sharded_load_matches_standalone(self, shard_key):
        cluster = make_cluster(shard_key)
        routed = cluster.get_database("db")["items"]
        routed.insert_many(documents())

        standalone = Collection(None, "items")
        standalone.insert_many(documents())

        routed_docs = sorted(routed.find({}).to_list(), key=lambda d: d["_id"])
        local_docs = sorted(standalone.find({}).to_list(), key=lambda d: d["_id"])
        assert routed_docs == local_docs

    def test_inserted_ids_preserve_batch_order(self):
        cluster = make_cluster({"k": "hashed"})
        routed = cluster.get_database("db")["items"]
        result = routed.insert_many(documents(50))
        assert result.inserted_ids == list(range(50))

    def test_router_matches_chunk_for(self):
        manager = ChunkManager(
            "db.items", ShardKeyPattern.create({"k": "hashed"}), ["s1", "s2", "s3"]
        )
        route = manager.router()
        for i in range(300):
            value, chunk = route({"k": i})
            assert value == manager.shard_key.routing_value(i)
            assert manager.chunk_for(value) is chunk

    def test_router_after_splits_and_migrations(self):
        manager = ChunkManager(
            "db.items",
            ShardKeyPattern.create({"k": 1}),
            ["s1", "s2"],
            chunk_size_bytes=500,
        )
        for i in range(200):
            manager.record_insert(i, 50)
        manager.move_chunk(manager.chunks[0], "s2")
        route = manager.router()
        for value in range(0, 200, 7):
            assert route({"k": value}) == (value, manager.chunk_for(value))


class TestSingleFanOut:
    def test_one_operation_and_one_shipment_per_shard(self):
        cluster = make_cluster({"k": "hashed"})
        cluster.reset_metrics()
        routed = cluster.get_database("db")["items"]
        routed.insert_many(documents(120))
        metrics = cluster.router.metrics
        # One routed operation for the whole batch (not one per shard).
        assert metrics.operations == 1
        assert metrics.shards_contacted == cluster.shard_count
        # One document shipment per contacted shard.
        by_purpose = cluster.network.stats.by_purpose
        shipments = by_purpose.get("insert:request", 0)
        # Each shard receives one batch message plus one command envelope.
        assert shipments == 2 * cluster.shard_count
        assert by_purpose.get("insert:ack", 0) == cluster.shard_count

    def test_unsharded_batch_is_one_targeted_operation(self):
        cluster = ShardedCluster(shard_count=3)
        cluster.enable_sharding("plain")
        cluster.reset_metrics()
        collection = cluster.get_database("plain")["events"]
        collection.insert_many([{"n": i} for i in range(25)])
        metrics = cluster.router.metrics
        assert metrics.operations == 1
        assert metrics.targeted_operations == 1
        assert metrics.shards_contacted == 1


class TestChunkAccounting:
    def test_chunk_statistics_recorded_after_ack(self):
        cluster = make_cluster({"k": 1})
        routed = cluster.get_database("db")["items"]
        routed.insert_many(documents(100))
        manager = cluster.config_server.chunk_manager("db", "items")
        assert sum(chunk.document_count for chunk in manager.chunks) == 100
        assert sum(chunk.size_bytes for chunk in manager.chunks) > 0

    def test_failed_insert_does_not_skew_chunk_statistics(self):
        # Regression: chunk sizes used to be recorded while routing, before
        # the shard executed the insert, so a failed insert permanently
        # inflated the chunk table (and misled the balancer).
        cluster = make_cluster({"k": 1})
        routed = cluster.get_database("db")["items"]
        routed.insert_many(documents(20))
        manager = cluster.config_server.chunk_manager("db", "items")
        counts_before = [chunk.document_count for chunk in manager.chunks]
        sizes_before = [chunk.size_bytes for chunk in manager.chunks]
        with pytest.raises(DuplicateKeyError):
            routed.insert_many([{"_id": 5, "k": 5}])  # duplicate _id on the shard
        assert [chunk.document_count for chunk in manager.chunks] == counts_before
        assert [chunk.size_bytes for chunk in manager.chunks] == sizes_before

    def test_oversized_batch_splits_chunks_recursively(self):
        cluster = ShardedCluster(shard_count=2)
        cluster.enable_sharding("db")
        cluster.shard_collection("db", "items", {"k": 1}, chunk_size_bytes=2_000)
        routed = cluster.get_database("db")["items"]
        routed.insert_many(documents(240))  # ~70 bytes each, far beyond one chunk
        manager = cluster.config_server.chunk_manager("db", "items")
        assert len(manager.chunks) > 2
        assert all(
            chunk.size_bytes <= 2_000 or chunk.jumbo for chunk in manager.chunks
        )
        # The split chunks still cover the whole key space contiguously.
        for left, right in zip(manager.chunks, manager.chunks[1:]):
            assert left.upper is right.lower or left.upper == right.lower

    def test_shard_key_missing_rejects_batch_before_recording(self):
        cluster = make_cluster({"k": 1})
        routed = cluster.get_database("db")["items"]
        from repro.documentstore import ShardKeyError

        with pytest.raises(ShardKeyError):
            routed.insert_many([{"k": 1}, {"no_key": True}])
        manager = cluster.config_server.chunk_manager("db", "items")
        assert sum(chunk.document_count for chunk in manager.chunks) == 0


#: One document a stand-alone ``insert_many`` refuses, with the rest of its batch.
INVALID_DOCUMENTS = {
    "dotted key": {"k": 99, "a.b": 1},
    "dollar key": {"k": 99, "$bad": 1},
    "non-str key": {"k": 99, 5: 1},
    "over 16 MB": {"k": 99, "pad": "x" * MAX_DOCUMENT_SIZE},
}


def refusal(collection, batch) -> type:
    with pytest.raises(DocumentStoreError) as refused:
        collection.insert_many(batch)
    return type(refused.value)


@pytest.mark.parametrize("invalid", sorted(INVALID_DOCUMENTS))
@pytest.mark.parametrize(
    "shard_key", [{"k": "hashed"}, {"k": 1}, None], ids=["hashed", "ranged", "unsharded"]
)
def test_an_invalid_document_stores_no_slice_of_its_batch(shard_key, invalid):
    """Routed == stand-alone: the same refusal, nothing stored, the chunk table unchanged.

    The batch spans every shard, so a shard-side check alone would store the
    other shards' slices (10 of 20 documents on a hashed key).
    """
    batch = [{"_id": i, "k": i} for i in range(20)] + [INVALID_DOCUMENTS[invalid]]
    standalone = Collection(None, "items")
    expected = refusal(standalone, batch)
    assert len(standalone) == 0

    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    if shard_key is not None:
        cluster.shard_collection("db", "items", shard_key, chunk_size_bytes=600)
    routed = cluster.get_database("db")["items"]
    routed.insert_many([{"_id": -i - 1, "k": i} for i in range(40)])  # split the table first
    cluster.balance()
    manager = cluster.config_server.chunk_manager("db", "items") if shard_key else None
    chunks = lambda: [(c.document_count, c.size_bytes) for c in getattr(manager, "chunks", ())]  # noqa: E731
    before = chunks()
    assert refusal(routed, batch) is expected
    assert routed.count_documents({}) == 40
    assert sum(len(shard.collection("db", "items")) for shard in cluster.shards) == 40
    assert chunks() == before
    cluster.close()


# --------------------------------------------------------------------------
# Reference: routing a batch is routing each document on its own.
# --------------------------------------------------------------------------

_MISSING = object()

#: Shard-key values of every kind a document may carry, equal ones included.
KEY_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([1.0, -0.0, 0.0, 2.5, float("nan"), float("inf"), True, False, None]),
    st.sampled_from(["a", "b", "1"]),
    st.sampled_from([datetime.date(2000, 1, 2), datetime.datetime(2000, 1, 2)]),
    st.just(_MISSING),
)

#: Shard keys: hashed and ranged top-level fields, a dotted path, a compound key.
PATTERNS = [{"k": "hashed"}, {"k": 1}, {"a.k": 1}, {"a.k": "hashed"}, {"k": 1, "j": 1}]


def keyed_document(field_path: str, value: object, position: int) -> dict:
    document: dict = {"_id": position, "j": position % 2}
    if value is not _MISSING:
        head, _, rest = field_path.partition(".")
        document[head] = {rest: value} if rest else value
    return document


def chunk_table(pattern: dict, split_values: list) -> ChunkManager:
    """A chunk table split at *split_values* (ranged) or pre-split (hashed)."""
    manager = ChunkManager(
        "db.items", ShardKeyPattern.create(pattern), ["s1", "s2", "s3"], chunk_size_bytes=10**9
    )
    for value in split_values:
        for chunk in list(manager.chunks):
            try:
                manager.split_chunk(chunk, value)
            except ChunkSplitError:
                continue
    for index, chunk in enumerate(manager.chunks):
        manager.move_chunk(chunk, f"s{index % 3 + 1}")
    return manager


def reference_route(manager: ChunkManager, document: dict):
    value = manager.shard_key.extract(document)
    return value, manager.chunk_for(value)


def outcome(route, document):
    """(routing value as its repr, chunk id) or the error raised, with its message."""
    try:
        value, chunk = route(document)
    except ShardKeyError as error:
        return "error", str(error)
    return repr(value), id(chunk)


@settings(max_examples=200, deadline=None)
@given(
    pattern=st.sampled_from(PATTERNS),
    keys=st.lists(KEY_VALUES, max_size=40),
    splits=st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([0.5, "a", "b"])), max_size=4),
)
def test_batch_routing_equals_routing_each_document(pattern, keys, splits):
    manager = chunk_table(pattern, splits)
    field_path = next(iter(pattern))
    documents = [keyed_document(field_path, value, i) for i, value in enumerate(keys)]
    route = manager.router()
    for document in documents:
        expected = outcome(lambda doc: reference_route(manager, doc), document)
        assert outcome(route, document) == expected, document


@pytest.mark.parametrize("shard_key", [{"k": "hashed"}, {"k": 1}], ids=["hashed", "range"])
def test_bulk_write_inserts_route_as_insert_many_does(shard_key):
    keys = [i % 7 for i in range(60)] + [1.0, -0.0, "a", "b", datetime.datetime(2000, 1, 2)]
    placements, chunk_bytes = [], []
    for load in ("insert_many", "bulk_write"):
        cluster = ShardedCluster(shard_count=3)
        cluster.enable_sharding("db")
        cluster.shard_collection("db", "items", shard_key, chunk_size_bytes=600)
        routed = cluster.get_database("db")["items"]
        routed.insert_many([{"_id": -i - 1, "k": i} for i in range(40)])  # split the table first
        documents = [{"_id": i, "k": key, "pad": "x" * 20} for i, key in enumerate(keys)]
        if load == "insert_many":
            routed.insert_many(documents)
        else:
            routed.bulk_write([InsertOne(document) for document in documents])
        placements.append({
            shard.shard_id: sorted(d["_id"] for d in shard.collection("db", "items").find({}))
            for shard in cluster.shards
        })
        manager = cluster.config_server.chunk_manager("db", "items")
        chunk_bytes.append(sum(chunk.size_bytes for chunk in manager.chunks))
        cluster.close()
    assert placements[0] == placements[1]
    assert chunk_bytes[0] == chunk_bytes[1]  # the chunk table counts the same bytes
    assert sum(map(len, placements[0].values())) == 40 + len(keys)
