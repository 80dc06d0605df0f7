"""``bulk_write`` means "issue these operations one at a time" on every surface.

For random operation lists over a small key space — every operation kind,
upserts, duplicate-``_id`` inserts and ``_id``-mutating updates landing at
random indexes — ``bulk_write(ops, ordered=...)`` must leave exactly the
state, return exactly the summed counts and report exactly the failing
indexes, codes and messages of applying the same operations through ``insert_one`` /
``update_one`` / ``update_many`` / ``delete_one`` / ``delete_many``: on a
stand-alone collection indexed on ``k`` and ``(v, k)``, on a hashed and on an
unsharded collection of a 3-shard cluster, on a hashed collection of a
1-shard cluster (where a broadcast and a targeted operation both reach one
shard), and on a served collection.  The one-at-a-time reference below is
written against the public single-operation methods only.  A second property
draws batches that mostly match nothing — refused payloads, flat dimension
rows and keys that are not strings among them — and also compares, per
collection that ran a batch, the ``operation_counters`` the batch moved.
"""

from __future__ import annotations

import contextlib
import inspect
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.documentstore import (
    BulkWriteError,
    BulkWriteResult,
    Collection,
    DeleteMany,
    DeleteOne,
    DocumentStoreClient,
    DocumentStoreError,
    InsertOne,
    OperationFailure,
    UpdateMany,
    UpdateOne,
)
from repro.server import DocumentStoreServer, RemoteClient
from repro.server.client import RemoteCollection
from repro.sharding import ShardedCluster
from repro.sharding.router import RoutedCollection

KEYS = st.integers(min_value=0, max_value=5)
VALUES = st.integers(min_value=0, max_value=2)


def document(key: int, value: int) -> dict:
    # ``_id`` and the shard key ``k`` always agree, so a duplicate ``_id``
    # meets its twin on the same shard, as it does stand-alone.
    return {"_id": key, "k": key, "v": value}


#: Update documents: a plain ``$set``/``$inc`` or one that tries to move ``_id``.
UPDATES = st.one_of(
    st.builds(lambda v: {"$set": {"v": v}}, VALUES),
    st.just({"$inc": {"n": 1}}),
    st.just({"$set": {"_id": 99}}),
)
#: Filters matching at most one document: by shard key (one shard) or by
#: ``_id`` alone (every shard of the hashed collection: a multi-shard ``*One``).
POINT_FILTERS = st.one_of(
    st.builds(lambda k: {"k": k}, KEYS), st.builds(lambda k: {"_id": k}, KEYS)
)
#: Filters matching any number of documents: fan out on the hashed collection.
WIDE_FILTERS = st.one_of(
    st.builds(lambda v: {"v": v}, VALUES),
    st.builds(lambda a, b: {"k": {"$in": [a, b]}}, KEYS, KEYS),
    st.builds(lambda k: {"k": k}, KEYS),
)
#: Upsert filters name ``_id`` and ``k``, so the seeded document is the same everywhere.
UPSERT_FILTERS = st.builds(lambda k: {"_id": k, "k": k}, KEYS)
PLAIN_UPDATES = st.builds(lambda v: {"$set": {"v": v}}, VALUES)

OPERATIONS = st.one_of(
    st.builds(lambda k, v: InsertOne(document(k, v)), KEYS, VALUES),
    st.builds(UpdateOne, POINT_FILTERS, UPDATES),
    st.builds(UpdateMany, WIDE_FILTERS, UPDATES),
    st.builds(UpdateOne, UPSERT_FILTERS, PLAIN_UPDATES, st.just(True)),
    st.builds(UpdateMany, UPSERT_FILTERS, PLAIN_UPDATES, st.just(True)),
    st.builds(DeleteOne, POINT_FILTERS),
    st.builds(DeleteMany, WIDE_FILTERS),
)


#: Keys and values no seeded document has: most of these operations match nothing.
MISSING_KEYS = st.integers(min_value=6, max_value=9)
MISSING_VALUES = st.integers(min_value=3, max_value=5)
#: A flat dimension row, the payload the validation kernel proves valid in C,
#: and the same row with one key the kernel must hand to the walk to refuse.
ROW = {"d_date_sk": 7, "d_date_id": "AAAA7", "d_year": 1998, "d_holiday": "N", "d_rate": 0.5}
#: Payloads a zero-match operation must still be checked against (and one it need not be).
ODD_UPDATES = st.sampled_from(
    [
        {"$set": {"a.b": 1}},
        {"$set": {"x": {"$y": 1}}},
        {"$nope": {}},
        {"$set": {"_id": 99}},
        {"$set": {"d": ROW}},
        {"$set": {"d": {**ROW, "d.x": 1}}},
        {"$set": {"d": {**ROW, "$x": 1}}},
        {"$set": {"$x": 1}},
        {"$set": {"": 1}},
        {"$set": {"a..b": 1}},
        {"$inc": {"v": "x"}},
        {"$inc": {"v": True}},
    ]
)
#: Keys that are not strings: refused on every surface (the served client
#: refuses them before its wire codec would turn them into strings).
NON_STRING_KEYS = st.sampled_from([{1: 2}, {"$set": {1: 2}}, {"$inc": {3: 1}}])
MISS_UPDATES = st.one_of(UPDATES, ODD_UPDATES, NON_STRING_KEYS)
MISS_FILTERS = st.one_of(
    st.builds(lambda k: {"k": k}, MISSING_KEYS),
    st.builds(lambda k: {"_id": k}, MISSING_KEYS),
    st.builds(lambda k, v: {"k": k, "v": v}, KEYS, MISSING_VALUES),
    st.builds(lambda v: {"v": v}, MISSING_VALUES),
    st.builds(lambda k: {"k": k, "$where": 1}, MISSING_KEYS),  # refused: not an operator
)
MOSTLY_MISSING = st.one_of(
    st.builds(UpdateMany, MISS_FILTERS, MISS_UPDATES),
    st.builds(UpdateOne, MISS_FILTERS, MISS_UPDATES),
    st.builds(UpdateOne, MISS_FILTERS, st.just({"v": 0})),  # a replacement
    st.builds(UpdateMany, MISS_FILTERS, st.just({"v": 0})),  # refused: not operators
    st.builds(DeleteOne, MISS_FILTERS),
    st.builds(DeleteMany, MISS_FILTERS),
    OPERATIONS,  # now and then one that matches, inserts or upserts
)


@pytest.fixture(scope="module")
def surfaces():
    """name -> (collection for ``bulk_write``, collection for the reference)."""
    standalone = DocumentStoreClient()["db"]
    for name in ("bulk", "ref"):
        standalone[name].create_index("k")
        standalone[name].create_index([("v", 1), ("k", 1)])
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    for name in ("hashed_bulk", "hashed_ref", "served_bulk", "served_ref"):
        cluster.shard_collection("db", name, {"k": "hashed"})
    routed = cluster.get_database("db")
    lone = ShardedCluster(shard_count=1)
    for name in ("lone_bulk", "lone_ref"):
        lone.shard_collection("db", name, {"k": "hashed"})
    with DocumentStoreServer(cluster, port=0) as server, RemoteClient(server.address) as client:
        yield {
            "standalone": (standalone["bulk"], standalone["ref"]),
            "hashed": (routed["hashed_bulk"], routed["hashed_ref"]),
            "unsharded": (routed["plain_bulk"], routed["plain_ref"]),
            "one_shard": (lone["db"]["lone_bulk"], lone["db"]["lone_ref"]),
            "served": (client["db"]["served_bulk"], client["db"]["served_ref"]),
        }
    cluster.close()
    lone.close()


def one_at_a_time(collection, operations, ordered):
    """(counts, upserted ids, {failing index: error code}) of the plain methods."""
    counts = {"inserted": 0, "matched": 0, "modified": 0, "deleted": 0}
    upserted, failures = {}, {}
    for index, operation in enumerate(operations):
        try:
            if isinstance(operation, InsertOne):
                collection.insert_one(operation.document)
                counts["inserted"] += 1
            elif isinstance(operation, (UpdateOne, UpdateMany)):
                method = (
                    collection.update_one
                    if isinstance(operation, UpdateOne)
                    else collection.update_many
                )
                outcome = method(operation.filter, operation.update, upsert=operation.upsert)
                counts["matched"] += outcome.matched_count
                counts["modified"] += outcome.modified_count
                if outcome.upserted_id is not None:
                    upserted[index] = outcome.upserted_id
            elif isinstance(operation, DeleteOne):
                counts["deleted"] += collection.delete_one(operation.filter).deleted_count
            else:
                counts["deleted"] += collection.delete_many(operation.filter).deleted_count
        except DocumentStoreError as error:
            failures[index] = (type(error).__name__, str(error))
            if ordered:
                break
    return counts, upserted, failures


def via_bulk_write(collection, operations, ordered):
    """The same triple, from ``bulk_write``'s result or error."""
    try:
        result, errors = collection.bulk_write(operations, ordered=ordered), []
    except BulkWriteError as error:
        result, errors = error.result, error.errors
        assert error.index == errors[0]["index"]
        assert [entry["index"] for entry in errors] == sorted(entry["index"] for entry in errors)
    counts = {
        "inserted": result.inserted_count,
        "matched": result.matched_count,
        "modified": result.modified_count,
        "deleted": result.deleted_count,
    }
    failures = {entry["index"]: (entry["code"], entry["message"]) for entry in errors}
    return counts, result.upserted_ids, failures


def state(collection):
    return sorted(collection.find({}).to_list(), key=lambda doc: doc["_id"])


@given(
    seed=st.lists(st.tuples(KEYS, VALUES), max_size=6, unique_by=lambda pair: pair[0]),
    operations=st.lists(OPERATIONS, max_size=12),
    ordered=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_bulk_write_is_the_operations_one_at_a_time(surfaces, seed, operations, ordered):
    seed_documents = [document(key, value) for key, value in seed]
    reference_state = None
    for name, (bulk, reference) in surfaces.items():
        for collection in (bulk, reference):
            collection.delete_many({})
            if seed_documents:
                collection.insert_many(seed_documents)
        expected = one_at_a_time(reference, operations, ordered)
        assert via_bulk_write(bulk, operations, ordered) == expected, name
        assert state(bulk) == state(reference), name
        if ordered and expected[2]:
            assert len(expected[2]) == 1  # stopped at the first failing index
        # ... and every surface agrees with the stand-alone collection.
        if reference_state is None:
            reference_state = state(reference)
        assert state(bulk) == reference_state, name


def test_ordered_stops_at_the_first_failure_on_every_shard(surfaces):
    bulk, _reference = surfaces["hashed"]
    bulk.delete_many({})
    bulk.insert_one(document(1, 0))
    operations = [InsertOne(document(key, 0)) for key in (0, 2, 1, 3, 4, 5)]
    with pytest.raises(BulkWriteError) as excinfo:
        bulk.bulk_write(operations)
    assert excinfo.value.index == 2
    assert excinfo.value.result.inserted_count == 2
    assert [entry["code"] for entry in excinfo.value.errors] == ["DuplicateKeyError"]
    assert [doc["_id"] for doc in state(bulk)] == [0, 1, 2]  # nothing after index 2, anywhere

    with pytest.raises(BulkWriteError) as excinfo:
        bulk.bulk_write(operations, ordered=False)
    assert [entry["index"] for entry in excinfo.value.errors] == [0, 1, 2]
    assert excinfo.value.result.inserted_count == 3
    assert [doc["_id"] for doc in state(bulk)] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("surface", ["hashed", "one_shard"])
def test_an_insert_without_its_shard_key_fails_in_its_position(surfaces, surface):
    bulk, _reference = surfaces[surface]
    bulk.delete_many({})
    operations = [InsertOne(document(0, 0)), InsertOne({"_id": 7}), InsertOne(document(1, 0))]
    with pytest.raises(BulkWriteError) as excinfo:
        bulk.bulk_write(operations)
    assert (excinfo.value.index, excinfo.value.errors[0]["code"]) == (1, "ShardKeyError")
    assert excinfo.value.result.inserted_count == 1
    assert [doc["_id"] for doc in state(bulk)] == [0]

    # Unordered, the others are stored (and counted in the chunk table) anyway.
    with pytest.raises(BulkWriteError) as excinfo:
        bulk.bulk_write(operations[1:] + [InsertOne(document(2, 0))], ordered=False)
    assert [(entry["index"], entry["code"]) for entry in excinfo.value.errors] == [
        (0, "ShardKeyError")
    ]
    assert excinfo.value.result.inserted_count == 2
    assert [doc["_id"] for doc in state(bulk)] == [0, 1, 2]


def test_an_empty_list_logs_nothing_and_sends_no_message(tmp_path):
    with DocumentStoreClient(data_dir=tmp_path / "standalone", fsync="always") as client:
        assert client["db"]["t"].bulk_write([]) == BulkWriteResult()
        assert client.durability_status()["records_appended"] == 0
    cluster = ShardedCluster(shard_count=3, data_dir=tmp_path / "cluster", fsync="always")
    try:
        cluster.shard_collection("db", "t", {"k": "hashed"})
        appended = [shard.durability_status()["records_appended"] for shard in cluster.shards]
        cluster.reset_metrics()
        with DocumentStoreServer(cluster, port=0) as server, RemoteClient(server.address) as client:
            assert client["db"]["t"].bulk_write([], ordered=False) == BulkWriteResult()
            assert server.stats.snapshot()["wire"]["frames_in"] == 0
        assert cluster.get_database("db")["t"].bulk_write([]) == BulkWriteResult()
        assert cluster.network.stats.messages == 0
        assert cluster.router.metrics.operations == 0
        assert appended == [shard.durability_status()["records_appended"] for shard in cluster.shards]
    finally:
        cluster.close()


def test_one_signature_and_one_set_of_types_on_three_surfaces(surfaces):
    signatures = {
        str(inspect.signature(cls.bulk_write))
        for cls in (Collection, RoutedCollection, RemoteCollection)
    }
    assert signatures == {
        "(self, operations: 'Iterable[Any]', *, ordered: 'bool' = True) -> 'BulkWriteResult'"
    }
    for name, (bulk, _reference) in surfaces.items():
        bulk.delete_many({})
        assert type(bulk.bulk_write([InsertOne(document(0, 0))])) is BulkWriteResult, name
        with pytest.raises(BulkWriteError) as excinfo:
            bulk.bulk_write([InsertOne(document(0, 0))])
        assert isinstance(excinfo.value, OperationFailure), name
        with pytest.raises(TypeError):
            bulk.bulk_write([{"insert_one": document(1, 0)}])


@contextlib.contextmanager
def counters_checked_one_at_a_time():
    """Yield ``(bulk, reference)`` counter changes of every ``Collection.bulk_write``.

    Stand-alone or on a shard, each call's ``operation_counters`` change is
    paired with the change its operations make, issued one at a time, on a
    copy of that collection (same indexes, same documents).  A routed
    collection's own reference cannot stand in here: its ``update_one``
    probes every target shard before it updates.
    """
    changes = []
    bulk_write = Collection.bulk_write

    def checked(self, operations, *, ordered=True):
        operations = list(operations)
        copy = Collection(None, self.name)
        for spec in self.list_indexes()[1:]:
            copy.create_index(spec)
        copy.insert_many(self.raw_documents())
        before = dict(self.operation_counters), dict(copy.operation_counters)
        one_at_a_time(copy, operations, ordered)
        try:
            return bulk_write(self, operations, ordered=ordered)
        finally:
            changes.append(tuple(
                {key: now[key] - then[key] for key in then}
                for now, then in zip((self.operation_counters, copy.operation_counters), before)
            ))

    with mock.patch.object(Collection, "bulk_write", checked):
        yield changes


@given(
    seed=st.lists(st.tuples(KEYS, VALUES), max_size=6, unique_by=lambda pair: pair[0]),
    operations=st.lists(MOSTLY_MISSING, max_size=16),
    ordered=st.booleans(),
)
@settings(max_examples=100, deadline=None)
@example(  # an invalid filter and an invalid update: the update is refused first, everywhere
    seed=[], operations=[UpdateOne({"k": 6, "$where": 1}, {"$set": {"x": {"$y": 1}}})], ordered=True
)
def test_a_batch_that_mostly_matches_nothing_is_the_operations_one_at_a_time(
    surfaces, seed, operations, ordered
):
    """Skipping what provably matches nothing changes no outcome and no counter.

    The same state, counts, failing indexes and codes as the one-at-a-time
    reference — refused payloads included — and every collection that ran a
    batch, stand-alone or shard, counted what the batch's operations count
    one at a time.
    """
    seed_documents = [document(key, value) for key, value in seed]
    for name, (bulk, reference) in surfaces.items():
        for collection in (bulk, reference):
            collection.delete_many({})
            if seed_documents:
                collection.insert_many(seed_documents)
        expected = one_at_a_time(reference, operations, ordered)
        with counters_checked_one_at_a_time() as changes:
            assert via_bulk_write(bulk, operations, ordered) == expected, name
        assert state(bulk) == state(reference), name
        assert len(changes) == 1 or name != "standalone"
        for bulk_change, reference_change in changes:
            assert bulk_change == reference_change, name


#: ``UpdateMany``s of one shape, ``{"$set": {"d": row}}``, most matching nothing:
#: each refused argument (a set, a dotted key, a ``$`` key) comes after its shape
#: was accepted, and a bad path of the same operator is a shape of its own.
SAME_SHAPE = [
    UpdateMany({"k": 6}, {"$set": {"d": {1, 2}}}),  # refused before the shape is known
    UpdateMany({"k": 7}, {"$set": {"d": ROW}}),
    UpdateMany({"k": 1}, {"$set": {"d": ROW}}),  # matches
    UpdateMany({"k": 8}, {"$set": {"d": {1, 2}}}),
    UpdateMany({"k": 9}, {"$set": {"d": {**ROW, "d.x": 1}}}),
    UpdateMany({"k": 6}, {"$set": {"d": {**ROW, "$x": 1}}}),
    UpdateMany({"k": 7}, {"$set": {"d.$x": ROW}}),  # a bad path
    UpdateMany({"k": 8}, {"$set": {"d": {"y": {"d": ROW}}}}),
    UpdateMany({"k": 9}, {"$set": {"d": ROW, "e": [ROW]}}),
    UpdateMany({"k": 6}, {"$set": {"d": ROW, "e": [{"$x": 1}]}}),
    UpdateMany({"k": 7}, {"$inc": {"n": 1}, "$set": {"e": {1}}}),
    UpdateMany({"k": 8}, {"$set": {"d.$x": {"y": 1}}}),  # the bad path again
]


@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
@pytest.mark.parametrize("start", range(len(SAME_SHAPE)))
def test_updates_of_one_shape_are_refused_as_their_calls_refuse_them(surfaces, ordered, start):
    """A batch checks each update shape once, then only the arguments of that shape.

    Results, failing indexes and codes, the stored state and every collection's
    ``operation_counters`` equal the operations issued one at a time.  Served,
    an operation the wire codec cannot encode (a set) is refused in its
    position, with the error the stand-alone collection gives it.
    """
    operations = SAME_SHAPE[start:] + SAME_SHAPE[:start]
    failures = {}
    for name, (bulk, reference) in surfaces.items():
        for collection in (bulk, reference):
            collection.delete_many({})
            collection.insert_many([document(key, 0) for key in range(6)])
        expected = one_at_a_time(reference, operations, ordered)
        assert expected[2], name  # something is refused
        failures[name] = expected[2]
        with counters_checked_one_at_a_time() as changes:
            assert via_bulk_write(bulk, operations, ordered) == expected, name
        assert state(bulk) == state(reference), name
        assert changes or name != "standalone"
        for bulk_change, reference_change in changes:
            assert bulk_change == reference_change, name
    assert failures["served"] == failures["standalone"]
