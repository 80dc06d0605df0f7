"""One call signature per operation, whichever surface it is called on.

``Collection``, ``RoutedCollection`` and ``RemoteCollection`` promise "the
same surface": a call that works on one must not raise ``TypeError`` on
another.  For every public method present on at least two of them the
parameter names, kinds and defaults must be identical.  What only one surface
offers, and the few parameters that are deliberately surface-specific, are
listed here with their reason — the list is the reference, so growing it is a
reviewed decision.
"""

from __future__ import annotations

import datetime
import inspect

import pytest

from repro.documentstore import (
    BulkWriteError,
    Collection,
    DocumentStoreClient,
    InsertOne,
    InvalidDocumentError,
    InvalidOperator,
    InvalidPipelineError,
    InvalidUpdateError,
    OperationFailure,
    UpdateMany,
    UpdateOne,
)
from repro.server import DocumentStoreServer, RemoteClient, RemoteCollection
from repro.sharding import RoutedCollection, ShardedCluster

SURFACES = (Collection, RoutedCollection, RemoteCollection)

#: Methods one surface alone offers.
SINGLE_SURFACE = {
    # Stand-alone storage-engine surface: local index builds, local statistics
    # and the shard-side entry points the router calls.
    "Collection": {
        "replace_one", "bulk_load", "rebuild_indexes", "stats", "index_information",
        "data_size", "index_size", "raw_documents", "execute_find",
        "execute_pipeline", "execute_insert",
    },
    "RoutedCollection": set(),
    "RemoteCollection": set(),
}

#: Parameters one surface adds to a shared method.
SURFACE_ONLY_PARAMETERS = {
    # A deferred build is a property of the local index structure.
    ("Collection", "create_index"): {"defer"},
    # Only a socket has a response batch size to choose (None = server default,
    # as in ``find``); in-process surfaces return the list they built.
    ("RemoteCollection", "aggregate"): {"batch_size"},
}


def public_methods(surface: type) -> dict[str, inspect.Signature]:
    return {
        name: inspect.signature(member)
        for name, member in inspect.getmembers(surface, inspect.isfunction)
        if not name.startswith("_")
    }


def shape(surface: type, name: str, signature: inspect.Signature) -> list[tuple]:
    """(name, kind, default) per parameter, annotations and allowed extras aside."""
    extras = SURFACE_ONLY_PARAMETERS.get((surface.__name__, name), set())
    return [
        (parameter.name, parameter.kind, parameter.default)
        for parameter in signature.parameters.values()
        if parameter.name not in extras
    ]


METHODS = {surface: public_methods(surface) for surface in SURFACES}
SHARED = sorted(
    name
    for name in set().union(*METHODS.values())
    if sum(name in methods for methods in METHODS.values()) >= 2
)


@pytest.mark.parametrize("name", SHARED)
def test_shared_method_has_one_signature(name):
    shapes = {
        surface.__name__: shape(surface, name, METHODS[surface][name])
        for surface in SURFACES
        if name in METHODS[surface]
    }
    reference = next(iter(shapes.values()))
    assert all(found == reference for found in shapes.values()), shapes


def test_every_shared_operation_is_on_all_three_surfaces():
    missing = {
        name: [surface.__name__ for surface in SURFACES if name not in METHODS[surface]]
        for name in SHARED
    }
    assert {name: where for name, where in missing.items() if where} == {}


@pytest.mark.parametrize("surface", SURFACES, ids=lambda surface: surface.__name__)
def test_single_surface_methods_are_the_listed_ones(surface):
    alone = {name for name in METHODS[surface] if name not in SHARED}
    assert alone == SINGLE_SURFACE[surface.__name__]


def test_the_allow_lists_name_real_things():
    for (surface_name, method), extras in SURFACE_ONLY_PARAMETERS.items():
        surface = next(s for s in SURFACES if s.__name__ == surface_name)
        assert extras <= set(METHODS[surface][method].parameters), (surface_name, method)


def test_the_front_half_is_stated_once():
    """``find``/``find_one``/``explain``/``full_name`` come from the shared base."""
    for name in ("find", "find_one", "explain", "full_name"):
        owners = {id(inspect.getattr_static(surface, name)) for surface in SURFACES}
        assert len(owners) == 1, name


# --------------------------------------------------------------------------
# The same calls, made: index DDL and refusals answer alike on every surface.
# --------------------------------------------------------------------------

ROWS = [{"_id": i, "k": i, "tenant": i % 3} for i in range(30)]


@pytest.fixture(scope="module")
def collections():
    """A stand-alone collection, the same one served, and a 3-shard routed one."""
    backend = DocumentStoreClient()
    standalone = backend["db"]["items"]
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    cluster.shard_collection("db", "items", {"k": "hashed"})
    routed = cluster.get_database("db")["items"]
    for collection in (standalone, routed):
        collection.insert_many(ROWS)
    with DocumentStoreServer(backend, port=0) as server, RemoteClient(server.address) as client:
        yield {"standalone": standalone, "routed": routed, "served": client["db"]["items"]}
    cluster.close()


#: Calls every surface refuses.  Vector indexes and ``$vectorSearch`` are not
#: part of the store; old callers get the stand-alone error on every surface.
REFUSED_CALLS = {
    "vector create_index": lambda c: c.create_index({"keys": ["e"], "type": "vector", "dims": 3}),
    "$vectorSearch": lambda c: c.aggregate(
        [{"$vectorSearch": {"queryVector": [1.0, 0.0, 0.0], "path": "e", "k": 3}}]
    ),
    "unknown stage": lambda c: c.aggregate([{"$teleport": {}}]),
    "hashed compound index": lambda c: c.create_index([("k", "hashed"), ("tenant", 1)]),
    "unknown spec field": lambda c: c.create_index({"keys": ["tenant"], "bogus": 1}),
}


@pytest.mark.parametrize("call", REFUSED_CALLS)
def test_a_refused_call_raises_one_error_class_everywhere(collections, call):
    raised = {}
    for surface, collection in collections.items():
        indexes = collection.list_indexes()
        with pytest.raises(OperationFailure) as error:
            REFUSED_CALLS[call](collection)
        raised[surface] = type(error.value)
        assert collection.list_indexes() == indexes
    assert len(set(raised.values())) == 1, raised


#: Pipelines whose answer does not depend on where the documents live.
PIPELINES = {
    "sorted": [{"$sort": {"k": -1}}, {"$project": {"_id": 0, "k": 1}}],
    "filtered sorted": [{"$match": {"tenant": 1}}, {"$sort": {"k": 1}}],
    "group": [
        {"$group": {"_id": "$tenant", "n": {"$sum": 1}, "mean": {"$avg": "$k"}}},
        {"$sort": {"_id": 1}},
    ],
    "count": [{"$match": {"k": {"$gte": 10}}}, {"$group": {"_id": None, "n": {"$sum": 1}}}],
}


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_the_same_pipeline_answers_alike_on_every_surface(collections, pipeline):
    answers = {
        surface: collection.aggregate(PIPELINES[pipeline])
        for surface, collection in collections.items()
    }
    assert answers["routed"] == answers["standalone"]
    assert answers["served"] == answers["standalone"]
    assert answers["standalone"]


def test_index_ddl_round_trips_over_the_wire(collections):
    served, standalone = collections["served"], collections["standalone"]
    # Legacy sugar and the structured form both reach the served backend.
    assert served.create_index([("tenant", 1)]) == "tenant_1"
    assert served.create_index(
        {"keys": [["tenant", 1], ["_id", -1]], "unique": True, "name": "by_tenant"}
    ) == "by_tenant"
    assert served.list_indexes() == standalone.list_indexes()
    # A routed collection creates the same spec on every shard.
    collections["routed"].create_index(
        {"keys": [["tenant", 1], ["_id", -1]], "unique": True, "name": "by_tenant"}
    )
    routed = {spec["name"]: spec for spec in collections["routed"].list_indexes()}
    local = {spec["name"]: spec for spec in standalone.list_indexes()}
    assert routed["by_tenant"] == local["by_tenant"]


def test_unknown_verbosity_is_refused_on_every_surface(collections):
    for collection in collections.values():
        with pytest.raises(OperationFailure, match="verbosity"):
            collection.explain({}, verbosity="nope")


#: Update documents with a key that is not a string.  The served client refuses
#: them before its wire codec would turn such keys into strings.
NON_STRING_KEY_UPDATES = {
    "replacement": {1: 2},
    "$set path": {"$set": {1: 2}},
    "$inc path": {"$inc": {3: 1}},
}


@pytest.mark.parametrize(
    "update", NON_STRING_KEY_UPDATES.values(), ids=list(NON_STRING_KEY_UPDATES)
)
@pytest.mark.parametrize("surface", ["standalone", "routed", "served"])
def test_an_update_key_that_is_not_a_string_is_an_update_error(collections, surface, update):
    """It leaked ``AttributeError``, which also aborted an unordered ``bulk_write``."""
    collection = collections[surface]
    before = collection.find({}).to_list()
    for query in ({"_id": 1, "k": 1}, {"_id": 99, "k": 99}, {"tenant": 7}):
        for method in (collection.update_one, collection.update_many):
            with pytest.raises(InvalidUpdateError):
                method(query, update)
    # One refused operation among others that apply, matching or not.
    batch = [
        UpdateMany({"_id": 99, "k": 99}, update),
        UpdateOne({"_id": 1, "k": 1}, {"$set": {"seen": 1}}),
        UpdateMany({"_id": 1, "k": 1}, update),
        UpdateMany({"_id": 98, "k": 98}, {"$set": {"seen": 1}}),
    ]
    with pytest.raises(BulkWriteError) as excinfo:
        collection.bulk_write(batch, ordered=False)
    errors = [(entry["index"], entry["code"]) for entry in excinfo.value.errors]
    assert errors == [(0, "InvalidUpdateError"), (2, "InvalidUpdateError")]
    assert (excinfo.value.result.matched_count, excinfo.value.result.modified_count) == (1, 1)
    collection.update_one({"_id": 1, "k": 1}, {"k": 1, "tenant": 1})
    assert collection.find({}).to_list() == before


#: Calls whose filter has a key that is not a string (an ``int``).
NON_STRING_KEY_FILTERS = {
    "find": lambda c: c.find({1: 2}).to_list(),
    "count_documents": lambda c: c.count_documents({"k": 1, 1: 2}),
    "distinct": lambda c: c.distinct("k", {1: 2}),
    "aggregate $match": lambda c: c.aggregate([{"$match": {1: 2}}]),
    "update_many": lambda c: c.update_many({1: 2}, {"$set": {"seen": 1}}),
    "delete_many": lambda c: c.delete_many({1: 2}),
    "bulk_write": lambda c: c.bulk_write([UpdateOne({1: 2}, {"$set": {"seen": 1}})]),
}


@pytest.mark.parametrize("call", NON_STRING_KEY_FILTERS)
@pytest.mark.parametrize("surface", ["standalone", "routed", "served"])
def test_a_filter_key_that_is_not_a_string_is_refused(collections, surface, call):
    """The planner and the matcher leaked ``AttributeError``; served, the key became a string."""
    collection = collections[surface]
    before = collection.find({}).to_list()
    with pytest.raises(OperationFailure, match="must be strings"):
        NON_STRING_KEY_FILTERS[call](collection)
    assert collection.find({}).to_list() == before


#: An operator of each family that the store does not run, in a call that names
#: it: every surface refuses it with its family's error for an unknown name.
UNRUN_OPERATORS = {
    "query": {
        **{
            operator: {"k": {operator: operand}}
            for operator, operand in [
                ("$nin", [1]), ("$type", "int"), ("$regex", "^1"), ("$mod", [2, 0]),
                ("$size", 1), ("$all", [1]), ("$elemMatch", {"a": 1}), ("$not", {"$gt": 1}),
            ]
        },
        "$nor": {"$nor": [{"k": 1}]},
        "$expr": {"$expr": {"$gt": ["$k", 1]}},
    },
    "expression": {
        operator: {operator: ["$k", 1]}
        for operator in (
            "$add", "$multiply", "$mod", "$abs", "$floor", "$ceil", "$round", "$concat",
            "$toLower", "$toUpper", "$strLenCP", "$substrCP", "$substr", "$literal", "$ifNull",
            "$switch", "$cmp", "$min", "$max", "$not", "$size", "$arrayElemAt",
            "$concatArrays", "$filter", "$map", "$year", "$month", "$dayOfMonth", "$dayOfWeek",
            "$toString", "$toInt", "$toLong", "$toDouble", "$toDecimal",
        )
    }
    | {"$$ROOT": "$$ROOT", "$$CURRENT": "$$CURRENT.k"},
    "update": {
        operator: {operator: {"tenant": 1}}
        for operator in (
            "$setOnInsert", "$min", "$max", "$push", "$addToSet", "$unset", "$rename",
            "$pull", "$pop", "$mul", "$currentDate",
        )
    },
    "accumulator": {
        operator: {"$group": {"_id": None, "x": {operator: "$k"}}}
        for operator in (
            "$min", "$max", "$first", "$last", "$push", "$addToSet", "$count", "$stdDevPop"
        )
    },
    "stage": {
        operator: {operator: specification}
        for operator, specification in [
            ("$addFields", {"x": 1}), ("$set", {"x": 1}), ("$unwind", "$k"),
            ("$lookup", {"from": "items", "localField": "k", "foreignField": "k", "as": "j"}),
            ("$sample", {"size": 1}), ("$replaceRoot", {"newRoot": "$$ROOT"}),
            ("$count", "n"), ("$skip", 1), ("$limit", 1),
        ]
    },
}


def refused_alike(collections, call, error_class):
    """*call* raises *error_class* with one message on every surface, changing nothing."""
    raised = set()
    for collection in collections.values():
        before = collection.find({}).to_list()
        with pytest.raises(OperationFailure) as error:
            call(collection)
        raised.add((type(error.value), str(error.value)))
        assert collection.find({}).to_list() == before
    assert len(raised) == 1, raised
    assert next(iter(raised))[0] is error_class


@pytest.mark.parametrize("name", UNRUN_OPERATORS["query"])
def test_an_unrun_query_operator_is_refused_alike_everywhere(collections, name):
    query = UNRUN_OPERATORS["query"][name]
    refused_alike(collections, lambda c: c.find(query).to_list(), InvalidOperator)


@pytest.mark.parametrize("name", UNRUN_OPERATORS["expression"])
def test_an_unrun_expression_operator_is_refused_alike_everywhere(collections, name):
    expression = UNRUN_OPERATORS["expression"][name]
    pipeline = [{"$project": {"x": expression}}]
    refused_alike(collections, lambda c: c.aggregate(pipeline), InvalidOperator)


@pytest.mark.parametrize("name", UNRUN_OPERATORS["update"])
def test_an_unrun_update_operator_is_refused_alike_everywhere(collections, name):
    update = UNRUN_OPERATORS["update"][name]
    refused_alike(collections, lambda c: c.update_many({"k": 1}, update), InvalidUpdateError)


@pytest.mark.parametrize("name", UNRUN_OPERATORS["accumulator"])
def test_an_unrun_accumulator_is_refused_alike_everywhere(collections, name):
    stage = UNRUN_OPERATORS["accumulator"][name]
    refused_alike(collections, lambda c: c.aggregate([stage]), InvalidPipelineError)


@pytest.mark.parametrize("name", UNRUN_OPERATORS["stage"])
def test_an_unrun_stage_is_refused_alike_everywhere(collections, name):
    stage = UNRUN_OPERATORS["stage"][name]
    refused_alike(collections, lambda c: c.aggregate([stage]), InvalidPipelineError)


#: Stored values of a hashed shard key, and the queried values that equal
#: them in another type (``3`` for ``3.0``, ``0`` for ``-0.0``, a datetime for
#: a date) or do not (``1`` is not ``True``, ``42`` is stored nowhere).
STORED_KEYS = [
    3.0, -0.0, 7.0, float(2**53), 1.5, True, "3",
    datetime.date(2000, 1, 2), datetime.datetime(2000, 1, 3),
]
QUERIED_KEYS = [
    3, 0, 0.0, 7, 2**53, 1.5, 1, "3",
    datetime.datetime(2000, 1, 2), datetime.date(2000, 1, 3), 42,
]


def contents(collection) -> list[str]:
    """The documents as sorted strings, ``_id`` (an upsert's is generated) aside."""
    return sorted(
        repr(sorted((key, value) for key, value in document.items() if key != "_id"))
        for document in collection.find({})
    )


def test_a_hashed_shard_key_routes_equal_values_alike():
    """Equal keys of two types hashed apart: a targeted read missed the stored
    document and a routed upsert inserted a duplicate."""
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    cluster.shard_collection("db", "mixed", {"k": "hashed"})
    surfaces = {
        "standalone": Collection(None, "mixed"),
        "routed": cluster.get_database("db")["mixed"],
    }
    for collection in surfaces.values():
        collection.insert_many([{"_id": i, "k": key} for i, key in enumerate(STORED_KEYS)])

    def answers(call):
        return {surface: call(collection) for surface, collection in surfaces.items()}

    for key in QUERIED_KEYS:
        found = answers(lambda c: sorted(d["_id"] for d in c.find({"k": key})))
        assert found["routed"] == found["standalone"], key
        counted = answers(lambda c: c.count_documents({"k": key}))
        assert counted["routed"] == counted["standalone"], key
    for key in QUERIED_KEYS:
        updated = answers(
            lambda c: c.update_one({"k": key}, {"$inc": {"n": 1}}, upsert=True)
        )
        assert len({
            (result.matched_count, result.modified_count, result.upserted_id is None)
            for result in updated.values()
        }) == 1, key
    assert contents(surfaces["routed"]) == contents(surfaces["standalone"])
    for key in QUERIED_KEYS:
        deleted = answers(lambda c: c.delete_one({"k": key}).deleted_count)
        assert deleted["routed"] == deleted["standalone"], key
    assert contents(surfaces["routed"]) == contents(surfaces["standalone"])
    assert contents(surfaces["standalone"]) == ["[('k', True)]"]  # only ``1`` was queried
    cluster.close()


# --------------------------------------------------------------------------
# Writes every surface refuses the way a stand-alone collection does.
# --------------------------------------------------------------------------

WRITE_SURFACES = [
    "standalone", "routed hashed", "routed unsharded",
    "served standalone", "served hashed", "served unsharded",
]


@pytest.fixture(scope="module")
def write_surfaces():
    """Each write surface, served over either backend too."""
    backend = DocumentStoreClient()
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    for name in ("hashed", "served_hashed"):
        cluster.shard_collection("db", name, {"k": "hashed"})
    routed = cluster.get_database("db")
    with (
        DocumentStoreServer(backend, port=0) as local,
        DocumentStoreServer(cluster, port=0) as sharded,
        RemoteClient(local.address) as to_local,
        RemoteClient(sharded.address) as to_sharded,
    ):
        yield dict(zip(WRITE_SURFACES, [
            backend["db"]["plain"], routed["hashed"], routed["plain"],
            to_local["db"]["served"], to_sharded["db"]["served_hashed"],
            to_sharded["db"]["served_plain"],
        ]))
    cluster.close()


#: Inserts of something that is not a mapping (two are lists of key-value pairs).
NOT_MAPPINGS = {
    "insert_many pairs": lambda c: c.insert_many([[("k", 1), ("a", 2)]]),
    "insert_one pairs": lambda c: c.insert_one([("k", 5)]),
    "insert_many int": lambda c: c.insert_many([1]),
    "insert_many str": lambda c: c.insert_many(["ab"]),
}


@pytest.mark.parametrize("call", NOT_MAPPINGS)
@pytest.mark.parametrize("surface", WRITE_SURFACES)
def test_a_document_that_is_not_a_mapping_is_refused_everywhere(write_surfaces, surface, call):
    """Routed and served inserts coerced each document with ``dict(...)``: they
    stored a list of pairs, and routed ``1`` and ``"ab"`` leaked a raw error."""
    collection = write_surfaces[surface]
    before = collection.count_documents({})
    with pytest.raises(InvalidDocumentError, match="must be mappings"):
        NOT_MAPPINGS[call](collection)
    assert collection.count_documents({}) == before


#: Inserts of a document with a key that is not a ``str``, at any depth.
NON_STRING_KEY_INSERTS = {
    "insert_one": lambda c: c.insert_one({1: 2}),
    "insert_many nested": lambda c: c.insert_many([{"k": 1}, {"k": 2, "a": {3: 4}}]),
    "insert_many in an array": lambda c: c.insert_many([{"k": 3, "a": [{"b": {5: 6}}]}]),
}


@pytest.mark.parametrize("call", NON_STRING_KEY_INSERTS)
@pytest.mark.parametrize("surface", WRITE_SURFACES)
def test_a_document_key_that_is_not_a_string_is_refused_everywhere(write_surfaces, surface, call):
    """Served, the wire codec wrote the key as a string and the document was stored."""
    collection = write_surfaces[surface]
    before = collection.count_documents({})
    with pytest.raises(InvalidDocumentError, match="keys must be strings, got int"):
        NON_STRING_KEY_INSERTS[call](collection)
    assert collection.count_documents({}) == before


@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("surface", WRITE_SURFACES)
def test_a_bulk_insert_key_that_is_not_a_string_is_refused_in_its_position(
    write_surfaces, surface, ordered
):
    collection = write_surfaces[surface]
    batch = [
        InsertOne({"k": 10, "tag": "bulk"}),
        InsertOne({"k": 11, "tag": "bulk", 7: "x"}),
        InsertOne({"k": 12, "tag": "bulk"}),
    ]
    with pytest.raises(BulkWriteError) as excinfo:
        collection.bulk_write(batch, ordered=ordered)
    failed = [(entry["index"], entry["code"]) for entry in excinfo.value.errors]
    assert failed == [(1, "InvalidDocumentError")]
    stored = sorted(document["k"] for document in collection.find({"tag": "bulk"}))
    assert stored == ([10] if ordered else [10, 12])
    assert excinfo.value.result.inserted_count == len(stored)
    collection.delete_many({"tag": "bulk"})


@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("surface", ["standalone", "routed hashed", "routed unsharded"])
def test_an_unstorable_value_is_an_invalid_document_everywhere(surface, ordered):
    """A ``set`` leaked ``TypeError`` from the network's byte accounting, and an
    unordered routed ``bulk_write`` stopped after storing one document."""
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    cluster.shard_collection("db", "hashed", {"k": "hashed"})
    collection = {
        "standalone": Collection(None, "c"),
        "routed hashed": cluster.get_database("db")["hashed"],
        "routed unsharded": cluster.get_database("db")["plain"],
    }[surface]
    collection.insert_one({"_id": 4, "k": 4})
    with pytest.raises(InvalidDocumentError):
        collection.update_many({"k": 4}, {"$set": {"a": {1, 2}}})
    with pytest.raises(InvalidDocumentError):
        collection.insert_many([{"k": 5, "a": {1, 2}}])
    batch = [
        InsertOne({"k": 1}),
        InsertOne({"k": 2, "a": {1, 2}}),
        InsertOne({"k": 3}),
        UpdateMany({"k": 4}, {"$set": {"a": {1, 2}}}),
        UpdateMany({"k": 4}, {"$set": {"seen": 1}}),
    ]
    with pytest.raises(BulkWriteError) as excinfo:
        collection.bulk_write(batch, ordered=ordered)
    failed = [(entry["index"], entry["code"]) for entry in excinfo.value.errors]
    result = excinfo.value.result
    if ordered:
        assert failed == [(1, "InvalidDocumentError")]
        assert (result.inserted_count, result.modified_count) == (1, 0)
        assert sorted(document["k"] for document in collection.find({})) == [1, 4]
    else:
        assert failed == [(1, "InvalidDocumentError"), (3, "InvalidDocumentError")]
        assert (result.inserted_count, result.modified_count) == (2, 1)
        assert sorted(document["k"] for document in collection.find({})) == [1, 3, 4]
    assert "a" not in collection.find_one({"k": 4})
    cluster.close()
