"""The exact-type read kernels against their references, under random input.

* ``bson.deep_copy_document`` equals ``reference_copy.deep_copy_document``
  (types included: any mapping becomes a dict, any sequence a list) and
  shares no dict or list with its input;
* ``cursor.compile_projection``, with and without ``copy``, equals the
  reference projection applied to a deep copy, raises the same error class
  and message, never mutates its input, and with ``copy`` shares no dict or
  list with it;
* ``bson.value_size``/``document_size`` equal the reference sizes, errors
  included, and so does ``bulk.operation_size`` for an operation's wire form,
  alone and along a sequence whose shapes repeat (its frame cache is hit);
* a comparison or ``$in`` on a one-segment or dotted path decides a plain
  dict exactly as the general predicate decides the same document behind a
  ``MappingProxyType`` (which the scalar kernel never takes);
* a conjunction of such conditions on top-level fields decides any document
  as the AND of its conditions, each compiled alone;
* a find selects the documents, in the order and with the
  ``documents_scanned`` of the per-document loop it ran before its
  selection moved to C, and a collection scan racing writes raises nothing.
"""

from __future__ import annotations

import datetime
import enum
import math
import sys
import threading
from collections import OrderedDict
from types import MappingProxyType

import pytest
import reference_copy
from hypothesis import example, given, settings, strategies as st

from repro.documentstore import Collection, FindSpec, ObjectId
from repro.documentstore.bson import deep_copy_document, document_size, value_size
from repro.documentstore.bulk import (
    DeleteMany,
    DeleteOne,
    InsertOne,
    UpdateMany,
    UpdateOne,
    _shape_frame,
    encode_operation,
    operation_size,
)
from repro.documentstore.cursor import compile_projection
from repro.documentstore.matching import _scalar_kernel, compile_matcher, matches
from repro.documentstore.ordering import document_sort_key
from repro.sharding import ShardedCluster, SimulatedNetwork


class Flag(enum.IntEnum):
    ON = 1


class Text(str):
    pass


KEYS = st.sampled_from(["_id", "a", "b", "c", "é", "日本", Text("t")])
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.binary(max_size=3),
    st.just(ObjectId("0123456789abcdef01234567")),
    st.dates(),
    st.datetimes(),
    st.sampled_from([Flag.ON, Text("s")]),
)


def _containers(children):
    documents = st.dictionaries(KEYS, children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        documents,
        documents.map(OrderedDict),
        documents.map(MappingProxyType),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=12)


def typed(value):
    """*value* as nested ``(type, ...)`` tuples, so ``==`` also compares types and order."""
    if isinstance(value, (dict, OrderedDict, MappingProxyType)):
        return type(value), [(key, typed(nested)) for key, nested in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [typed(item) for item in value]
    return type(value), value


def containers(value, found=None):
    """The ``id()`` of every dict and list inside *value*, itself included."""
    found = set() if found is None else found
    if isinstance(value, dict):
        found.add(id(value))
        for nested in value.values():
            containers(nested, found)
    elif isinstance(value, (list, tuple)):
        if isinstance(value, list):
            found.add(id(value))
        for item in value:
            containers(item, found)
    elif isinstance(value, MappingProxyType):
        containers(dict(value), found)
    return found


def outcome(function, *arguments):
    """What *function* returned (typed), or the class and message it raised."""
    try:
        return typed(function(*arguments))
    except Exception as error:  # the class and the message are what is compared
        return type(error), str(error)


# -- copy ----------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example({"a": ({"b": [1, (2,)]}, OrderedDict(c=MappingProxyType({"d": []})))})
def test_copy_equals_the_reference_and_shares_no_container(value):
    copy = deep_copy_document(value)
    assert typed(copy) == typed(reference_copy.deep_copy_document(value))
    assert not containers(copy) & containers(value)


# -- projection ----------------------------------------------------------------

PATHS = st.sampled_from(["a", "b", "c", "é", "a.b", "a.c", "b.x.y", "a.0", "a.0.b", "c.é", ""])
PROJECTIONS = st.one_of(
    st.none(),
    st.dictionaries(PATHS, st.sampled_from([0, 1, True, False]), max_size=3),
    st.tuples(
        st.dictionaries(PATHS, st.sampled_from([0, 1]), max_size=3),
        st.sampled_from([0, 1, True, False]),
    ).map(lambda pair: {**pair[0], "_id": pair[1]}),
)
NESTED = st.recursive(
    st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=2)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["b", "c", "x", "y", "é", "0"]), children, max_size=3),
    ),
    max_leaves=10,
)
STORED = st.dictionaries(st.sampled_from(["_id", "a", "b", "c", "é", ""]), NESTED, max_size=5)


@settings(max_examples=600, deadline=None)
@given(STORED, PROJECTIONS, st.booleans())
@example({"_id": 1, "a": {"b": 1, "c": 2}}, {"a.b": 0}, True)
@example({"_id": 1, "a": {"b": 1, "c": 2}}, {"a": 1, "a.b": 1}, False)
@example({"_id": 1, "a": [{"b": 1}, {"b": 2}]}, {"a.b": 1, "_id": 0}, True)
@example({"_id": 1, "a": 1}, {"a": 1, "b": 0}, True)
@example({"_id": 1, "": {"b": 1}}, {"": 1}, True)
@example({"a": [{"b": None}]}, {"a": 1, "a.b": 1}, False)  # both raise TypeError
def test_projection_equals_the_reference_on_a_copy(document, projection, copy):
    before = typed(reference_copy.deep_copy_document(document))
    expected = outcome(
        reference_copy.project_document, reference_copy.deep_copy_document(document), projection
    )
    try:
        project = compile_projection(projection, copy=copy)
    except Exception as error:
        assert (type(error), str(error)) == expected
        return
    assert outcome(project, document) == expected
    assert typed(document) == before
    if copy and expected[0] is dict:  # projected, not raised
        assert not containers(project(document)) & containers(document)


# -- size ----------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.one_of(VALUES, st.builds(set), st.builds(object), st.lists(st.builds(set))))
@example({"日本": "é", Text("k"): Text("v"), "n": None, "f": Flag.ON})
def test_sizes_equal_the_reference(value):
    assert outcome(value_size, value) == outcome(reference_copy.value_size, value)
    if isinstance(value, dict):
        assert outcome(document_size, value) == outcome(reference_copy.document_size, value)


class Label(str):
    def __str__(self):
        return "a longer label"


def test_a_key_subclass_is_measured_by_its_str():
    """Exact ``str`` keys are measured in one join; any other key as ``str(key)``."""
    for document in ({Label("k"): 1, "é": 2}, {"a": {Label("k"): [1]}}, {1: "x", "日本": None}):
        assert document_size(document) == reference_copy.document_size(document)


#: Filters and documents as a routed ``bulk_write`` gets them: ``None``, nested,
#: non-ASCII and ``Text`` keys, and values that have no size.
OPERATION_VALUES = st.one_of(
    st.none(), st.dictionaries(KEYS, VALUES, max_size=3), st.builds(set), VALUES
)
OPERATIONS = st.one_of(
    st.builds(InsertOne, OPERATION_VALUES),
    st.builds(UpdateOne, OPERATION_VALUES, OPERATION_VALUES, st.booleans()),
    st.builds(UpdateMany, OPERATION_VALUES, OPERATION_VALUES, st.sampled_from([False, True, 1])),
    st.builds(DeleteOne, OPERATION_VALUES),
    st.builds(DeleteMany, OPERATION_VALUES),
)


@settings(max_examples=400, deadline=None)
@given(OPERATIONS)
@example(UpdateOne({Text("t"): "é"}, {"$set": {"日本": {"a": [1, None]}}}, True))
@example(InsertOne({"a": {1, 2}}))
def test_an_operation_is_sized_as_its_wire_form(operation):
    """``operation_size`` equals ``document_size(encode_operation(...))``, errors included."""
    assert outcome(operation_size, operation) == outcome(
        lambda: reference_copy.document_size(encode_operation(operation))
    )


#: Filter keys and ``$set`` paths of a few shapes: ``1``, ``True`` and ``1.0``
#: hash alike but are measured as ``"1"``, ``"True"`` and ``"1.0"``; ``Label``
#: and ``Text`` hash like ``"a"`` but are measured by ``str(key)``.
SHAPE_KEYS = st.sampled_from(["a", "b", "é", "日本", 1, True, 1.0, Label("a"), Text("a")])
SHAPE_VALUES = st.one_of(LEAVES, st.builds(set), st.dictionaries(KEYS, LEAVES, max_size=2))


@st.composite
def operation_sequences(draw):
    """Operations of a few shapes, drawn again and again in any key order."""
    shapes = draw(st.lists(st.lists(SHAPE_KEYS, max_size=3), min_size=1, max_size=3))

    def shaped():
        keys = draw(st.permutations(draw(st.sampled_from(shapes))))
        return {key: draw(SHAPE_VALUES) for key in keys}

    operations = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([UpdateOne, UpdateMany, DeleteOne, DeleteMany, InsertOne]))
        form = draw(st.sampled_from(["shaped"] * 4 + ["none", "other"]))
        filter_ = {"shaped": shaped, "none": lambda: None, "other": lambda: draw(VALUES)}[form]()
        if kind is InsertOne:
            operations.append(InsertOne(shaped()))
        elif kind in (DeleteOne, DeleteMany):
            operations.append(kind(filter_))
        else:
            update = draw(st.sampled_from(["$set"] * 4 + ["$inc", "both", "replace", "other"]))
            update = {
                "$set": lambda: {"$set": shaped()},
                "$inc": lambda: {"$inc": shaped()},
                "both": lambda: {"$set": shaped(), "$inc": {"n": 1}},
                "replace": shaped,
                "other": lambda: draw(VALUES),
            }[update]()
            upsert = draw(st.sampled_from([False, True, 1, None, set()]))
            operations.append(kind(filter_, update, upsert))
    return operations


@settings(max_examples=300, deadline=None)
@given(operation_sequences())
@example([UpdateMany({True: 1}, {"$set": {"a": 1}}), UpdateMany({1: 1}, {"$set": {"a": 1}})])
@example([DeleteOne({"a": 1.0}), DeleteOne({Label("a"): 1.0}), DeleteOne({Text("a"): 1.0})])
@example([UpdateOne({"a": 1}, {"$set": {Label("a"): 2}}), UpdateOne({"a": 1}, {"$set": {"a": 2}})])
@example([UpdateOne({"a": {1}}, {"$set": {"b": set()}}, set()), UpdateOne({"a": 1}, {"$set": {}})])
def test_a_sequence_of_operations_is_sized_as_its_wire_forms(operations):
    """Shapes repeat, so the cached frames are hit: each size is still the wire form's."""
    _shape_frame.cache_clear()
    for operation in operations:
        assert outcome(operation_size, operation) == outcome(
            lambda: reference_copy.document_size(encode_operation(operation))
        )


def test_a_key_the_utf8_codec_refuses_is_sized_by_the_whole_walk():
    """Its frame cannot be measured: the walk raises, values before keys, as it always has."""
    for operation in (
        DeleteOne({"\ud800": 1}),
        DeleteOne({"\ud800": {1}}),
        UpdateMany({"a": 1}, {"$set": {"\ud800": {1}}}),
        UpdateMany({"\ud800": 1}, {"$set": {"b": {1}}}),
    ):
        assert outcome(operation_size, operation) == outcome(
            lambda: document_size(encode_operation(operation))
        )


def test_a_routed_bulk_write_sends_the_reference_size_of_each_operation(monkeypatch):
    """Every operation below joins a shard's batch: the requests carry exactly their sizes."""
    cluster = ShardedCluster(shard_count=3)
    cluster.shard_collection("db", "c", {"k": "hashed"})
    collection = cluster.get_database("db")["c"]
    collection.insert_many([{"k": i, "w": 1, "n": 0} for i in range(30)])
    row = {"name": "日本", "day": datetime.date(2020, 1, 1), "tags": [1, "a"], "q": None}
    operations = [
        *(UpdateMany({"k": i}, {"$set": {"row": row}}) for i in range(8)),
        *(UpdateOne({"k": i, "w": 1}, {"$set": {"x": i, "y": row}}) for i in range(8, 12)),
        *(UpdateOne({"w": 1, "k": i}, {"$set": {"y": row, "x": i}}) for i in range(12, 16)),
        UpdateMany({"k": 16, Text("w"): 1}, {"$set": {"x": 1}}),
        UpdateMany({"k": 17}, {"$inc": {"n": 2}}),
        UpdateOne({"k": 18}, {"k": 18, "replaced": True}),
        *(DeleteOne({"k": i}) for i in range(19, 22)),
        DeleteMany({"k": 22}),
        *(InsertOne({"k": 100 + i, "row": row}) for i in range(3)),
        UpdateMany({"k": 1000}, {"$set": {"row": row}}),  # matches nothing
    ]
    sent: dict[str, int] = {}
    send = SimulatedNetwork.send

    def counting_send(network, purpose, payload_bytes):
        sent[purpose] = sent.get(purpose, 0) + payload_bytes
        return send(network, purpose, payload_bytes)

    monkeypatch.setattr(SimulatedNetwork, "send", counting_send)
    result = collection.bulk_write(operations, ordered=False)
    assert (result.inserted_count, result.deleted_count) == (3, 4)
    assert cluster.network.stats.by_purpose["bulkWrite:request"] == 3
    assert sent["bulkWrite:request"] == sum(
        reference_copy.document_size(encode_operation(operation)) for operation in operations
    )
    cluster.close()


# -- scalar match --------------------------------------------------------------

#: One object per value, so the NaN drawn into a filter *is* the stored one.
POOL = [
    0, 1, -1, 2**63 - 1, 2**63, 2**63 + 1, 0.0, -0.0, 1.0, 1.5, float(2**63),
    math.nan, math.inf, True, False, None, "", "a", "b", "1",
    [1, "a"], [], {"y": 1}, datetime.date(2020, 1, 1), datetime.datetime(2020, 1, 1), Flag.ON,
]
OPERANDS = st.sampled_from(POOL)
CONDITIONS = st.one_of(
    OPERANDS,
    st.tuples(st.sampled_from(["$eq", "$gt", "$gte", "$lt", "$lte"]), OPERANDS).map(
        lambda pair: {pair[0]: pair[1]}
    ),
    st.lists(OPERANDS, max_size=4).map(lambda members: {"$in": members}),
)
MATCHED = st.one_of(
    st.just({}),
    OPERANDS.map(lambda value: {"x": value}),
    st.tuples(OPERANDS, OPERANDS).map(lambda pair: {"w": pair[0], "x": pair[1]}),
    OPERANDS.map(lambda value: {"x": {"y": value}}),
    OPERANDS.map(lambda value: {"x": {"y": {"z": value}}}),
    OPERANDS.map(lambda value: {"x": MappingProxyType({"y": value})}),
    st.lists(OPERANDS, max_size=2).map(lambda values: {"x": [{"y": v} for v in values]}),
)
MATCHED_PATHS = st.sampled_from(["x", "x.y", "x.y.z", "x.0.y", "w"])


@settings(max_examples=2000, deadline=None)
@given(MATCHED, MATCHED_PATHS, CONDITIONS)
@example({"x": True}, "x", {"$eq": 1})
@example({"x": 1}, "x", {"$gte": True})
@example({"x": Flag.ON}, "x", {"$in": [1, 2]})
@example({"x": math.nan}, "x", {"$in": [math.nan, 1]})
@example({"x": 2**63 + 1}, "x", {"$gt": float(2**63)})
@example({"x": -0.0}, "x", {"$lte": 0})
@example({"x": "b"}, "x", {"$gt": "a"})
@example({"x": [1, "a"]}, "x", {"$in": ["a"]})
@example({"x": {"y": True}}, "x.y", {"$eq": 1})
@example({"x": [{"y": 1}, {"y": 2}]}, "x.y", {"$gt": 1})
@example({"x": [{"y": 1}]}, "x.0.y", 1)
def test_scalar_kernel_decides_as_the_general_predicate(document, path, condition):
    predicate = compile_matcher({path: condition})
    assert predicate(document) == predicate(MappingProxyType(document))


@pytest.mark.parametrize(
    ("operator", "operand", "kernel"),
    [
        ("$eq", 1, True),
        ("$gt", 1.5, True),
        ("$lte", "a", True),
        ("$in", [1, 2.5, "a"], True),
        ("$in", [], True),
        ("$eq", True, False),
        ("$gt", math.nan, False),
        ("$eq", Flag.ON, False),
        ("$eq", None, False),
        ("$lt", datetime.date(2020, 1, 1), False),
        ("$in", [1, math.nan], False),
        ("$in", [1, True], False),
        ("$in", [1, None], False),
        ("$ne", 1, False),
    ],
)
def test_scalar_kernel_scope(operator, operand, kernel):
    assert (_scalar_kernel(operator, operand) is not None) is kernel


# -- conjunctions --------------------------------------------------------------

FIELDS = st.sampled_from(["a", "b", "c"])
#: ``(field, operator, operand)``: repeated fields share one operator document.
TERMS = st.tuples(
    FIELDS,
    st.sampled_from(["$eq", "$gt", "$gte", "$lt", "$lte", "$in"]),
    OPERANDS,
    st.lists(OPERANDS, max_size=4),
).map(lambda term: term[:2] + ((term[3] if term[1] == "$in" else term[2]),))
FIELD_VALUES = st.one_of(
    OPERANDS,
    st.lists(OPERANDS, max_size=3),
    st.dictionaries(FIELDS, OPERANDS, max_size=2),
)
TOP_LEVEL = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), FIELD_VALUES, max_size=4)
DOCUMENTS = st.one_of(
    TOP_LEVEL,
    TOP_LEVEL.map(MappingProxyType),
    TOP_LEVEL.map(OrderedDict),
    st.lists(TOP_LEVEL, max_size=2),
    OPERANDS,
)


def conjunction_filter(terms, plain):
    """*terms* as one filter; a lone ``$eq`` is written as the value itself when *plain*."""
    query = {}
    for field, operator, operand in terms:
        query.setdefault(field, {})[operator] = operand
    for field, condition in query.items():
        if plain and list(condition) == ["$eq"] and not isinstance(condition["$eq"], dict):
            query[field] = condition["$eq"]
    return query


@settings(max_examples=1000, deadline=None)
@given(st.lists(TERMS, min_size=1, max_size=5), st.booleans(), DOCUMENTS)
@example([("a", "$gte", 1), ("a", "$lt", 2)], False, {"a": 1.5})
@example([("a", "$gt", 0), ("b", "$eq", "a")], True, {"a": True, "b": "a"})
@example([("a", "$in", [1, "a"]), ("b", "$lte", -0.0)], False, {"a": [2, "a"], "b": 0})
@example([("a", "$eq", math.nan), ("b", "$gt", 1)], False, {"a": math.nan, "b": 2})
@example([("a", "$eq", None), ("c", "$lt", 5)], False, {"c": 4})
@example([("a", "$gt", 1), ("b", "$gt", 1)], False, [{"a": 2, "b": 2}])
def test_a_conjunction_is_the_and_of_its_conditions(terms, plain, document):
    query = conjunction_filter(terms, plain)
    conditions = [
        {field: {operator: operand}}
        for field, condition in conjunction_filter(terms, False).items()
        for operator, operand in condition.items()
    ]
    expected = all(matches(document, condition) for condition in conditions)
    assert compile_matcher(query)(document) == expected


# -- find selection ------------------------------------------------------------


def loop_find(collection, spec):
    """(results, documents scanned) of the per-document loop, on the same plan."""
    plan = collection._plan_find(spec)
    predicate = compile_matcher(spec.filter)
    records = collection._documents
    candidates = list(records) if plan.candidate_ids is None else plan.candidate_ids
    unserved_sort = spec.sort and not plan.sort_served
    found, scanned = [], 0
    for doc_id in candidates:
        document = records.get(doc_id)
        if document is None:
            continue
        scanned += 1
        if predicate(document):
            found.append(document)
            if not unserved_sort and spec.fetch_bound is not None:
                if len(found) >= spec.fetch_bound:
                    break
    if unserved_sort:
        found.sort(key=document_sort_key(spec.sort))
    stop = None if spec.limit is None else spec.skip + spec.limit
    return list(map(compile_projection(spec.projection), found[spec.skip:stop])), scanned


STORED_ROWS = st.lists(
    st.fixed_dictionaries({"a": OPERANDS, "b": st.integers(0, 3)}, optional={"c": OPERANDS}),
    max_size=12,
)
#: ``find`` arguments: filter, projection, sort, skip, limit.
FIND_ARGUMENTS = st.tuples(
    st.one_of(st.none(), st.lists(TERMS, max_size=3).map(lambda t: conjunction_filter(t, True))),
    st.sampled_from([None, {"a": 1}, {"b": 0, "_id": 0}]),
    st.sampled_from([None, [("a", 1)], [("b", -1), ("a", 1)], [("b", 1)]]),
    st.sampled_from([0, 0, 1, 3]),
    st.sampled_from([0, 0, 1, 2, 5]),
)


@settings(max_examples=500, deadline=None)
@given(STORED_ROWS, st.sampled_from([(), ("b",), ("a",)]), FIND_ARGUMENTS)
@example([{"a": 1, "b": 0}, {"a": 2, "b": 1}, {"a": 1, "b": 1}], (), ({"a": 1}, None, None, 0, 0))
@example([{"a": 1, "b": 0}, {"a": "a", "b": 1}], ("b",), ({"b": {"$gte": 0}}, None, None, 0, 0))
def test_a_find_selects_as_the_per_document_loop_did(rows, indexed, arguments):
    query, projection, sort, skip, limit = arguments
    collection = Collection(None, "t")
    for field in indexed:
        collection.create_index(field)
    collection.insert_many([{"_id": i, **row} for i, row in enumerate(rows)])
    collection.delete_one({"_id": 2})  # a hole in the record ids
    spec = FindSpec.create(query, projection, sort=sort, skip=skip, limit=limit)
    expected, scanned = loop_find(collection, spec)
    before = collection.operation_counters["documents_scanned"]
    found = collection.find(query, projection, sort=sort, skip=skip, limit=limit).to_list()
    assert typed(found) == typed(expected)
    assert collection.operation_counters["documents_scanned"] - before == scanned
    # count_documents counts what the loop selects, and counts as one query.
    everything, scanned = loop_find(collection, FindSpec.create(query))
    before = dict(collection.operation_counters)
    assert collection.count_documents(query) == len(everything)
    counted = {key: collection.operation_counters[key] - before[key] for key in before}
    assert counted == {**dict.fromkeys(before, 0), "queries": 1, "documents_scanned": scanned} or (
        not query and not any(counted.values())
    )


def test_a_candidate_deleted_after_planning_is_not_scanned():
    """An index plan's candidate that a concurrent write deleted is skipped, as the loop did."""
    collection = Collection(None, "t")
    collection.create_index("b")
    collection.insert_many([{"_id": i, "b": 1} for i in range(3)])
    plan = collection._plan_find(FindSpec.create({"b": 1}))
    collection.delete_one({"_id": 1})
    before = collection.operation_counters["documents_scanned"]
    found = collection._matches(plan, compile_matcher({"b": 1}))
    assert [document["_id"] for document in found.values()] == [0, 2]
    assert collection.operation_counters["documents_scanned"] - before == 2


def test_a_collection_scan_racing_writes_raises_nothing():
    """Whole scans (no sort, skip or limit) while another thread inserts and deletes."""
    collection = Collection(None, "t")
    collection.insert_many([{"_id": -i, "k": i % 7} for i in range(1, 200)])
    errors, done = [], threading.Event()

    def write():
        try:
            key = 0
            while not done.is_set():
                collection.insert_many([{"_id": key, "k": key % 7}, {"_id": key + 1, "k": 3}])
                collection.delete_many({"_id": {"$in": [key, key + 1]}})
                key += 2
        except Exception as error:  # reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    writer = threading.Thread(target=write, daemon=True)
    try:
        writer.start()
        for _round in range(200):
            assert all(doc["k"] == 3 for doc in collection.find({"k": 3}))
            collection.count_documents({"k": {"$gte": 2, "$lt": 5}})
            collection.distinct("k", {"k": {"$in": [1, 2]}})
    finally:
        done.set()
        writer.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert not errors
