"""The exact-type read kernels against their references, under random input.

* ``bson.deep_copy_document`` equals ``reference_copy.deep_copy_document``
  (types included: any mapping becomes a dict, any sequence a list) and
  shares no dict or list with its input;
* ``cursor.compile_projection``, with and without ``copy``, equals the
  reference projection applied to a deep copy, raises the same error class
  and message, never mutates its input, and with ``copy`` shares no dict or
  list with it;
* ``bson.value_size``/``document_size`` equal the reference sizes, errors
  included, and so does ``bulk.operation_size`` for an operation's wire form;
* a comparison or ``$in`` on a one-segment or dotted path decides a plain
  dict exactly as the general predicate decides the same document behind a
  ``MappingProxyType`` (which the scalar kernel never takes).
"""

from __future__ import annotations

import datetime
import enum
import math
from collections import OrderedDict
from types import MappingProxyType

import pytest
import reference_copy
from hypothesis import example, given, settings, strategies as st

from repro.documentstore import ObjectId
from repro.documentstore.bson import deep_copy_document, document_size, value_size
from repro.documentstore.bulk import (
    DeleteMany,
    DeleteOne,
    InsertOne,
    UpdateMany,
    UpdateOne,
    encode_operation,
    operation_size,
)
from repro.documentstore.cursor import compile_projection
from repro.documentstore.matching import _scalar_kernel, compile_matcher


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
        ("$nin", [1], False),
    ],
)
def test_scalar_kernel_scope(operator, operand, kernel):
    assert (_scalar_kernel(operator, operand) is not None) is kernel
