"""``$in`` / ``distinct`` against an independent reference.

The matcher compiles a ``$in`` operand into typed membership keys; these
tests pin it to the definition it replaces — ``any(values_equal(candidate,
choice) for choice in choices)`` spelled out in this file — over every value
type the store accepts, check that the answer does not depend on the access
path, and count (never time) the ``values_equal`` calls a large operand costs.
"""

from __future__ import annotations

import datetime as dt
import enum
import math
from collections import OrderedDict
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.documentstore import Collection, ObjectId, OperationFailure, compile_matcher
from repro.documentstore import matching
from repro.documentstore.matching import distinct_values, resolve_path, values_equal


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


UTC = dt.timezone.utc
NAN = float("nan")

#: A small pool drawn from on both sides, so hits are as common as misses.
POOL = [
    None,
    True,
    False,
    0,
    1,
    7,
    -3,
    2**63 - 1,
    2**63,
    2**63 + 1,
    0.0,
    -0.0,
    1.0,
    7.0,
    2.5,
    float(2**63),
    math.inf,
    -math.inf,
    NAN,
    "",
    "a",
    "1",
    b"a",
    b"",
    ObjectId("0123456789abcdef01234567"),
    ObjectId("0123456789abcdef01234568"),
    dt.date(2020, 1, 1),
    dt.datetime(2020, 1, 1),
    dt.datetime(2020, 1, 1, 12, 30),
    dt.datetime(2020, 1, 1, tzinfo=UTC),
    dt.datetime(2020, 1, 1, 1, tzinfo=dt.timezone(dt.timedelta(hours=1))),
    Level.LOW,
    Level.HIGH,
    [1, 2],
    [1.0, 2],
    [True],
    [],
    {"k": 1},
    {"k": 1.0},
    {"k": True},
    {"p": 1, "q": 2},
    {"q": 2, "p": 1},
    {},
]

#: Values Python's own ``==``/``hash`` would merge across BSON types.
LOOKALIKES = [True, False, 0, 1, 0.0, -0.0, 1.0, Level.LOW, NAN, "1", b"1"]

_VALUES = st.one_of(
    st.sampled_from(LOOKALIKES),
    st.sampled_from(POOL),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.text(alphabet="a1", max_size=2),
    st.binary(max_size=2),
)

#: Where the operand's field sits: a scalar, an array, absent, behind a dotted
#: path, behind a dotted path through an array of subdocuments — and in
#: "documents" that are not plain dicts, which must take the general walk.
_DOCUMENTS = st.one_of(
    st.builds(lambda v: {"a": v}, _VALUES),
    st.builds(lambda vs: {"a": vs}, st.lists(_VALUES, max_size=3)),
    st.just({"b": 1}),
    st.builds(lambda v: {"s": {"a": v}}, _VALUES),
    st.builds(lambda vs: {"s": [{"a": v} for v in vs]}, st.lists(_VALUES, max_size=3)),
    st.builds(lambda v: MappingProxyType({"a": v}), _VALUES),
    st.builds(lambda vs: [{"a": v} for v in vs], st.lists(_VALUES, max_size=3)),
)


def reference(document, path, choices):
    """``$in`` by definition: ``(answer, some pair cannot be compared)``.

    Each value the path resolves to is tested on its own (an array through
    its elements) and the document matches when any of them passes.
    """
    passed = raised = False
    for value in resolve_path(document, path) or [None]:
        equal = False
        for candidate in value if isinstance(value, (list, tuple)) else [value]:
            for choice in choices:
                try:
                    equal = equal or values_equal(candidate, choice)
                except OperationFailure:  # tz-aware against naive datetimes
                    raised = True
        passed = passed or equal
    return passed, raised


@given(
    document=_DOCUMENTS,
    choices=st.lists(_VALUES, max_size=5),
    path=st.sampled_from(["a", "s.a"]),
)
@settings(max_examples=400, deadline=None)
def test_property_set_operators_match_the_values_equal_reference(document, choices, path):
    expected, raised = reference(document, path, choices)
    try:
        outcome = compile_matcher({path: {"$in": choices}})(document)
    except OperationFailure:
        outcome = OperationFailure
    if raised:
        # The definition does not say which pair is looked at first.
        assert outcome in (expected, OperationFailure)
    else:
        assert outcome is expected


@given(values=st.lists(_VALUES, max_size=8))
@settings(max_examples=300, deadline=None)
def test_property_distinct_values_matches_the_quadratic_reference(values):
    expected = []
    try:
        for value in values:
            if not any(values_equal(value, existing) for existing in expected):
                expected.append(value)
    except OperationFailure:
        with pytest.raises(OperationFailure):  # naive against tz-aware datetimes
            distinct_values(values)
        return
    got = distinct_values(values)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


class TestScalingIsCounted:
    """O(1) per document whatever the operand size — counted, not timed."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counter = {"values_equal": 0}

        def counting(left, right):
            counter["values_equal"] += 1
            return values_equal(left, right)

        monkeypatch.setattr(matching, "values_equal", counting)
        return counter

    def test_large_integer_in_over_misses_never_calls_values_equal(self, calls):
        collection = Collection(None, "facts")
        collection.insert_many([{"fk": 10_000 + i} for i in range(2_000)])
        choices = list(range(2_000))
        assert collection.find({"fk": {"$in": choices}}).to_list() == []
        assert collection.count_documents({"fk": {"$in": choices}}) == 0
        assert calls["values_equal"] == 0

    def test_every_hashable_bson_type_hits_without_a_scan(self, calls):
        documents = [
            {"v": value}
            for value in (
                None, True, 3, 2.5, "s", b"b", ObjectId("0123456789abcdef01234567"),
                dt.date(2020, 1, 1), dt.datetime(2020, 1, 2),
            )
        ]
        collection = Collection(None, "typed")
        collection.insert_many(documents)
        choices = [document["v"] for document in documents] + list(range(100, 600))
        assert collection.count_documents({"v": {"$in": choices}}) == len(documents)
        assert calls["values_equal"] == 0

    def test_residual_operands_are_the_only_ones_scanned(self, calls):
        predicate = compile_matcher({"v": {"$in": [1, 2, 3, {"k": 1}, [4]]}})
        assert predicate({"v": 9}) is False
        assert calls["values_equal"] == 2  # the document and the array, not 1/2/3
        assert predicate({"v": {"k": 1.0}}) is True

    def test_distinct_of_keyed_values_never_calls_values_equal(self, calls):
        collection = Collection(None, "facts")
        collection.insert_many([{"fk": i % 500, "tag": f"t{i % 7}"} for i in range(2_000)])
        assert collection.distinct("fk") == list(range(500))
        assert collection.distinct("tag") == [f"t{i}" for i in range(7)]
        assert calls["values_equal"] == 0


class TestPlanIndependence:
    """``$in`` agrees with ``$eq`` and with the index on bool-vs-number."""

    DOCUMENTS = [
        {"k": 0, "x": True},
        {"k": 1, "x": False},
        {"k": 2, "x": 1},
        {"k": 3, "x": 1.0},
        {"k": 4, "x": 0},
        {"k": 5, "x": 0.0},
        {"k": 6, "x": NAN},
        {"k": 7, "x": [True, 2]},
        {"k": 8},
    ]
    CASES = [
        ({"$in": [1]}, [2, 3]),
        ({"$in": [1.0]}, [2, 3]),
        ({"$in": [True]}, [0, 7]),
        ({"$in": [False]}, [1]),
        ({"$in": [0]}, [4, 5]),
        ({"$in": [NAN]}, []),
        ({"$in": [NAN, 2]}, [7]),
    ]

    @pytest.fixture(params=["collscan", "ixscan"])
    def collection(self, request):
        collection = Collection(None, "flags")
        collection.insert_many(self.DOCUMENTS)
        if request.param == "ixscan":
            collection.create_index("x")
        return collection

    @pytest.mark.parametrize("condition, expected", CASES, ids=[repr(c) for c, _ in CASES])
    def test_bool_number_and_nan(self, collection, condition, expected):
        found = collection.find({"x": condition}).to_list()
        assert sorted(document["k"] for document in found) == expected

    @pytest.mark.parametrize("value", [1, 1.0, True, False, 0, NAN], ids=repr)
    def test_single_choice_in_is_eq(self, collection, value):
        by_in = collection.find({"x": {"$in": [value]}}).to_list()
        by_eq = collection.find({"x": value}).to_list()
        assert [d["k"] for d in by_in] == [d["k"] for d in by_eq]

    def test_the_identical_nan_object_still_matches_nothing(self):
        assert compile_matcher({"x": {"$in": [NAN]}})({"x": NAN}) is False
        assert compile_matcher({"x": NAN})({"x": NAN}) is False


class TestSingleSegmentPaths:
    """The one-``dict.get`` path is only for plain dicts; the rest still walk."""

    QUERIES = [
        {"a": 1},
        {"a": {"$in": [1, None]}},
        {"a": {"$exists": False}},
        {"a": {"$gt": 0}},
        {"a": 1, "b": 2},
        {"a": {"$gt": 0, "$lt": 2}},
    ]
    SHAPES = [
        {"a": 1, "b": 2},
        {"b": 2},
        {"a": [1, 3], "b": 2},
        {"a": None},
    ]

    @pytest.mark.parametrize("wrap", [MappingProxyType, OrderedDict], ids=["proxy", "ordered"])
    @pytest.mark.parametrize("query", QUERIES, ids=repr)
    def test_non_dict_mappings_match_like_dicts(self, query, wrap):
        predicate = compile_matcher(query)
        for shape in self.SHAPES:
            assert predicate(wrap(shape)) == predicate(shape), shape

    def test_array_of_subdocuments_as_the_document_fans_out(self):
        rows = [{"a": 1}, {"a": 5}, {"b": 2}]
        assert resolve_path(rows, "a") == [1, 5]
        assert compile_matcher({"a": 5})(rows) is True
        assert compile_matcher({"a": {"$in": [5]}})(rows) is True
        assert compile_matcher({"a": {"$in": [2]}})(rows) is False
        assert compile_matcher({"a": {"$exists": True}})(rows) is True
        assert compile_matcher({"a": {"$exists": True}})([{"b": 2}]) is False

    def test_conjunction_is_the_and_of_its_fields(self):
        fields = {"a": {"$in": [1, 2]}, "b": {"$gt": 0}, "c": {"$exists": False}}
        conjunction = compile_matcher(fields)
        singles = [compile_matcher({key: condition}) for key, condition in fields.items()]
        for a in (1, 3):
            for b in (0, 1):
                for extra in ({}, {"c": None}):
                    document = {"a": a, "b": b, **extra}
                    assert conjunction(document) == all(p(document) for p in singles)
        assert compile_matcher({"$and": []})({"a": 1}) is True
        assert compile_matcher({"$and": [{"a": 1}, {"b": 2}]})({"a": 1, "b": 3}) is False


class TestCollectionDistinct:
    def test_first_seen_order_array_fan_out_and_number_merging(self):
        collection = Collection(None, "t")
        collection.insert_many(
            [{"v": 2}, {"v": "x"}, {"v": [1, 2.0, "y"]}, {"v": 1.0}, {"v": True}, {}, {"v": None}]
        )
        assert [repr(v) for v in collection.distinct("v")] == [
            "2", "'x'", "1", "'y'", "True", "None"
        ]

    def test_documents_and_nan_keep_the_scan_semantics(self):
        collection = Collection(None, "t")
        collection.insert_many(
            [{"v": {"p": 1, "q": 2}}, {"v": {"q": 2, "p": 1.0}}, {"v": NAN}, {"v": NAN}, {"v": 1}]
        )
        values = collection.distinct("v")
        assert values[0] == {"p": 1, "q": 2} and values[-1] == 1
        assert len(values) == 4 and all(math.isnan(v) for v in values[1:3])

    def test_returns_copies(self):
        collection = Collection(None, "t")
        collection.insert_one({"_id": 1, "v": {"nested": [1]}})
        collection.distinct("v")[0]["nested"].append(2)
        assert collection.find_one({"_id": 1})["v"] == {"nested": [1]}
