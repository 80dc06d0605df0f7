"""Index keys are collation keys: references and properties.

An index entry is one flat tuple — a type-rank slot and a payload per
indexed field, then the record id — that Python compares natively.  These
tests pin that order to :func:`compare_values` (the reference), the answers
of every index shape to a collection scan, what naive and tz-aware datetimes
do, and that index maintenance and lookups make no Python-level comparison.
"""

from __future__ import annotations

import datetime as dt
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.documentstore import Collection, ObjectId, collation_key, compare_values
from repro.documentstore import indexes, matching, ordering
from repro.documentstore.indexes import Index, IndexSpec

UTC = dt.timezone.utc
NAN = float("nan")

SCALARS = [
    None,
    True,
    False,
    0,
    1,
    -3,
    2**63 - 1,
    2**63,
    2**63 + 1,
    0.0,
    -0.0,
    1.0,
    2.5,
    float(2**63),
    math.inf,
    -math.inf,
    NAN,
    "",
    "a",
    "1",
    b"",
    b"a",
    ObjectId("0123456789abcdef01234567"),
    ObjectId("0123456789abcdef01234568"),
    dt.date(2020, 1, 1),
    dt.date(2020, 1, 2),
    dt.datetime(2020, 1, 1),
    dt.datetime(2020, 1, 1, 12, 30),
    dt.datetime(2020, 1, 1, tzinfo=UTC),
    dt.datetime(2020, 1, 1, 13, 30, tzinfo=dt.timezone(dt.timedelta(hours=1))),
]

SCALAR_VALUES = st.one_of(
    st.sampled_from(SCALARS),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.text(alphabet="a1", max_size=2),
)
VALUES = st.recursive(
    SCALAR_VALUES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from("pq"), children, max_size=2),
    max_leaves=6,
)


def sign(number: int) -> int:
    return (number > 0) - (number < 0)


@given(VALUES, VALUES)
@settings(max_examples=600, deadline=None)
def test_collation_keys_order_like_compare_values(left, right):
    expected = sign(compare_values(left, right))
    left_key, right_key = collation_key(left), collation_key(right)
    assert sign((left_key > right_key) - (left_key < right_key)) == expected
    assert (left_key == right_key) == (expected == 0)


def test_nan_has_one_place_below_every_number():
    assert compare_values(NAN, float("nan")) == 0
    for number in (-math.inf, -(2**63), -1, 0, 2.5, math.inf):
        assert compare_values(NAN, number) < 0 < compare_values(number, NAN)
    assert compare_values(True, NAN) < 0 < compare_values(NAN, True)
    assert sorted([2, NAN, -math.inf, False], key=collation_key)[:2] == [False, NAN]


class TestNaiveAndAwareDatetimes:
    """A naive datetime reads as UTC: one order, no error, on every plan."""

    NAIVE = dt.datetime(2020, 1, 1, 12)
    SAME_INSTANT = dt.datetime(2020, 1, 1, 13, tzinfo=dt.timezone(dt.timedelta(hours=1)))
    LATER = dt.datetime(2020, 1, 1, 12, 30, tzinfo=UTC)

    def test_compare_values_orders_them_by_instant(self):
        assert compare_values(self.NAIVE, self.SAME_INSTANT) == 0
        assert compare_values(self.NAIVE, self.LATER) < 0
        assert compare_values(dt.date(2020, 1, 2), self.LATER) > 0

    @pytest.mark.parametrize("indexed", [False, True])
    def test_an_index_holds_both_and_answers_like_a_scan(self, indexed):
        collection = Collection(None, "t")
        if indexed:
            collection.create_index("t")
        collection.insert_many(
            [
                {"_id": 1, "t": self.NAIVE},
                {"_id": 2, "t": self.SAME_INSTANT},
                {"_id": 3, "t": self.LATER},
                {"_id": 4, "t": dt.date(2020, 1, 1)},
            ]
        )
        ids = lambda query: sorted(d["_id"] for d in collection.find(query))  # noqa: E731
        assert ids({"t": self.NAIVE}) == [1, 2]
        assert ids({"t": {"$gt": self.NAIVE}}) == [3]
        assert ids({"t": {"$lt": self.SAME_INSTANT}}) == [4]
        ordered = collection.find({}, sort=[("t", -1), ("_id", 1)]).to_list()
        assert [d["_id"] for d in ordered] == [3, 1, 2, 4]


# -- every index shape answers like a collection scan --------------------------

#: Range and equality operands: scalars, plus an array and a document (which
#: bound no index and must fall back without changing the answer).
OPERANDS = st.one_of(SCALAR_VALUES, st.just([1, 2]), st.just({"p": 1}))
FIELD_VALUES = st.one_of(
    SCALAR_VALUES,
    st.lists(SCALAR_VALUES, max_size=3),  # multikey
    st.just([1, 2]),
    st.just({"p": 1}),
)
DOCUMENTS = st.lists(
    st.fixed_dictionaries(
        {"b": st.sampled_from([0, 1, "x"])},
        optional={
            "a": FIELD_VALUES,
            "s": st.lists(st.fixed_dictionaries({"a": FIELD_VALUES}), max_size=2),
        },
    ),
    max_size=12,
)
CONDITIONS = st.one_of(
    OPERANDS,
    st.builds(lambda v: {"$eq": v}, OPERANDS),
    st.builds(lambda vs: {"$in": vs}, st.lists(OPERANDS, max_size=3)),
    st.builds(lambda op, v: {op: v}, st.sampled_from(["$gt", "$gte", "$lt", "$lte"]), OPERANDS),
    st.builds(
        lambda low, v, high, w: {low: v, high: w},
        st.sampled_from(["$gt", "$gte"]),
        OPERANDS,
        st.sampled_from(["$lt", "$lte"]),
        OPERANDS,
    ),
)
SHAPES = {
    "single": lambda path: path,
    "compound": lambda path: [(path, 1), ("b", -1)],
    "hashed": lambda path: {path: "hashed"},
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@given(
    documents=DOCUMENTS,
    path=st.sampled_from(["a", "s.a"]),
    condition=CONDITIONS,
    b=st.none() | st.sampled_from([0, "x", {"$gte": 1}]),
)
@example(  # a dotted path through two matching subdocuments: one candidate, not two
    documents=[{"b": 0, "s": [{"a": 1}, {"a": 2}]}], path="s.a", condition={"$gte": 0}, b=None
)
@example(  # an array operand: a multikey index holds 1 and 2, not [1, 2]
    documents=[{"b": 0, "a": [1, 2]}], path="a", condition=[1, 2], b=None
)
@example(  # each bound met by a different subdocument: no entry lies between them
    documents=[{"b": 0, "s": [{"a": 2}, {"a": -1}]}],
    path="s.a",
    condition={"$gt": 1, "$lt": 0},
    b=None,
)
@example(  # bounds of two types, each met by its own array element
    documents=[{"b": 0, "a": ["b", 3]}], path="a", condition={"$gte": "a", "$lt": 5}, b=None
)
@settings(max_examples=150, deadline=None)
def test_index_scans_answer_like_collection_scans(shape, documents, path, condition, b):
    query = {path: condition} if b is None else {path: condition, "b": b}
    scanned = Collection(None, "scan")
    indexed = Collection(None, "index")
    indexed.create_index(SHAPES[shape](path))
    for collection in (scanned, indexed):
        collection.insert_many([{"_id": i, **document} for i, document in enumerate(documents)])
    expected = [d["_id"] for d in scanned.find(query)]
    assert sorted(d["_id"] for d in indexed.find(query)) == sorted(expected)
    assert indexed.count_documents(query) == len(expected)


# -- no Python-level comparison in the index -----------------------------------

EQUAL_KEY = dt.date(2020, 1, 1)  # compared through compare_values before collation keys


@pytest.fixture()
def refuse_python_comparisons(monkeypatch):
    def refuse(left, right):
        raise AssertionError(f"Python-level comparison of {left!r} and {right!r}")

    for module in (matching, ordering, indexes):
        monkeypatch.setattr(module, "compare_values", refuse, raising=False)


def test_index_work_on_20000_equal_keys_makes_no_python_comparison(refuse_python_comparisons):
    index = Index(IndexSpec.from_key_specification([("d", 1), ("o", 1)]))
    oid = ObjectId("0123456789abcdef01234567")
    index.rebuild((doc_id, {"d": EQUAL_KEY, "o": oid}) for doc_id in range(0, 40_000, 2))
    index.bulk_insert([(doc_id, {"d": EQUAL_KEY, "o": oid}) for doc_id in range(1, 200, 2)])
    index.insert({"d": EQUAL_KEY, "o": oid}, 20_001)
    assert len(index) == 20_101
    index.remove({"d": EQUAL_KEY, "o": oid}, 10_000)  # one bisect to the exact entry
    index.replace({"d": EQUAL_KEY, "o": oid}, {"d": EQUAL_KEY, "o": oid}, 20_001)
    assert len(index) == 20_100
    ids = index.prefix_lookup((EQUAL_KEY,))
    assert len(ids) == index.count_prefix((EQUAL_KEY,)) == 20_100
    assert ids == sorted(ids) and 10_000 not in ids  # equal keys in record-id order
    assert index.prefix_lookup((EQUAL_KEY, oid))[:3] == [0, 1, 2]
    assert index.count_range(dt.date(2019, 1, 1), dt.datetime(2020, 1, 1)) == 20_100
    assert index.count_range(EQUAL_KEY, None, include_lower=False) == 0

    unique = Index(IndexSpec.from_key_specification("_id", unique=True))
    unique.bulk_insert([(doc_id, {"_id": ObjectId()}) for doc_id in range(1_000)])
    unique.remove({"_id": EQUAL_KEY}, 5)
