"""Property tests for the compiled matcher / expression layer.

The compiled forms — ``compile_matcher(q)(doc)`` and
``compile_expression(e)(doc)`` — must agree with the references: the
one-shot ``matches(doc, q)`` and the recursive evaluator of
``reference_expression.py``, for every query/expression in the supported
language, across the operator matrix, dotted paths, and array (multikey)
semantics.
"""

from __future__ import annotations

import datetime

import pytest
import reference_expression
from hypothesis import given, settings, strategies as st

from repro.documentstore import Collection, compile_expression, compile_matcher, matches


DOCUMENTS = [
    {},
    {"a": 1},
    {"a": 0, "b": None},
    {"a": 1.0, "b": "x"},
    {"a": True},
    {"a": None},
    {"a": [1, 2, 3]},
    {"a": [], "b": 2},
    {"a": {"b": 2}},
    {"a": {"b": [1, 2]}},
    {"a": [{"b": 1}, {"b": 2}]},
    {"a": [{"b": [3, 4]}]},
    {"a": "1"},
    {"a": [None]},
    {"a": {"c": 5}, "b": [{"c": 6}]},
]

QUERIES = [
    None,
    {},
    {"a": 1},
    {"a": None},
    {"a": [1, 2, 3]},
    {"a": {"$eq": 1}},
    {"a": {"$ne": 1}},
    {"a": {"$gt": 0}},
    {"a": {"$gte": 1}},
    {"a": {"$lt": 2}},
    {"a": {"$lte": 1}},
    {"a": {"$gt": 0, "$lt": 2}},
    {"a": {"$in": [1, "x", None]}},
    {"a": {"$in": [[1, 2, 3]]}},
    {"a": {"$exists": True}},
    {"a": {"$exists": False}},
    {"a.b": {"$exists": True}},
    {"a.b": 2},
    {"a.b": {"$in": [1, 4]}},
    {"a.0": 1},
    {"$and": [{"a": {"$gte": 0}}, {"a": {"$lte": 2}}]},
    {"$or": [{"a": 1}, {"b": 2}]},
    {"$and": [{"$or": [{"a": 1}, {"a.b": 2}]}, {"b": {"$exists": False}}]},
]


class TestCompiledMatcherMatrix:
    @pytest.mark.parametrize("query", QUERIES, ids=[repr(q) for q in QUERIES])
    def test_compiled_matches_reference(self, query):
        predicate = compile_matcher(query)
        for document in DOCUMENTS:
            assert predicate(document) == matches(document, query), (
                query,
                document,
            )

    def test_compiled_predicate_is_reusable(self):
        predicate = compile_matcher({"a": {"$gte": 1}})
        assert [predicate(d) for d in ({"a": 1}, {"a": 0}, {"a": 2})] == [True, False, True]


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.text(alphabet="abxy", max_size=3),
)

_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), children, max_size=3),
    ),
    max_leaves=6,
)

_DOCS = st.dictionaries(st.sampled_from(["a", "b", "c"]), _VALUES, max_size=3)


@given(document=_DOCS, operand=_VALUES, operator=st.sampled_from(
    ["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"]
))
@settings(max_examples=200, deadline=None)
def test_property_comparison_operators_agree(document, operand, operator):
    query = {"a": {operator: operand}}
    assert compile_matcher(query)(document) == matches(document, query)


@given(document=_DOCS, choices=st.lists(_SCALARS, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_property_set_operators_agree(document, choices):
    query = {"a": {"$in": choices}}
    assert compile_matcher(query)(document) == matches(document, query)


@given(document=_DOCS, left=_SCALARS, right=_SCALARS)
@settings(max_examples=150, deadline=None)
def test_property_logical_trees_agree(document, left, right):
    query = {
        "$or": [
            {"a": left},
            {"$and": [{"b": {"$ne": right}}, {"c": {"$exists": True}}]},
            {"$or": [{"a.b": right}, {"c": {"$exists": False}}]},
        ]
    }
    assert compile_matcher(query)(document) == matches(document, query)


EXPRESSIONS = [
    "$a",
    "$a.b",
    "$$ROOT",
    "literal-string",
    7,
    None,
    True,
    {"$subtract": [10, "$a"]},
    {"$subtract": ["$s", 1]},
    {"$subtract": [1, 2, 3]},
    {"$divide": ["$a", 2]},
    {"$divide": ["$missing", 2]},
    {"$divide": [1, "$b"]},
    {"$cond": {"if": {"$gt": ["$a", 0]}, "then": "pos", "else": "neg"}},
    {"$cond": [{"$lte": ["$a", 1]}, 0, 1]},
    {"$cond": [True, 1]},
    {"$eq": ["$a", 1]},
    {"$ne": ["$a", "$b"]},
    {"$lt": ["$a", 1]},
    {"$gte": ["$a", "$b"]},
    {"$in": ["$a", [1, 2, 3]]},
    {"$in": ["$a", "$s"]},
    {"$sum": ["$a", "$list"]},
    {"$avg": "$list"},
    {"$and": [{"$gt": ["$a", 0]}, {"$lt": ["$a", 10]}]},
    {"$or": ["$missing", "$a"]},
    {"$add": [1, 1]},
    {"$divide": [1, 2], "$subtract": [1, 2]},
    {"nested": {"value": "$a", "ratio": {"$divide": ["$a", "$b"]}}},
    ["$a", {"$subtract": [1, 1]}],
    "$list.0",
    {"$literal": "$a"},
    {"$subtract": ["$a", "$b"]},
    {"$subtract": [True, 1]},
    {"$subtract": [datetime.date(2000, 1, 31), datetime.date(2000, 1, 1)]},
    {"$divide": ["$a", 0]},
    {"$divide": ["$list", 2]},
    {"$divide": [{"$subtract": ["$b", "$a"]}, "$b"]},
    {"$eq": ["$missing", None]},
    {"$eq": ["$list", [1, 2, 3]]},
    {"$gt": ["$s", 1]},
    {"$gt": ["$a.b", 3]},
    {"$lte": ["$list", "$list"]},
    {"$in": ["$missing", [None]]},
    {"$in": ["$b", "$list"]},
    {"$sum": "$list"},
    {"$sum": []},
    {"$sum": ["$a", 1.5, "$s"]},
    {"$sum": [{"$subtract": ["$b", 1]}, {"$divide": ["$b", 2]}]},
    {"$avg": ["$a", "$b"]},
    {"$avg": "$missing"},
    {"$cond": {"if": "$missing", "then": 1, "else": 2}},
    {"$cond": {"if": "$a", "then": "$s"}},
    {"$cond": [{"$in": ["$a", "$list"]}, "$s", "$b"]},
    {"$and": []},
    {"$or": []},
    {"$and": ["$list", "$s"]},
    {"$or": [{"$eq": ["$a", 3]}, {"$ne": ["$b", 0]}]},
    {"band": {"$cond": [{"$gte": ["$b", 2]}, "big", "small"]}, "pair": ["$b", 1]},
]


class TestCompiledExpressions:
    @staticmethod
    def _outcome(thunk):
        try:
            return ("value", thunk())
        except Exception as exc:  # noqa: BLE001 - comparing error behaviour
            return ("error", type(exc), str(exc))

    @pytest.mark.parametrize("expression", EXPRESSIONS, ids=[repr(e) for e in EXPRESSIONS])
    def test_compiled_matches_reference(self, expression):
        for document in (
            {"a": 1, "b": 2, "s": "hi", "list": [1, 2, 3]},
            {"a": None, "b": 0, "s": "x", "list": []},
            {"a": {"b": 4}, "s": "Y", "list": [5]},
            {"a": 3, "b": 3, "list": [1.5, True, "2"]},
        ):
            compiled = self._outcome(lambda: compile_expression(expression)(document))
            reference = self._outcome(lambda: reference_expression.evaluate(expression, document))
            assert compiled == reference, document


class TestPlannerEdgeCases:
    """$in combined with range bounds on a compound-index prefix."""

    @pytest.fixture()
    def collection(self):
        collection = Collection(None, "events")
        collection.insert_many(
            [
                {"store": i % 5, "day": i % 20, "amount": i}
                for i in range(400)
            ]
        )
        collection.create_index([("store", 1), ("day", 1)])
        return collection

    def _results_match_collscan(self, collection, query):
        planned = collection.find(query).to_list()
        predicate = compile_matcher(query)
        expected = [d for d in collection.raw_documents() if predicate(d)]
        assert sorted(d["amount"] for d in planned) == sorted(
            d["amount"] for d in expected
        )
        return planned

    def test_in_on_prefix_with_range_on_suffix(self, collection):
        query = {"store": {"$in": [1, 3]}, "day": {"$gte": 5, "$lt": 10}}
        plan = collection.explain(query)["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "IXSCAN"
        results = self._results_match_collscan(collection, query)
        assert results

    def test_in_and_range_on_same_leading_field(self, collection):
        query = {"store": {"$in": [0, 2], "$gte": 1}}
        self._results_match_collscan(collection, query)

    def test_range_on_prefix_in_on_suffix(self, collection):
        query = {"store": {"$gt": 1}, "day": {"$in": [3, 4]}}
        self._results_match_collscan(collection, query)

    def test_in_with_unindexed_extra_filter(self, collection):
        query = {"store": {"$in": [2]}, "amount": {"$lt": 100}}
        plan = collection.explain(query)["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "IXSCAN"
        self._results_match_collscan(collection, query)
