"""Property tests for the compiled matcher / expression layer.

The compiled forms — ``compile_matcher(q)(doc)`` and
``compile_expression(e)(doc)`` — must agree with the reference one-shot
forms ``matches(doc, q)`` and ``evaluate_expression(e, doc)`` for
every query/expression in the supported language, across the operator
matrix, dotted paths, and array (multikey) semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.documentstore import (
    Collection,
    compile_expression,
    compile_matcher,
    evaluate_expression,
    matches,
)


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
    {"a": {"$nin": [1, 2]}},
    {"a": {"$exists": True}},
    {"a": {"$exists": False}},
    {"a.b": {"$exists": True}},
    {"a": {"$type": "int"}},
    {"a": {"$type": "array"}},
    {"a": {"$type": "null"}},
    {"b": {"$regex": "^x"}},
    {"a": {"$mod": [2, 1]}},
    {"a": {"$size": 3}},
    {"a": {"$size": 0}},
    {"a": {"$all": [1, 2]}},
    {"a": {"$elemMatch": {"b": {"$gt": 1}}}},
    {"a": {"$not": {"$gt": 0}}},
    {"a": {"$not": 1}},
    {"a.b": 2},
    {"a.b": {"$in": [1, 4]}},
    {"a.0": 1},
    {"$and": [{"a": {"$gte": 0}}, {"a": {"$lte": 2}}]},
    {"$or": [{"a": 1}, {"b": 2}]},
    {"$nor": [{"a": 1}, {"b": 2}]},
    {"$and": [{"$or": [{"a": 1}, {"a.b": 2}]}, {"b": {"$exists": False}}]},
    {"$expr": {"$gt": ["$a", 0]}},
    {"$expr": {"$eq": ["$a.b", 2]}},
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


@given(document=_DOCS, choices=st.lists(_SCALARS, min_size=1, max_size=4),
       operator=st.sampled_from(["$in", "$nin"]))
@settings(max_examples=200, deadline=None)
def test_property_set_operators_agree(document, choices, operator):
    query = {"a": {operator: choices}}
    assert compile_matcher(query)(document) == matches(document, query)


@given(document=_DOCS, left=_SCALARS, right=_SCALARS)
@settings(max_examples=150, deadline=None)
def test_property_logical_trees_agree(document, left, right):
    query = {
        "$or": [
            {"a": left},
            {"$and": [{"b": {"$ne": right}}, {"c": {"$exists": True}}]},
            {"$nor": [{"a.b": right}]},
        ]
    }
    assert compile_matcher(query)(document) == matches(document, query)


EXPRESSIONS = [
    "$a",
    "$a.b",
    "$$ROOT",
    "$$CURRENT.a",
    "literal-string",
    7,
    None,
    True,
    {"$literal": "$a"},
    {"$add": ["$a", 1]},
    {"$subtract": [10, "$a"]},
    {"$multiply": ["$a", "$a"]},
    {"$cond": {"if": {"$gt": ["$a", 0]}, "then": "pos", "else": "neg"}},
    {"$cond": [{"$lte": ["$a", 0]}, 0, 1]},
    {"$ifNull": ["$missing", "$a", -1]},
    {"$eq": ["$a", 1]},
    {"$ne": ["$a", "$b"]},
    {"$cmp": ["$a", "$b"]},
    {"$in": ["$a", [1, 2, 3]]},
    {"$min": [3, "$a", None]},
    {"$max": "$list"},
    {"$sum": ["$a", "$list"]},
    {"$avg": "$list"},
    {"$and": [{"$gt": ["$a", 0]}, {"$lt": ["$a", 10]}]},
    {"$or": ["$missing", "$a"]},
    {"$not": ["$a"]},
    {"$concat": ["x", "$s"]},
    {"$toUpper": "$s"},
    {"$toString": "$a"},
    {"nested": {"value": "$a", "twice": {"$add": ["$a", "$a"]}}},
    ["$a", {"$add": [1, 1]}],
]


class TestCompiledExpressions:
    @staticmethod
    def _outcome(thunk):
        try:
            return ("value", thunk())
        except Exception as exc:  # noqa: BLE001 - comparing error behaviour
            return ("error", type(exc), str(exc))

    @pytest.mark.parametrize("expression", EXPRESSIONS, ids=[repr(e) for e in EXPRESSIONS])
    def test_compiled_matches_interpreter(self, expression):
        for document in (
            {"a": 1, "b": 2, "s": "hi", "list": [1, 2, 3]},
            {"a": None, "b": 0, "s": "x", "list": []},
            {"a": {"b": 4}, "s": "Y", "list": [5]},
        ):
            compiled = self._outcome(lambda: compile_expression(expression)(document))
            interpreted = self._outcome(lambda: evaluate_expression(expression, document))
            assert compiled == interpreted


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
