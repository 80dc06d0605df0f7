"""Tests for the aggregation expression language."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, strategies as st

from repro.documentstore import InvalidOperator, OperationFailure
from repro.documentstore.expressions import evaluate_expression, field_path_of


DOCUMENT = {
    "qty": 4,
    "price": 2.5,
    "inv_before": 30,
    "inv_after": 45,
    "sold": 2_450_900,
    "returned": 2_450_935,
    "item": {"id": "AAAA1", "price": 1.25},
    "tags": ["a", "b", "c"],
    "name": "Earl",
    "empty": None,
    "day": datetime.date(2002, 5, 29),
}


def ev(expression, document=DOCUMENT):
    return evaluate_expression(expression, document)


class TestFieldPathsAndLiterals:
    def test_field_path(self):
        assert ev("$qty") == 4

    def test_dotted_field_path(self):
        assert ev("$item.price") == 1.25

    def test_missing_field_is_none(self):
        assert ev("$missing") is None

    def test_plain_string_is_a_literal(self):
        assert ev("hello") == "hello"

    def test_literal_operator_protects_dollar_strings(self):
        assert ev({"$literal": "$qty"}) == "$qty"

    def test_root_variable(self):
        assert ev("$$ROOT")["qty"] == 4
        assert ev("$$ROOT.item.id") == "AAAA1"

    def test_unknown_variable_rejected(self):
        with pytest.raises(InvalidOperator):
            ev("$$BOGUS")

    def test_document_expression_evaluates_values(self):
        assert ev({"q": "$qty", "p": "$price"}) == {"q": 4, "p": 2.5}

    def test_is_field_path_helpers(self):
        assert field_path_of("$item.price") == "item.price"


class TestArithmetic:
    def test_add_subtract_multiply_divide(self):
        assert ev({"$add": ["$qty", 1, 5]}) == 10
        assert ev({"$subtract": ["$inv_after", "$inv_before"]}) == 15
        assert ev({"$multiply": ["$qty", "$price"]}) == 10.0
        assert ev({"$divide": ["$inv_after", "$inv_before"]}) == 1.5

    def test_date_key_subtraction_for_query50(self):
        """sr_returned_date_sk - ss_sold_date_sk gives the lag in days."""
        assert ev({"$subtract": ["$returned", "$sold"]}) == 35

    def test_divide_by_zero_raises(self):
        with pytest.raises(OperationFailure):
            ev({"$divide": [1, 0]})

    def test_null_operand_propagates(self):
        assert ev({"$add": ["$empty", 3]}) is None
        assert ev({"$subtract": ["$missing", 3]}) is None

    def test_mod_abs_floor_ceil_round(self):
        assert ev({"$mod": [7, 3]}) == 1
        assert ev({"$abs": -4}) == 4
        assert ev({"$floor": 2.7}) == 2
        assert ev({"$ceil": 2.1}) == 3
        assert ev({"$round": [2.456, 1]}) == 2.5

    def test_non_numeric_operand_rejected(self):
        with pytest.raises(OperationFailure):
            ev({"$add": ["$name", 1]})

    def test_subtract_requires_two_operands(self):
        with pytest.raises(OperationFailure):
            ev({"$subtract": [1, 2, 3]})


class TestComparisonAndBoolean:
    def test_eq_ne(self):
        assert ev({"$eq": ["$qty", 4]}) is True
        assert ev({"$ne": ["$qty", 4]}) is False

    def test_ordering_operators(self):
        assert ev({"$gt": ["$inv_after", "$inv_before"]}) is True
        assert ev({"$lte": ["$qty", 4]}) is True
        assert ev({"$lt": ["$price", 1]}) is False

    def test_cmp(self):
        assert ev({"$cmp": ["$qty", 10]}) < 0

    def test_and_or_not(self):
        assert ev({"$and": [{"$gt": ["$qty", 1]}, {"$lt": ["$qty", 10]}]}) is True
        assert ev({"$or": [{"$gt": ["$qty", 100]}, True]}) is True
        assert ev({"$not": [{"$gt": ["$qty", 100]}]}) is True

    def test_in_expression(self):
        assert ev({"$in": ["b", "$tags"]}) is True
        assert ev({"$in": ["z", "$tags"]}) is False

    def test_in_requires_array(self):
        with pytest.raises(OperationFailure):
            ev({"$in": ["b", "$qty"]})


class TestConditionals:
    def test_cond_array_form(self):
        """The Query 21 / 50 sum(case when ...) building block."""
        expression = {"$cond": [{"$lt": ["$price", 3]}, "$qty", 0]}
        assert ev(expression) == 4
        assert ev(expression, {**DOCUMENT, "price": 5.0}) == 0

    def test_cond_document_form(self):
        expression = {"$cond": {"if": {"$gt": ["$qty", 2]}, "then": "big", "else": "small"}}
        assert ev(expression) == "big"

    def test_cond_array_form_requires_three_elements(self):
        with pytest.raises(OperationFailure):
            ev({"$cond": [True, 1]})

    def test_if_null(self):
        assert ev({"$ifNull": ["$empty", "fallback"]}) == "fallback"
        assert ev({"$ifNull": ["$qty", "fallback"]}) == 4

    def test_switch(self):
        expression = {
            "$switch": {
                "branches": [
                    {"case": {"$lt": ["$qty", 2]}, "then": "few"},
                    {"case": {"$lt": ["$qty", 10]}, "then": "some"},
                ],
                "default": "many",
            }
        }
        assert ev(expression) == "some"

    def test_switch_without_match_or_default_raises(self):
        with pytest.raises(OperationFailure):
            ev({"$switch": {"branches": [{"case": False, "then": 1}]}})


class TestAggregatesAndArrays:
    def test_min_max_over_operands(self):
        assert ev({"$min": [3, "$qty", 9]}) == 3
        assert ev({"$max": [3, "$qty", 9]}) == 9

    def test_sum_and_avg_over_arrays(self):
        assert ev({"$sum": [1, 2, 3]}) == 6
        assert ev({"$avg": [2, 4]}) == 3

    def test_size_and_array_elem_at(self):
        assert ev({"$size": "$tags"}) == 3
        assert ev({"$arrayElemAt": ["$tags", 1]}) == "b"
        assert ev({"$arrayElemAt": ["$tags", -1]}) == "c"
        assert ev({"$arrayElemAt": ["$tags", 99]}) is None

    def test_concat_arrays(self):
        assert ev({"$concatArrays": ["$tags", ["d"]]}) == ["a", "b", "c", "d"]

    def test_filter_and_map(self):
        assert ev({"$filter": {"input": [1, 5, 9], "as": "n", "cond": {"$gt": ["$$n", 3]}}}) == [5, 9]
        assert ev({"$map": {"input": [1, 2], "as": "n", "in": {"$multiply": ["$$n", 10]}}}) == [10, 20]


class TestStringsAndDates:
    def test_concat_and_case(self):
        assert ev({"$concat": ["$name", "!"]}) == "Earl!"
        assert ev({"$toLower": "$name"}) == "earl"
        assert ev({"$toUpper": "$name"}) == "EARL"

    def test_concat_with_null_is_null(self):
        assert ev({"$concat": ["$empty", "x"]}) is None

    def test_substr_and_length(self):
        assert ev({"$substrCP": ["$name", 0, 2]}) == "Ea"
        assert ev({"$strLenCP": "$name"}) == 4

    def test_date_parts(self):
        assert ev({"$year": "$day"}) == 2002
        assert ev({"$month": "$day"}) == 5
        assert ev({"$dayOfMonth": "$day"}) == 29

    def test_type_conversions(self):
        assert ev({"$toString": "$qty"}) == "4"
        assert ev({"$toInt": "3"}) == 3
        assert ev({"$toDouble": "2.5"}) == 2.5

    def test_unknown_operator_rejected(self):
        with pytest.raises(InvalidOperator):
            ev({"$frobnicate": 1})

    def test_multiple_operators_in_one_document_rejected(self):
        with pytest.raises(InvalidOperator):
            ev({"$add": [1, 2], "$subtract": [1, 2]})


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_arithmetic_matches_python(a, b):
    document = {"a": a, "b": b}
    assert evaluate_expression({"$add": ["$a", "$b"]}, document) == a + b
    assert evaluate_expression({"$subtract": ["$a", "$b"]}, document) == a - b
    assert evaluate_expression({"$gt": ["$a", "$b"]}, document) == (a > b)


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=20))
def test_min_max_match_python(values):
    document = {"values": values}
    assert evaluate_expression({"$min": "$values"}, document) == min(values)
    assert evaluate_expression({"$max": "$values"}, document) == max(values)
