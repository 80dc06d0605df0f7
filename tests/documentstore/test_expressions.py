"""Tests for the aggregation expression language."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, strategies as st

from repro.documentstore import InvalidOperator, OperationFailure, compile_expression


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
    return compile_expression(expression)(document)


class TestFieldPathsAndLiterals:
    def test_field_path(self):
        assert ev("$qty") == 4

    def test_dotted_field_path(self):
        assert ev("$item.price") == 1.25

    def test_missing_field_is_none(self):
        assert ev("$missing") is None

    def test_plain_string_is_a_literal(self):
        assert ev("hello") == "hello"

    def test_unknown_variable_rejected(self):
        with pytest.raises(InvalidOperator):
            ev("$$BOGUS")

    def test_document_expression_evaluates_values(self):
        assert ev({"q": "$qty", "p": "$price"}) == {"q": 4, "p": 2.5}

class TestArithmetic:
    def test_subtract_and_divide(self):
        assert ev({"$subtract": ["$inv_after", "$inv_before"]}) == 15
        assert ev({"$divide": ["$inv_after", "$inv_before"]}) == 1.5

    def test_date_key_subtraction_for_query50(self):
        """sr_returned_date_sk - ss_sold_date_sk gives the lag in days."""
        assert ev({"$subtract": ["$returned", "$sold"]}) == 35

    def test_divide_by_zero_raises(self):
        with pytest.raises(OperationFailure):
            ev({"$divide": [1, 0]})

    def test_null_operand_propagates(self):
        assert ev({"$divide": ["$empty", 3]}) is None
        assert ev({"$subtract": ["$missing", 3]}) is None

    def test_non_numeric_operand_rejected(self):
        with pytest.raises(OperationFailure):
            ev({"$subtract": ["$name", 1]})

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

    def test_and_or(self):
        assert ev({"$and": [{"$gt": ["$qty", 1]}, {"$lt": ["$qty", 10]}]}) is True
        assert ev({"$or": [{"$gt": ["$qty", 100]}, True]}) is True

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


class TestAggregates:
    def test_sum_and_avg_over_arrays(self):
        assert ev({"$sum": [1, 2, 3]}) == 6
        assert ev({"$avg": [2, 4]}) == 3


class TestRefusals:
    def test_unknown_operator_rejected(self):
        with pytest.raises(InvalidOperator):
            ev({"$frobnicate": 1})

    def test_multiple_operators_in_one_document_rejected(self):
        with pytest.raises(InvalidOperator):
            ev({"$divide": [1, 2], "$subtract": [1, 2]})


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_arithmetic_matches_python(a, b):
    document = {"a": a, "b": b}
    assert ev({"$subtract": ["$a", "$b"]}, document) == a - b
    assert ev({"$gt": ["$a", "$b"]}, document) == (a > b)

