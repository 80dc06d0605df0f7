"""Tests for the query-filter matcher."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.documentstore import InvalidOperator, matches, resolve_path, resolve_path_single
from repro.documentstore.matching import compare_values, compile_matcher, path_exists, values_equal


DOCUMENT = {
    "ss_quantity": 42,
    "ss_sold_date_sk": {"d_year": 2001, "d_date": "2001-06-15", "d_dow": 0},
    "ss_item_sk": {"i_item_id": "AAAA0001", "i_current_price": 1.25},
    "tags": ["red", "blue"],
    "lines": [{"qty": 1, "sku": "a"}, {"qty": 5, "sku": "b"}],
    "nothing": None,
}


class TestPathResolution:
    def test_top_level_field(self):
        assert resolve_path(DOCUMENT, "ss_quantity") == [42]

    def test_dotted_path_into_embedded_document(self):
        assert resolve_path(DOCUMENT, "ss_sold_date_sk.d_year") == [2001]

    def test_dotted_path_fans_out_over_arrays(self):
        assert resolve_path(DOCUMENT, "lines.qty") == [1, 5]

    def test_numeric_path_component_indexes_arrays(self):
        assert resolve_path(DOCUMENT, "lines.1.sku") == ["b"]

    def test_missing_path_yields_nothing(self):
        assert resolve_path(DOCUMENT, "missing.path") == []

    def test_resolve_single_returns_default(self):
        assert resolve_path_single(DOCUMENT, "missing", default="fallback") == "fallback"

    def test_path_exists_distinguishes_null_from_missing(self):
        assert path_exists(DOCUMENT, "nothing")
        assert not path_exists(DOCUMENT, "absent")


class TestComparisonOperators:
    def test_implicit_equality(self):
        assert matches(DOCUMENT, {"ss_quantity": 42})
        assert not matches(DOCUMENT, {"ss_quantity": 43})

    def test_equality_on_dotted_path(self):
        assert matches(DOCUMENT, {"ss_sold_date_sk.d_year": 2001})

    def test_gt_gte_lt_lte(self):
        assert matches(DOCUMENT, {"ss_quantity": {"$gt": 41}})
        assert matches(DOCUMENT, {"ss_quantity": {"$gte": 42}})
        assert matches(DOCUMENT, {"ss_quantity": {"$lt": 43}})
        assert matches(DOCUMENT, {"ss_quantity": {"$lte": 42}})
        assert not matches(DOCUMENT, {"ss_quantity": {"$gt": 42}})

    def test_range_with_both_bounds(self):
        assert matches(DOCUMENT, {"ss_item_sk.i_current_price": {"$gte": 0.99, "$lte": 1.49}})
        assert not matches(DOCUMENT, {"ss_item_sk.i_current_price": {"$gte": 2.0, "$lte": 3.0}})

    def test_string_range_comparison_for_iso_dates(self):
        """Query 21 compares ISO date strings lexicographically."""
        assert matches(
            DOCUMENT,
            {"ss_sold_date_sk.d_date": {"$gte": "2001-01-01", "$lte": "2001-12-31"}},
        )

    def test_ne(self):
        assert matches(DOCUMENT, {"ss_quantity": {"$ne": 41}})
        assert not matches(DOCUMENT, {"ss_quantity": {"$ne": 42}})

    def test_comparison_across_types_never_matches(self):
        assert not matches(DOCUMENT, {"ss_quantity": {"$gt": "41"}})


class TestSetOperators:
    def test_in(self):
        assert matches(DOCUMENT, {"ss_sold_date_sk.d_dow": {"$in": [6, 0]}})
        assert not matches(DOCUMENT, {"ss_sold_date_sk.d_dow": {"$in": [2, 3]}})

    def test_in_matches_array_elements(self):
        assert matches(DOCUMENT, {"tags": {"$in": ["blue", "green"]}})

    def test_nin(self):
        assert matches(DOCUMENT, {"ss_quantity": {"$nin": [1, 2, 3]}})
        assert not matches(DOCUMENT, {"ss_quantity": {"$nin": [42]}})

    def test_in_requires_list(self):
        with pytest.raises(InvalidOperator):
            matches(DOCUMENT, {"ss_quantity": {"$in": 42}})


class TestLogicalOperators:
    def test_and(self):
        assert matches(
            DOCUMENT,
            {"$and": [{"ss_quantity": {"$gt": 40}}, {"ss_sold_date_sk.d_year": 2001}]},
        )

    def test_or(self):
        assert matches(
            DOCUMENT,
            {"$or": [{"ss_quantity": 0}, {"ss_sold_date_sk.d_year": 2001}]},
        )
        assert not matches(DOCUMENT, {"$or": [{"ss_quantity": 0}, {"ss_quantity": 1}]})

    def test_nor(self):
        assert matches(DOCUMENT, {"$nor": [{"ss_quantity": 0}, {"ss_quantity": 1}]})

    def test_not(self):
        assert matches(DOCUMENT, {"ss_quantity": {"$not": {"$gt": 100}}})
        assert not matches(DOCUMENT, {"ss_quantity": {"$not": {"$gt": 10}}})

    def test_unknown_top_level_operator_rejected(self):
        with pytest.raises(InvalidOperator):
            matches(DOCUMENT, {"$unknown": []})

    def test_unknown_field_operator_rejected(self):
        with pytest.raises(InvalidOperator):
            matches(DOCUMENT, {"ss_quantity": {"$frobnicate": 1}})


class TestElementOperators:
    def test_exists_true(self):
        assert matches(DOCUMENT, {"ss_item_sk.i_item_id": {"$exists": True}})
        assert not matches(DOCUMENT, {"missing_field": {"$exists": True}})

    def test_exists_false(self):
        assert matches(DOCUMENT, {"missing_field": {"$exists": False}})
        assert not matches(DOCUMENT, {"ss_quantity": {"$exists": False}})

    def test_null_field_exists(self):
        assert matches(DOCUMENT, {"nothing": {"$exists": True}})

    def test_type(self):
        assert matches(DOCUMENT, {"ss_quantity": {"$type": "int"}})
        assert matches(DOCUMENT, {"tags": {"$type": "array"}})
        assert not matches(DOCUMENT, {"ss_quantity": {"$type": "string"}})

    def test_unknown_type_alias_rejected(self):
        with pytest.raises(InvalidOperator):
            matches(DOCUMENT, {"ss_quantity": {"$type": "quux"}})


class TestEvaluationAndArrayOperators:
    def test_regex(self):
        assert matches(DOCUMENT, {"ss_item_sk.i_item_id": {"$regex": "^AAAA"}})
        assert not matches(DOCUMENT, {"ss_item_sk.i_item_id": {"$regex": "^ZZZZ"}})

    def test_mod(self):
        assert matches(DOCUMENT, {"ss_quantity": {"$mod": [7, 0]}})
        assert not matches(DOCUMENT, {"ss_quantity": {"$mod": [5, 1]}})

    def test_size(self):
        assert matches(DOCUMENT, {"tags": {"$size": 2}})
        assert not matches(DOCUMENT, {"tags": {"$size": 3}})

    def test_all(self):
        assert matches(DOCUMENT, {"tags": {"$all": ["red", "blue"]}})
        assert not matches(DOCUMENT, {"tags": {"$all": ["red", "green"]}})

    def test_elem_match(self):
        assert matches(DOCUMENT, {"lines": {"$elemMatch": {"qty": {"$gt": 3}, "sku": "b"}}})
        assert not matches(DOCUMENT, {"lines": {"$elemMatch": {"qty": {"$gt": 3}, "sku": "a"}}})


class TestExprAndEquality:
    def test_expr_filter(self):
        assert matches(DOCUMENT, {"$expr": {"$gt": ["$ss_quantity", 40]}})

    def test_values_equal_numeric_promotion(self):
        assert values_equal(1, 1.0)
        assert not values_equal(True, 1)

    def test_empty_filter_matches_everything(self):
        assert matches(DOCUMENT, {})
        assert matches(DOCUMENT, None)

    def test_compile_matcher_is_reusable(self):
        predicate = compile_matcher({"ss_quantity": {"$gte": 40}})
        assert predicate(DOCUMENT)
        assert not predicate({"ss_quantity": 1})


class TestCompareValues:
    def test_total_order_across_types(self):
        assert compare_values(None, 5) < 0
        assert compare_values(5, "text") < 0
        assert compare_values("text", {"a": 1}) < 0

    def test_numeric_comparison(self):
        assert compare_values(2, 10) < 0
        assert compare_values(10.5, 10) > 0
        assert compare_values(3, 3.0) == 0

    def test_list_comparison_is_elementwise(self):
        assert compare_values([1, 2], [1, 3]) < 0
        assert compare_values([1, 2, 3], [1, 2]) > 0


@given(st.lists(st.integers(), min_size=1, max_size=20), st.integers())
def test_in_operator_agrees_with_python_membership(values, needle):
    document = {"value": needle}
    assert matches(document, {"value": {"$in": values}}) == (needle in values)


@given(st.integers(), st.integers())
def test_comparison_operators_agree_with_python(left, right):
    document = {"value": left}
    assert matches(document, {"value": {"$gt": right}}) == (left > right)
    assert matches(document, {"value": {"$lte": right}}) == (left <= right)
