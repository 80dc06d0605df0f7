"""Tests for the query definitions."""

from __future__ import annotations

import pytest

from repro.tpcds import (
    QUERY_DEFINITIONS,
    QUERY_FEATURES,
    QUERY_IDS,
    query_definition,
    query_parameters,
)


class TestQueryDefinitions:
    def test_the_four_selected_queries(self):
        assert QUERY_IDS == (7, 21, 46, 50)
        assert set(QUERY_DEFINITIONS) == {7, 21, 46, 50}

    def test_table_35_feature_counts(self):
        assert QUERY_FEATURES[7]["tables"] == 5
        assert QUERY_FEATURES[21]["tables"] == 4
        assert QUERY_FEATURES[46]["tables"] == 6
        assert QUERY_FEATURES[50]["tables"] == 5
        assert QUERY_FEATURES[50]["conditional_constructs"] == 5
        assert QUERY_FEATURES[46]["correlated_subqueries"] == 1

    def test_each_query_meets_three_or_more_selection_criteria(self):
        """Section 3.4: every selected query satisfies >= 3 of the 5 criteria."""
        for query_id, features in QUERY_FEATURES.items():
            criteria_met = sum(
                [
                    features["tables"] >= 4,
                    features["aggregation_functions"] >= 1,
                    features["group_order_clauses"] >= 1,
                    features["conditional_constructs"] >= 1,
                    features["correlated_subqueries"] >= 1,
                ]
            )
            assert criteria_met >= 3, f"query {query_id} meets only {criteria_met} criteria"

    def test_sql_text_substitutes_parameters(self):
        sql = query_definition(7).sql()
        assert "cd_education_status = '4 yr Degree'" in sql
        assert "d_year = 2001" in sql

    def test_sql_text_with_custom_parameters(self):
        sql = query_definition(7).sql({"year": 1999, "gender": "F"})
        assert "d_year = 1999" in sql and "cd_gender = 'F'" in sql

    def test_query50_sql_contains_aging_buckets(self):
        sql = query_definition(50).sql()
        assert '"30 days"' in sql and '">120 days"' in sql

    def test_query_tables_listed(self):
        assert query_definition(21).tables == ("inventory", "warehouse", "item", "date_dim")
        assert "store_returns" in query_definition(50).fact_tables

    def test_query_parameters_default_and_scaled(self):
        assert query_parameters(50)["month"] == 10
        assert query_parameters(7, "large")["year"] == 2001

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            query_definition(99)

