"""Tests for the structured query specifications."""

from __future__ import annotations

import pytest

from repro.core.queryspec import QUERY_SPECS, date_sk_for, query_spec


class TestDateSurrogateKeys:
    def test_base_date(self):
        assert date_sk_for("1998-01-01") == 2_450_815

    def test_known_offset(self):
        assert date_sk_for("1998-01-31") == 2_450_815 + 30

    def test_matches_generator_keys(self, tiny_generator):
        dates = tiny_generator.generate_table("date_dim")
        sample = dates[500]
        assert date_sk_for(sample["d_date"]) == sample["d_date_sk"]


class TestQuery7Spec:
    def test_fact_and_dimensions(self):
        spec = QUERY_SPECS[7]
        assert spec.fact_collection == "store_sales"
        assert {d.collection for d in spec.dimensions} == {
            "customer_demographics",
            "date_dim",
            "promotion",
            "item",
        }

    def test_filters_follow_sql_predicates(self):
        spec = QUERY_SPECS[7]
        demographics = next(d for d in spec.dimensions if d.collection == "customer_demographics")
        assert demographics.filter == {
            "cd_gender": "M",
            "cd_marital_status": "M",
            "cd_education_status": "4 yr Degree",
        }
        dates = next(d for d in spec.dimensions if d.collection == "date_dim")
        assert dates.filter == {"d_year": 2001}

    def test_only_item_is_embedded_for_aggregation(self):
        spec = QUERY_SPECS[7]
        assert [d.collection for d in spec.embedded_dimensions()] == ["item"]

    def test_parameter_overrides_flow_into_filters(self):
        spec = query_spec(7, {"year": 1999, "gender": "F"})
        dates = next(d for d in spec.dimensions if d.collection == "date_dim")
        demographics = next(
            d for d in spec.dimensions if d.collection == "customer_demographics"
        )
        assert dates.filter["d_year"] == 1999
        assert demographics.filter["cd_gender"] == "F"


class TestQuery21Spec:
    def test_price_band_filter(self):
        spec = QUERY_SPECS[21]
        item = next(d for d in spec.dimensions if d.collection == "item")
        assert item.filter == {"i_current_price": {"$gte": 0.99, "$lte": 1.49}}

    def test_date_window_is_sixty_one_days(self):
        spec = QUERY_SPECS[21]
        dates = next(d for d in spec.dimensions if d.collection == "date_dim")
        window = dates.filter["d_date"]
        assert window == {"$gte": "2002-04-29", "$lte": "2002-06-28"}

    def test_all_three_dimensions_embedded(self):
        spec = QUERY_SPECS[21]
        assert {d.collection for d in spec.embedded_dimensions()} == {
            "item",
            "date_dim",
            "warehouse",
        }


class TestQuery46Spec:
    def test_city_and_year_filters(self):
        spec = QUERY_SPECS[46]
        store = next(d for d in spec.dimensions if d.collection == "store")
        assert store.filter == {"s_city": {"$in": ["Fairview", "Midway"]}}
        dates = next(d for d in spec.dimensions if d.collection == "date_dim")
        assert dates.filter["d_dow"] == {"$in": [6, 0]}
        assert dates.filter["d_year"] == {"$in": [1998, 1999, 2000]}

    def test_household_filter_is_disjunctive(self):
        spec = QUERY_SPECS[46]
        household = next(
            d for d in spec.dimensions if d.collection == "household_demographics"
        )
        assert household.filter == {
            "$or": [{"hd_dep_count": 2}, {"hd_vehicle_count": 3}]
        }

    def test_customer_and_address_embedded(self):
        spec = QUERY_SPECS[46]
        assert {d.collection for d in spec.embedded_dimensions()} == {
            "customer",
            "customer_address",
        }


class TestQuery50Spec:
    def test_fact_join_on_ticket_item_customer(self):
        spec = QUERY_SPECS[50]
        assert spec.fact_join is not None
        assert spec.fact_join.collection == "store_returns"
        assert spec.fact_join.join_fields == (
            ("ss_ticket_number", "sr_ticket_number"),
            ("ss_item_sk", "sr_item_sk"),
            ("ss_customer_sk", "sr_customer_sk"),
        )

    def test_return_date_filter_lives_on_secondary_fact(self):
        spec = QUERY_SPECS[50]
        return_dates = spec.fact_join.dimensions[0]
        assert return_dates.fact_field == "sr_returned_date_sk"
        assert return_dates.filter == {"d_year": 1998, "d_moy": 10}

    def test_store_embedded_for_grouping(self):
        spec = QUERY_SPECS[50]
        assert [d.collection for d in spec.embedded_dimensions()] == ["store"]


class TestSpecConsistency:
    def test_specs_exist_for_all_four_queries(self):
        assert set(QUERY_SPECS) == {7, 21, 46, 50}

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            query_spec(3)

    def test_filtered_dimensions_subset_of_dimensions(self):
        for spec in QUERY_SPECS.values():
            for dimension in spec.filtered_dimensions():
                assert any(dimension is candidate for candidate in spec.dimensions)

    def test_output_collection_names(self):
        for query_id, spec in QUERY_SPECS.items():
            if spec.output_collection:
                assert spec.output_collection == f"query{query_id}_output"
