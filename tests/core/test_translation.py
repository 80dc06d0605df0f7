"""End-to-end correctness of the query translations.

For every evaluation query, three independent executions must agree:

1. a plain-Python reference implementation over the generated rows (the
   oracle — it performs the SQL semantics directly with dictionaries);
2. the denormalized-model aggregation pipeline (Appendix B);
3. the normalized-model client-side algorithm (Figure 4.8), on the
   stand-alone deployment and through the sharded cluster.
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro.core.translate_denormalized import denormalized_pipeline, run_denormalized_query
from repro.core.translate_normalized import normalized_final_pipeline, run_normalized_query
from repro.tpcds import query_parameters


# ---------------------------------------------------------------------------
# Reference implementations (the oracle)
# ---------------------------------------------------------------------------

def reference_query7(tables):
    params = query_parameters(7)
    dates = {r["d_date_sk"]: r for r in tables["date_dim"]}
    items = {r["i_item_sk"]: r for r in tables["item"]}
    demographics = {r["cd_demo_sk"]: r for r in tables["customer_demographics"]}
    promotions = {r["p_promo_sk"]: r for r in tables["promotion"]}

    groups: dict[str, list[dict]] = {}
    for sale in tables["store_sales"]:
        demographic = demographics[sale["ss_cdemo_sk"]]
        promotion = promotions[sale["ss_promo_sk"]]
        date = dates[sale["ss_sold_date_sk"]]
        if demographic["cd_gender"] != params["gender"]:
            continue
        if demographic["cd_marital_status"] != params["marital_status"]:
            continue
        if demographic["cd_education_status"] != params["education_status"]:
            continue
        if not (promotion["p_channel_email"] == "N" or promotion["p_channel_event"] == "N"):
            continue
        if date["d_year"] != params["year"]:
            continue
        groups.setdefault(items[sale["ss_item_sk"]]["i_item_id"], []).append(sale)

    rows = []
    for item_id in sorted(groups):
        sales = groups[item_id]
        rows.append(
            {
                "i_item_id": item_id,
                "agg1": sum(s["ss_quantity"] for s in sales) / len(sales),
                "agg2": sum(s["ss_list_price"] for s in sales) / len(sales),
                "agg3": sum(s["ss_coupon_amt"] for s in sales) / len(sales),
                "agg4": sum(s["ss_sales_price"] for s in sales) / len(sales),
            }
        )
    return rows


def reference_query21(tables):
    params = query_parameters(21)
    sales_date = params["sales_date"]
    start = (dt.date.fromisoformat(sales_date) - dt.timedelta(days=30)).isoformat()
    end = (dt.date.fromisoformat(sales_date) + dt.timedelta(days=30)).isoformat()
    dates = {r["d_date_sk"]: r for r in tables["date_dim"]}
    items = {r["i_item_sk"]: r for r in tables["item"]}
    warehouses = {r["w_warehouse_sk"]: r for r in tables["warehouse"]}

    groups: dict[tuple[str, str], dict[str, int]] = {}
    for row in tables["inventory"]:
        item = items[row["inv_item_sk"]]
        if not (params["price_min"] <= item["i_current_price"] <= params["price_max"]):
            continue
        date = dates[row["inv_date_sk"]]
        if not (start <= date["d_date"] <= end):
            continue
        warehouse = warehouses[row["inv_warehouse_sk"]]
        key = (warehouse["w_warehouse_name"], item["i_item_id"])
        bucket = groups.setdefault(key, {"before": 0, "after": 0})
        if date["d_date"] < sales_date:
            bucket["before"] += row["inv_quantity_on_hand"]
        else:
            bucket["after"] += row["inv_quantity_on_hand"]

    rows = []
    for (warehouse_name, item_id), bucket in sorted(groups.items()):
        if bucket["before"] <= 0:
            continue
        ratio = bucket["after"] / bucket["before"]
        if 2.0 / 3.0 <= ratio <= 3.0 / 2.0:
            rows.append(
                {
                    "w_warehouse_name": warehouse_name,
                    "i_item_id": item_id,
                    "inv_before": bucket["before"],
                    "inv_after": bucket["after"],
                }
            )
    return rows


def reference_query46(tables):
    params = query_parameters(46)
    cities = {c.strip().strip("'") for c in str(params["cities"]).split(",")}
    years = {params["year"], params["year"] + 1, params["year"] + 2}
    dates = {r["d_date_sk"]: r for r in tables["date_dim"]}
    stores = {r["s_store_sk"]: r for r in tables["store"]}
    households = {r["hd_demo_sk"]: r for r in tables["household_demographics"]}
    addresses = {r["ca_address_sk"]: r for r in tables["customer_address"]}
    customers = {r["c_customer_sk"]: r for r in tables["customer"]}

    groups: dict[tuple, dict[str, float]] = {}
    for sale in tables["store_sales"]:
        date = dates[sale["ss_sold_date_sk"]]
        store = stores[sale["ss_store_sk"]]
        household = households[sale["ss_hdemo_sk"]]
        if date["d_dow"] not in (6, 0) or date["d_year"] not in years:
            continue
        if store["s_city"] not in cities:
            continue
        if not (
            household["hd_dep_count"] == params["dep_count"]
            or household["hd_vehicle_count"] == params["vehicle_count"]
        ):
            continue
        customer = customers[sale["ss_customer_sk"]]
        bought_city = addresses[sale["ss_addr_sk"]]["ca_city"]
        current_city = addresses[customer["c_current_addr_sk"]]["ca_city"]
        if current_city == bought_city:
            continue
        key = (
            customer["c_last_name"],
            customer["c_first_name"],
            current_city,
            bought_city,
            sale["ss_ticket_number"],
            sale["ss_customer_sk"],
            sale["ss_addr_sk"],
        )
        bucket = groups.setdefault(key, {"amt": 0.0, "profit": 0.0})
        bucket["amt"] += sale["ss_coupon_amt"]
        bucket["profit"] += sale["ss_net_profit"]
    return groups


def reference_query50(tables):
    params = query_parameters(50)
    dates = {r["d_date_sk"]: r for r in tables["date_dim"]}
    stores = {r["s_store_sk"]: r for r in tables["store"]}
    sales_by_key = {}
    for sale in tables["store_sales"]:
        key = (sale["ss_ticket_number"], sale["ss_item_sk"], sale["ss_customer_sk"])
        sales_by_key.setdefault(key, []).append(sale)

    buckets_per_store: dict[str, list[int]] = {}
    for return_row in tables["store_returns"]:
        return_date = dates[return_row["sr_returned_date_sk"]]
        if return_date["d_year"] != params["year"] or return_date["d_moy"] != params["month"]:
            continue
        key = (
            return_row["sr_ticket_number"],
            return_row["sr_item_sk"],
            return_row["sr_customer_sk"],
        )
        for sale in sales_by_key.get(key, []):
            store_name = stores[sale["ss_store_sk"]]["s_store_name"]
            lag = return_row["sr_returned_date_sk"] - sale["ss_sold_date_sk"]
            counts = buckets_per_store.setdefault(
                stores[sale["ss_store_sk"]]["s_store_id"], [0, 0, 0, 0, 0]
            )
            if lag <= 30:
                counts[0] += 1
            elif lag <= 60:
                counts[1] += 1
            elif lag <= 90:
                counts[2] += 1
            elif lag <= 120:
                counts[3] += 1
            else:
                counts[4] += 1
    return buckets_per_store


@pytest.fixture(scope="module")
def tables(tiny_generator):
    return {name: tiny_generator.generate_table(name) for name in (
        "store_sales",
        "store_returns",
        "inventory",
        "date_dim",
        "item",
        "customer_demographics",
        "promotion",
        "store",
        "household_demographics",
        "customer_address",
        "customer",
        "warehouse",
    )}


# ---------------------------------------------------------------------------
# Denormalized pipelines against the oracle
# ---------------------------------------------------------------------------

class TestDenormalizedAgainstReference:
    def test_query7_matches_reference(self, denormalized_db, tables):
        expected = reference_query7(tables)
        actual = run_denormalized_query(denormalized_db, 7)
        assert [row["i_item_id"] for row in actual] == [row["i_item_id"] for row in expected]
        for actual_row, expected_row in zip(actual, expected):
            for measure in ("agg1", "agg2", "agg3", "agg4"):
                assert actual_row[measure] == pytest.approx(expected_row[measure])

    def test_query21_matches_reference(self, denormalized_db, tables):
        expected = reference_query21(tables)
        actual = run_denormalized_query(denormalized_db, 21)
        assert [(r["w_warehouse_name"], r["i_item_id"]) for r in actual] == [
            (r["w_warehouse_name"], r["i_item_id"]) for r in expected
        ]
        for actual_row, expected_row in zip(actual, expected):
            assert actual_row["inv_before"] == expected_row["inv_before"]
            assert actual_row["inv_after"] == expected_row["inv_after"]

    def test_query46_matches_reference(self, denormalized_db, tables):
        expected = reference_query46(tables)
        actual = run_denormalized_query(denormalized_db, 46)
        assert len(actual) == len(expected)
        expected_amounts = {
            (key[0], key[1], key[4]): bucket for key, bucket in expected.items()
        }
        for row in actual:
            key = (row["c_last_name"], row["c_first_name"], row["ss_ticket_number"])
            assert key in expected_amounts
            assert row["amt"] == pytest.approx(expected_amounts[key]["amt"])
            assert row["profit"] == pytest.approx(expected_amounts[key]["profit"])

    def test_query50_matches_reference(self, denormalized_db, tables):
        expected = reference_query50(tables)
        actual = run_denormalized_query(denormalized_db, 50)
        assert len(actual) == len(expected)
        total_expected = [sum(counts) for counts in expected.values()]
        labels = ("30 days", "31-60 days", "61-90 days", "91-120 days", ">120 days")
        total_actual = [sum(row[label] for label in labels) for row in actual]
        assert sorted(total_actual) == sorted(total_expected)

    def test_query_results_are_sorted(self, denormalized_db):
        rows = run_denormalized_query(denormalized_db, 7)
        ids = [row["i_item_id"] for row in rows]
        assert ids == sorted(ids)

    def test_out_stage_writes_result_collection(self, denormalized_db):
        results = run_denormalized_query(denormalized_db, 7, write_output=True)
        stored = denormalized_db["query7_output"].find({}).to_list()
        assert len(stored) == len(results) > 0


# ---------------------------------------------------------------------------
# Normalized algorithm (stand-alone and sharded) against the denormalized run
# ---------------------------------------------------------------------------

class TestNormalizedAgainstDenormalized:
    @pytest.mark.parametrize("query_id", [7, 21, 46, 50])
    def test_standalone_normalized_agrees(self, standalone_db, denormalized_db, query_id):
        denormalized = run_denormalized_query(denormalized_db, query_id)
        normalized = run_normalized_query(standalone_db, query_id)
        assert normalized.result_documents == len(denormalized)

    @pytest.mark.parametrize("query_id", [7, 21, 46, 50])
    def test_sharded_normalized_agrees(self, sharded_env, denormalized_db, query_id):
        _cluster, routed = sharded_env
        denormalized = run_denormalized_query(denormalized_db, query_id)
        sharded = run_normalized_query(routed, query_id)
        assert sharded.result_documents == len(denormalized)

    def test_query7_values_identical_between_models(self, standalone_db, denormalized_db):
        denormalized = run_denormalized_query(denormalized_db, 7)
        normalized = run_normalized_query(standalone_db, 7).results
        by_item_denormalized = {row["i_item_id"]: row for row in denormalized}
        by_item_normalized = {row["i_item_id"]: row for row in normalized}
        assert set(by_item_denormalized) == set(by_item_normalized)
        for item_id, row in by_item_denormalized.items():
            assert by_item_normalized[item_id]["agg1"] == pytest.approx(row["agg1"])

    def test_intermediate_collection_cleanup(self, standalone_db):
        run_normalized_query(standalone_db, 7)
        assert "query7_intermediate" not in standalone_db.list_collection_names() or (
            standalone_db["query7_intermediate"].count_documents({}) == 0
        )

    def test_report_contains_breakdown(self, standalone_db):
        report = run_normalized_query(standalone_db, 46)
        assert report.dimension_keys["store"] >= 1
        assert report.semi_join_documents >= report.result_documents
        assert "customer" in report.embedded_dimensions
        assert report.seconds > 0

    def test_write_output_creates_result_collection(self, standalone_db):
        report = run_normalized_query(standalone_db, 21, write_output=True)
        assert standalone_db["query21_output"].count_documents({}) == report.result_documents


class TestPipelineBuilders:
    def test_denormalized_pipeline_starts_with_match(self):
        for query_id in (7, 21, 46, 50):
            pipeline = denormalized_pipeline(query_id)
            assert "$match" in pipeline[0]

    def test_denormalized_pipeline_out_is_last(self):
        pipeline = denormalized_pipeline(7, out="target")
        assert pipeline[-1] == {"$out": "target"}

    def test_normalized_final_pipeline_has_no_leading_match(self):
        for query_id in (7, 21, 46):
            pipeline = normalized_final_pipeline(query_id)
            assert "$match" not in pipeline[0]

    def test_query50_final_pipeline_groups_by_store(self):
        pipeline = normalized_final_pipeline(50)
        group = pipeline[0]["$group"]
        assert group["_id"]["store"] == "$ss_store_sk.s_store_name"
        assert ">120 days" in group

    def test_pipeline_parameters_change_predicates(self):
        pipeline = denormalized_pipeline(7, {"year": 1998})
        match = pipeline[0]["$match"]["$and"]
        assert {"ss_sold_date_sk.d_year": 1998} in match

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            denormalized_pipeline(99)
