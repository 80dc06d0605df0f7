"""Shard-side execution parity: index pushdown, explain, $lookup/$out.

The router must execute shard stages through the same engine entry point as
a stand-alone collection, so an indexed leading ``$match`` runs as an IXSCAN
on every targeted shard (not a full shard scan) and ``$lookup``/``$out``
resolve collections identically on standalone and sharded deployments.
"""

from __future__ import annotations

import pytest

from repro.documentstore import DocumentStoreClient
from repro.sharding import ShardedCluster


ROWS = [
    {"day": i % 30, "store": i % 8, "amount": float(i % 53), "order_id": i}
    for i in range(600)
]


@pytest.fixture()
def cluster():
    built = ShardedCluster(shard_count=3)
    built.enable_sharding("shop")
    built.shard_collection(
        "shop", "orders", {"day": 1}, chunk_size_bytes=4_000, initial_chunks_per_shard=1
    )
    orders = built.get_database("shop")["orders"]
    orders.insert_many(ROWS)
    built.balance()
    built.reset_metrics()
    return built


class TestShardedAggregateExplain:
    def test_indexed_leading_match_reports_ixscan_on_every_shard(self, cluster):
        orders = cluster.get_database("shop")["orders"]
        orders.create_index("store")
        explain = orders.explain(
            [
                {"$match": {"store": 5}},
                {"$group": {"_id": "$day", "total": {"$sum": "$amount"}}},
            ]
        )
        assert explain["shards"], "expected at least one shard plan"
        for shard_plan in explain["shards"].values():
            winning = shard_plan["queryPlanner"]["winningPlan"]
            assert winning["stage"] == "IXSCAN"
            assert winning["indexName"] == "store_1"
            match_stage = shard_plan["executionStats"]["stages"][0]
            assert match_stage["stage"] == "$match"
            # Each shard examined only its index candidates, not its slice.
            assert match_stage["docsExamined"] < len(ROWS) // 3
            assert winning["pipelineStages"] == shard_plan["executionStats"]["stages"]
        assert explain["queryPlanner"]["winningPlan"]["mergeStages"] == ["$group"]

    def test_unindexed_match_reports_collscan(self, cluster):
        orders = cluster.get_database("shop")["orders"]
        explain = orders.explain([{"$match": {"store": 5}}])
        assert len(explain["shards"]) == cluster.shard_count
        for shard_plan in explain["shards"].values():
            assert shard_plan["queryPlanner"]["winningPlan"]["stage"] == "COLLSCAN"

    def test_shard_key_match_targets_subset_of_shards(self, cluster):
        orders = cluster.get_database("shop")["orders"]
        plan = orders.explain([{"$match": {"day": 3}}])["queryPlanner"]["winningPlan"]
        assert plan["targeted"] is True
        assert len(plan["shardsContacted"]) < cluster.shard_count

    def test_aggregate_results_match_standalone(self, cluster):
        pipeline = [
            {"$match": {"store": {"$in": [1, 2, 3]}}},
            {"$group": {"_id": "$store", "total": {"$sum": "$amount"}}},
            {"$sort": {"_id": 1}},
        ]
        client = DocumentStoreClient()
        standalone = client["shop"]["orders"]
        standalone.insert_many(ROWS)
        expected = [
            {"_id": row["_id"], "total": row["total"]}
            for row in standalone.aggregate(pipeline)
        ]
        sharded = cluster.get_database("shop")["orders"].aggregate(pipeline)
        assert [
            {"_id": row["_id"], "total": row["total"]} for row in sharded
        ] == expected


class TestShardedLookupAndOut:
    def test_lookup_in_merge_stages_resolves_cluster_collection(self, cluster):
        stores = cluster.get_database("shop")["stores"]
        stores.insert_many(
            [{"store": i, "region": "north" if i < 4 else "south"} for i in range(8)]
        )
        orders = cluster.get_database("shop")["orders"]
        results = orders.aggregate(
            [
                {"$match": {"day": 3}},
                {
                    "$lookup": {
                        "from": "stores",
                        "localField": "store",
                        "foreignField": "store",
                        "as": "store_info",
                    }
                },
            ]
        )
        assert results
        for row in results:
            assert len(row["store_info"]) == 1
            assert row["store_info"][0]["region"] in ("north", "south")

    def test_out_writes_merged_results_through_router(self, cluster):
        orders = cluster.get_database("shop")["orders"]
        returned = orders.aggregate(
            [
                {"$match": {"store": 2}},
                {"$group": {"_id": "$day", "total": {"$sum": "$amount"}}},
                {"$out": "daily_totals"},
            ]
        )
        assert returned == []
        written = cluster.get_database("shop")["daily_totals"].find().to_list()
        standalone_totals = {}
        for row in ROWS:
            if row["store"] == 2:
                standalone_totals.setdefault(row["day"], 0.0)
                standalone_totals[row["day"]] += row["amount"]
        assert {row["_id"]: row["total"] for row in written} == standalone_totals
