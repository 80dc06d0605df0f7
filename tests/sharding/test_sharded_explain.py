"""Shard-side execution parity: index pushdown, explain, $out.

The router must execute shard stages through the same engine entry point as
a stand-alone collection, so an indexed leading ``$match`` runs as an IXSCAN
on every targeted shard (not a full shard scan) and ``$out`` writes the
collection a stand-alone deployment would.
"""

from __future__ import annotations

import pytest

from repro.documentstore import (
    EXECUTION_KEYS,
    PLANNER_KEYS,
    TOP_LEVEL_KEYS,
    DocumentStoreClient,
)
from repro.sharding import ShardedCluster


ROWS = [
    {"day": i % 30, "store": i % 8, "amount": float(i % 53), "order_id": i}
    for i in range(600)
]


@pytest.fixture()
def cluster():
    built = ShardedCluster(shard_count=3)
    built.enable_sharding("shop")
    built.shard_collection("shop", "orders", {"day": 1}, chunk_size_bytes=4_000)
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
            stages = [stage["stage"] for stage in shard_plan["executionStats"]["stages"]]
            assert stages == ["$match", "$group"]
        plan = explain["queryPlanner"]["winningPlan"]
        group = {"_id": "$day", "total": {"$sum": "$amount"}}
        # Each shard groups its slice into partial sums; the router combines them.
        assert plan["shardPart"] == [
            {"$match": {"store": 5}},
            {"$group": {**group, "$phase": "partial"}},
        ]
        assert plan["mergePart"] == [{"$group": {**group, "$phase": "merge"}}]
        assert plan["mergeStages"] == ["$group"]

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


class TestShardedOut:
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


# --------------------------------------------------------------------------
# A hashed cluster answers index DDL, sorted pipelines and explain like one
# stand-alone collection holding the same documents.
# --------------------------------------------------------------------------

CHUNKS = [{"_id": i, "doc_id": i, "score": (i * 13) % 23, "tenant": i % 3} for i in range(240)]

TENANT_SPEC = {"keys": [["tenant", 1], ["score", -1]], "name": "by_tenant"}


@pytest.fixture()
def hashed_cluster():
    built = ShardedCluster(shard_count=3)
    built.enable_sharding("rag")
    built.shard_collection("rag", "chunks", {"doc_id": "hashed"})
    built.get_database("rag")["chunks"].insert_many(CHUNKS)
    built.balance()
    yield built
    built.close()


@pytest.fixture()
def routed(hashed_cluster):
    collection = hashed_cluster.get_database("rag")["chunks"]
    collection.create_index(TENANT_SPEC)
    return collection


@pytest.fixture()
def standalone():
    collection = DocumentStoreClient()["rag"]["chunks"]
    collection.insert_many(CHUNKS)
    collection.create_index(TENANT_SPEC)
    return collection


def top_k(collection, k, *leading):
    """The *k* best-scored chunks, ties broken by ``_id``, after *leading* stages."""
    return collection.aggregate([*leading, {"$sort": {"score": -1, "_id": 1}}])[:k]


class TestShardedIndexesAndTopK:
    def test_index_created_on_every_shard(self, hashed_cluster, routed):
        for shard in hashed_cluster.router.shards:
            info = shard.collection("rag", "chunks").index_information()
            assert info["by_tenant"]["key"] == [("tenant", 1), ("score", -1)]

    def test_list_indexes_matches_standalone(self, routed, standalone):
        # The cluster adds a shard-key index; the shared spec is identical.
        sharded = {spec["name"]: spec for spec in routed.list_indexes()}
        local = {spec["name"]: spec for spec in standalone.list_indexes()}
        assert sharded["by_tenant"] == local["by_tenant"]

    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_top_k_matches_standalone(self, routed, standalone, k):
        sharded = top_k(routed, k)
        assert sharded == top_k(standalone, k)
        assert len(sharded) == k

    def test_filtered_top_k_matches_standalone(self, routed, standalone):
        sharded = top_k(routed, 9, {"$match": {"tenant": 1}})
        assert sharded == top_k(standalone, 9, {"$match": {"tenant": 1}})
        assert len(sharded) == 9 and all(doc["tenant"] == 1 for doc in sharded)

    def test_merge_stages_after_a_sort(self, routed, standalone):
        pipeline = [
            {"$sort": {"score": -1, "_id": 1}},
            {"$project": {"_id": 1, "score": 1}},
        ]
        assert routed.aggregate(pipeline) == standalone.aggregate(pipeline)

    def test_shard_key_filter_targets_one_shard(self, routed):
        plan = routed.explain([{"$match": {"doc_id": 7}}, {"$sort": {"score": -1}}])[
            "queryPlanner"
        ]["winningPlan"]
        assert plan["targeted"] is True
        assert len(plan["shardsContacted"]) == 1

    def test_an_unfiltered_pipeline_broadcasts(self, routed):
        plan = routed.explain([{"$sort": {"score": -1}}])["queryPlanner"][
            "winningPlan"
        ]
        assert plan["targeted"] is False
        assert len(plan["shardsContacted"]) == 3

    def test_unified_find_schema(self, routed):
        explain = routed.explain({"tenant": 1}, verbosity="executionStats")
        assert set(explain) == set(TOP_LEVEL_KEYS) | {"executionStats"}
        assert explain["surface"] == "sharded"
        assert explain["operation"] == "find"
        assert set(explain["queryPlanner"]) == set(PLANNER_KEYS)
        assert EXECUTION_KEYS <= set(explain["executionStats"])
        assert explain["executionStats"]["nReturned"] == 80
        for section in explain["shards"].values():
            assert set(section) == set(PLANNER_KEYS)
            assert section["winningPlan"]["indexName"] == "by_tenant"
