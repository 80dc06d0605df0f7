"""Cluster-wide vector search: routed ``$vectorSearch`` parity and explain."""

from __future__ import annotations

import pytest

from repro.documentstore import (
    EXECUTION_KEYS,
    PLANNER_KEYS,
    TOP_LEVEL_KEYS,
    DocumentStoreClient,
)
from repro.sharding import ShardedCluster

DIMS = 4

DOCS = [
    {
        "_id": i,
        "doc_id": i,
        "embedding": [float((i * 13 + axis * 5) % 23) for axis in range(DIMS)],
        "tenant": i % 3,
    }
    for i in range(240)
]

VECTOR_SPEC = {"keys": ["embedding"], "type": "vector", "dims": DIMS}

QUERY = [11.0, 7.0, 3.0, 17.0]


@pytest.fixture()
def cluster():
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("rag")
    cluster.shard_collection("rag", "chunks", {"doc_id": "hashed"})
    cluster.get_database("rag")["chunks"].insert_many(DOCS)
    cluster.balance()
    yield cluster
    cluster.close()


@pytest.fixture()
def routed(cluster):
    collection = cluster.get_database("rag")["chunks"]
    collection.create_index(VECTOR_SPEC)
    return collection


@pytest.fixture()
def standalone():
    collection = DocumentStoreClient()["rag"]["chunks"]
    collection.insert_many(DOCS)
    collection.create_index(VECTOR_SPEC)
    return collection


# Exact mode keeps per-shard rankings free of IVF training differences, so
# sharded results must match the stand-alone engine bit for bit.
def exact_search(collection, k, **extra):
    spec = {"queryVector": QUERY, "k": k, "exact": True, **extra}
    return collection.aggregate([{"$vectorSearch": spec}])


class TestShardedParity:
    def test_index_created_on_every_shard(self, cluster, routed):
        for shard in cluster.router.shards:
            info = shard.collection("rag", "chunks").index_information()
            assert info["embedding_vector"]["type"] == "vector"

    def test_list_indexes_matches_standalone(self, routed, standalone):
        # The cluster adds a shard-key index; the vector index spec itself
        # must round-trip identically on both surfaces.
        sharded = {s["name"]: s for s in routed.list_indexes()}
        local = {s["name"]: s for s in standalone.list_indexes()}
        assert sharded["embedding_vector"] == local["embedding_vector"]

    def test_topk_ids_and_scores_match_standalone(self, routed, standalone):
        for k in (1, 5, 17):
            sharded = exact_search(routed, k)
            local = exact_search(standalone, k)
            assert [(d["_id"], d["_score"]) for d in sharded] == [
                (d["_id"], d["_score"]) for d in local
            ]

    def test_prefiltered_search_matches_standalone(self, routed, standalone):
        sharded = exact_search(routed, 9, filter={"tenant": 1})
        local = exact_search(standalone, 9, filter={"tenant": 1})
        assert sharded == local
        assert all(doc["tenant"] == 1 for doc in sharded)

    def test_merge_stages_after_vector_search(self, routed, standalone):
        pipeline = [
            {"$vectorSearch": {"queryVector": QUERY, "k": 12, "exact": True}},
            {"$project": {"_id": 1, "_score": 1}},
            {"$limit": 4},
        ]
        assert routed.aggregate(pipeline) == standalone.aggregate(pipeline)

    def test_shard_key_filter_targets_subset(self, cluster, routed):
        plan = routed.explain(
            [
                {
                    "$vectorSearch": {
                        "queryVector": QUERY,
                        "k": 5,
                        "exact": True,
                        "filter": {"doc_id": 7},
                    }
                }
            ],
        )["queryPlanner"]["winningPlan"]
        assert plan["targeted"] is True
        assert len(plan["shardsContacted"]) == 1

    def test_unfiltered_vector_search_broadcasts(self, cluster, routed):
        plan = routed.explain(
            [{"$vectorSearch": {"queryVector": QUERY, "k": 5, "exact": True}}]
        )["queryPlanner"]["winningPlan"]
        assert plan["targeted"] is False
        assert len(plan["shardsContacted"]) == 3


class TestShardedExplain:
    def test_unified_find_schema(self, routed):
        explain = routed.explain({"tenant": 1}, verbosity="executionStats")
        assert set(explain) == set(TOP_LEVEL_KEYS) | {"executionStats"}
        assert explain["surface"] == "sharded"
        assert explain["operation"] == "find"
        assert set(explain["queryPlanner"]) == set(PLANNER_KEYS)
        assert EXECUTION_KEYS <= set(explain["executionStats"])
        assert explain["shards"]

    def test_unified_aggregate_schema(self, routed):
        explain = routed.explain(
            [{"$vectorSearch": {"queryVector": QUERY, "k": 5, "exact": True}}],
            verbosity="executionStats",
        )
        assert set(explain) == set(TOP_LEVEL_KEYS) | {"executionStats"}
        assert explain["surface"] == "sharded"
        assert explain["operation"] == "aggregate"
        assert explain["executionStats"]["nReturned"] == 5
        for shard_explain in explain["shards"].values():
            plan = shard_explain["queryPlanner"]["winningPlan"]
            assert plan["stage"] == "VECTOR_SEARCH"

    def test_routing_decision_is_the_winning_plan(self, cluster, routed):
        explain = routed.explain([{"$match": {"tenant": 1}}, {"$count": "n"}])
        plan = explain["queryPlanner"]["winningPlan"]
        assert {"stage", "targeted", "shardsContacted", "mergeStages"} <= set(plan)
        assert plan["mergeStages"] == ["$count"]
        assert set(explain["shards"]) == set(plan["shardsContacted"])
