"""Shard-side pushdown for the unified FindSpec/Cursor read protocol.

Covers the acceptance criteria of the redesign: a sorted + limited find on
the cluster ships at most ``shards × (skip + limit)`` documents, ``find_one``
no longer materializes full shard results, standalone and sharded ``find``
agree across a (filter, projection, sort, skip, limit) matrix, and
``explain()`` has the same shape on both backends.
"""

from __future__ import annotations

import itertools

import pytest

from repro.documentstore import PLANNER_KEYS, TOP_LEVEL_KEYS
from repro.documentstore.collection import Collection
from repro.sharding import ShardedCluster

SHARDS = 3
DOCS = 240


def _documents():
    return [
        {
            "_id": i,
            "order_id": i,
            "store": i % 7,
            "amount": float((i * 53) % 200) / 2.0,
            "day": i % 30,
            "customer": {"city": f"city{i % 11}", "tier": i % 3},
        }
        for i in range(DOCS)
    ]


@pytest.fixture()
def backends():
    standalone = Collection(None, "orders")
    standalone.insert_many(_documents())

    cluster = ShardedCluster(shard_count=SHARDS)
    cluster.enable_sharding("shop")
    cluster.shard_collection("shop", "orders", {"order_id": "hashed"})
    routed = cluster.get_database("shop")["orders"]
    routed.insert_many(_documents())
    cluster.balance()
    cluster.reset_metrics()
    return standalone, routed, cluster


# A total order (every sort ends with the unique order_id) makes results
# deterministic on both backends, so lists can be compared element-wise.
SORTS = [
    [("order_id", 1)],
    [("amount", 1), ("order_id", 1)],
    [("amount", -1), ("order_id", -1)],
    [("day", 1), ("amount", -1), ("order_id", 1)],
]
FILTERS = [
    None,
    {"store": 3},
    {"amount": {"$gte": 40.0}},
    {"order_id": {"$in": [5, 17, 40, 77, 150]}},
    {"customer.tier": 1, "day": {"$lt": 20}},
]
PROJECTIONS = [
    None,
    {"amount": 1, "order_id": 1},
    {"customer": 0},
    {"customer.city": 1, "amount": 1, "day": 1, "order_id": 1, "_id": 0},
]
PAGING = [(0, 0), (0, 10), (25, 10), (5, 0)]


class TestReadParity:
    @pytest.mark.parametrize(
        ("filter_", "sort"), list(itertools.product(FILTERS, SORTS))
    )
    def test_sorted_results_identical(self, backends, filter_, sort):
        standalone, routed, _cluster = backends
        expected = standalone.find(filter_, sort=sort).to_list()
        actual = routed.find(filter_, sort=sort).to_list()
        assert actual == expected

    @pytest.mark.parametrize(
        ("projection", "skip", "limit"),
        [
            (projection, skip, limit)
            for projection in PROJECTIONS
            for (skip, limit) in PAGING
        ],
    )
    def test_projection_and_paging_identical(self, backends, projection, skip, limit):
        standalone, routed, _cluster = backends
        sort = [("amount", 1), ("order_id", 1)]
        expected = standalone.find(
            {"day": {"$lt": 25}}, projection, sort=sort, skip=skip, limit=limit
        ).to_list()
        actual = routed.find(
            {"day": {"$lt": 25}}, projection, sort=sort, skip=skip, limit=limit
        ).to_list()
        assert actual == expected

    def test_unsorted_results_identical_as_multisets(self, backends):
        standalone, routed, _cluster = backends
        expected = standalone.find({"store": 2}).to_list()
        actual = routed.find({"store": 2}).to_list()
        def key(doc):
            return repr(sorted(doc.items(), key=repr))

        assert sorted(actual, key=key) == sorted(expected, key=key)

    def test_distinct_identical(self, backends):
        standalone, routed, _cluster = backends
        expected = standalone.distinct("store", {"day": {"$lt": 15}})
        actual = routed.distinct("store", {"day": {"$lt": 15}})
        assert sorted(actual) == sorted(expected)


class TestPushdownAccounting:
    def test_sorted_limited_broadcast_ships_at_most_shards_times_bound(self, backends):
        _standalone, routed, cluster = backends
        skip, limit = 5, 10
        routed.find({}, sort=[("amount", -1), ("order_id", 1)], skip=skip, limit=limit).to_list()
        metrics = cluster.router.metrics
        assert metrics.broadcast_operations >= 1
        assert 0 < metrics.documents_shipped <= SHARDS * (skip + limit)
        assert metrics.bytes_shipped > 0

    def test_find_one_ships_at_most_one_document_per_shard(self, backends):
        _standalone, routed, cluster = backends
        document = routed.find_one({"store": 4})
        assert document is not None
        assert cluster.router.metrics.documents_shipped <= SHARDS

    def test_targeted_find_contacts_one_shard(self, backends):
        _standalone, routed, cluster = backends
        routed.find({"order_id": 17}).to_list()
        metrics = cluster.router.metrics
        assert metrics.targeted_operations == 1
        assert metrics.shards_contacted == 1

    def test_projection_pushdown_reduces_bytes_shipped(self, backends):
        _standalone, routed, cluster = backends
        spec_sort = [("amount", 1), ("order_id", 1)]
        routed.find({}, sort=spec_sort, limit=20).to_list()
        full_bytes = cluster.router.metrics.bytes_shipped
        cluster.reset_metrics()
        routed.find({}, {"amount": 1, "order_id": 1}, sort=spec_sort, limit=20).to_list()
        projected_bytes = cluster.router.metrics.bytes_shipped
        assert projected_bytes < full_bytes

    def test_distinct_ships_unique_values_and_accounts_bytes(self, backends):
        _standalone, routed, cluster = backends
        values = routed.distinct("store")
        metrics = cluster.router.metrics
        assert sorted(values) == list(range(7))
        # Each shard ships at most one entry per distinct value, never one
        # per matching document.
        assert 0 < metrics.documents_shipped <= SHARDS * 7
        assert metrics.bytes_shipped > 0

    def test_unsorted_limited_find_still_bounded(self, backends):
        _standalone, routed, cluster = backends
        routed.find({}, limit=7).to_list()
        assert cluster.router.metrics.documents_shipped <= SHARDS * 7


class TestExplainParity:
    def test_both_backends_share_the_explain_shape(self, backends):
        standalone, routed, _cluster = backends
        sort = [("amount", -1), ("order_id", 1)]
        local = standalone.find({"store": 1}, sort=sort, limit=5).explain()
        sharded = routed.find({"store": 1}, sort=sort, limit=5).explain()
        for explain in (local, sharded):
            assert set(explain) == set(TOP_LEVEL_KEYS)
            assert set(explain["queryPlanner"]) == set(PLANNER_KEYS)
            assert explain["queryPlanner"]["spec"]["limit"] == 5

    def test_sharded_explain_reports_pushdown_and_per_shard_plans(self, backends):
        _standalone, routed, _cluster = backends
        explain = routed.find(
            {}, {"amount": 1, "order_id": 1}, sort=[("amount", 1), ("order_id", 1)], skip=5, limit=10
        ).explain()
        plan = explain["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "SHARD_MERGE"
        assert plan["targeted"] is False
        assert len(plan["shardsContacted"]) == SHARDS
        assert plan["pushdown"] == {"projection": True, "sort": True, "limit": 15}
        assert plan["shards"] == explain["shards"]
        for shard_plan in explain["shards"].values():
            # Each entry is that shard collection's own queryPlanner section.
            assert set(shard_plan) == set(PLANNER_KEYS)
            assert shard_plan["spec"]["limit"] == 15
            assert shard_plan["spec"]["skip"] == 0
        assert explain["queryPlanner"]["sortMode"] == "streamingKWayMerge"

    def test_targeted_explain_is_single_shard(self, backends):
        _standalone, routed, _cluster = backends
        explain = routed.find({"order_id": 17}).explain()
        plan = explain["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "SINGLE_SHARD"
        assert plan["targeted"] is True
