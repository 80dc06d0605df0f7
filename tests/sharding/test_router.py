"""Tests for the query router: targeting, broadcasting, merging, metrics."""

from __future__ import annotations

import pytest

from repro.documentstore import DeleteMany, InsertOne, ShardKeyError, UpdateMany, UpdateOne
from repro.sharding import NetworkModel, ShardDescription, ShardedCluster


@pytest.fixture()
def cluster():
    built = ShardedCluster(shard_count=3)
    built.enable_sharding("shop")
    built.shard_collection("shop", "orders", {"order_id": "hashed"})
    built.shard_collection(
        "shop", "events", {"day": 1}, chunk_size_bytes=2_000, initial_chunks_per_shard=1
    )
    return built


@pytest.fixture()
def loaded(cluster):
    orders = cluster.get_database("shop")["orders"]
    orders.insert_many(
        [{"order_id": i, "amount": float(i), "store": i % 4} for i in range(300)]
    )
    events = cluster.get_database("shop")["events"]
    events.insert_many([{"day": i % 30, "kind": "click"} for i in range(300)])
    cluster.balance()
    cluster.reset_metrics()
    return cluster


class TestRoutingDecisions:
    def test_inserts_spread_across_shards_with_hashed_key(self, loaded):
        distribution = loaded.data_distribution("shop", "orders")
        assert all(count > 0 for count in distribution.values())
        assert sum(distribution.values()) == 300

    def test_insert_missing_shard_key_rejected(self, loaded):
        with pytest.raises(ShardKeyError):
            loaded.get_database("shop")["orders"].insert_one({"amount": 1.0})

    def test_equality_on_shard_key_is_targeted(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        assert len(orders.find({"order_id": 17}).to_list()) == 1
        metrics = loaded.router.metrics
        assert metrics.targeted_operations >= 1
        assert metrics.broadcast_operations == 0

    def test_query_without_shard_key_broadcasts(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        assert len(orders.find({"store": 2}).to_list()) == 75
        assert loaded.router.metrics.broadcast_operations >= 1

    def test_in_on_shard_key_targets_owning_shards(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        results = orders.find({"order_id": {"$in": [1, 2, 3]}}).to_list()
        assert len(results) == 3

    def test_range_on_range_shard_key_targets_subset(self, loaded):
        events = loaded.get_database("shop")["events"]
        results = events.find({"day": {"$gte": 0, "$lte": 5}}).to_list()
        assert len(results) == 60

    def test_unsharded_collection_lives_on_primary(self, loaded):
        dims = loaded.get_database("shop")["dimensions"]
        dims.insert_many([{"k": i} for i in range(10)])
        distribution = loaded.data_distribution("shop", "dimensions")
        assert distribution[loaded.config_server.primary_shard("shop")] == 10
        assert sum(distribution.values()) == 10


class TestReadsAndWrites:
    def test_count_documents_sums_shards(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        assert orders.count_documents({}) == 300
        assert orders.count_documents({"store": 0}) == 75

    def test_distinct_merges_shards(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        assert sorted(orders.distinct("store")) == [0, 1, 2, 3]

    def test_find_one(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        assert orders.find_one({"order_id": 5})["amount"] == 5.0

    def test_cursor_sort_limit_after_merge(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        top = orders.find({}).sort("amount", -1).limit(3).to_list()
        assert [doc["amount"] for doc in top] == [299.0, 298.0, 297.0]

    def test_update_many_across_shards(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        result = orders.update_many({"store": 1}, {"$set": {"flagged": True}})
        assert result.modified_count == 75
        assert orders.count_documents({"flagged": True}) == 75

    def test_update_one_touches_single_document(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        result = orders.update_one({"store": 1}, {"$set": {"first": True}})
        assert result.modified_count == 1
        assert orders.count_documents({"first": True}) == 1

    def test_upsert_through_router(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        result = orders.update_many(
            {"order_id": 999_999}, {"$set": {"amount": 1.0}}, upsert=True
        )
        assert result.upserted_id is not None
        assert orders.count_documents({"order_id": 999_999}) == 1

    def test_delete_many_across_shards(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        assert orders.delete_many({"store": 3}).deleted_count == 75
        assert orders.count_documents({}) == 225

    def test_create_and_drop_index_everywhere(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        name = orders.create_index("store")
        for shard in loaded.shards:
            assert name in shard.collection("shop", "orders").index_information()
        orders.drop_index(name)
        for shard in loaded.shards:
            assert name not in shard.collection("shop", "orders").index_information()

    def test_drop_collection_everywhere(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        orders.drop()
        assert orders.count_documents({}) == 0
        assert not loaded.config_server.is_sharded("shop", "orders")


class TestBulkWriteRouting:
    """How the router groups a ``bulk_write`` (its meaning: test_bulk_write_parity)."""

    @staticmethod
    def traffic(cluster):
        purposes = cluster.network.stats.snapshot()["by_purpose"]
        return cluster.router.metrics.operations, purposes

    def test_unordered_ships_one_message_per_shard(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        updates = [UpdateMany({"order_id": i}, {"$set": {"seen": i}}) for i in range(300)]
        assert orders.bulk_write(updates, ordered=False).modified_count == 300
        assert self.traffic(loaded) == (1, {"bulkWrite:request": 3, "bulkWrite:ack": 3})
        assert loaded.router.metrics.shards_contacted == 3
        assert orders.count_documents({"seen": {"$gte": 0}}) == 300

    def test_ordered_ships_one_message_per_run_on_a_shard(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        owner = {
            doc["order_id"]: shard.shard_id
            for shard in loaded.shards
            for doc in shard.collection("shop", "orders").find({})
        }
        ids = list(range(12))
        runs = 1 + sum(owner[a] != owner[b] for a, b in zip(ids, ids[1:]))
        assert 1 < runs < 12
        orders.bulk_write([UpdateOne({"order_id": i}, {"$set": {"seen": 1}}) for i in ids])
        assert self.traffic(loaded) == (
            runs, {"bulkWrite:request": runs, "bulkWrite:ack": runs}
        )

    def test_fan_outs_and_upserts_run_through_their_own_methods(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        result = orders.bulk_write(
            [
                UpdateMany({"order_id": 1}, {"$set": {"a": 1}}),
                UpdateMany({"store": 0}, {"$set": {"b": 1}}),  # no shard key: fans out
                UpdateMany({"order_id": 2}, {"$set": {"a": 1}}),
                UpdateOne({"order_id": 900}, {"$set": {"a": 1}}, upsert=True),
                DeleteMany({"order_id": 3}),
            ],
            ordered=False,
        )
        assert (result.modified_count, result.deleted_count) == (77, 1)
        assert list(result.upserted_ids) == [3]
        operations, purposes = self.traffic(loaded)
        assert purposes["bulkWrite:request"] == 3  # the fan-out and the upsert each close a step
        assert purposes["update:request"] == 3 + 1  # a broadcast, then the upsert's probe

    def test_bulk_inserts_keep_the_chunk_table_of_single_inserts(self):
        documents = [{"_id": i, "day": i % 30, "pad": "x" * 40} for i in range(200)]
        tables = []
        for bulk in (True, False):
            cluster = ShardedCluster(shard_count=3)
            cluster.shard_collection(
                "shop", "events", {"day": 1}, chunk_size_bytes=2_000, initial_chunks_per_shard=1
            )
            events = cluster.get_database("shop")["events"]
            if bulk:
                events.bulk_write([InsertOne(doc) for doc in documents], ordered=False)
            else:
                for doc in documents:
                    events.insert_one(doc)
            manager = cluster.config_server.chunk_manager("shop", "events")
            assert len(manager.chunks) > 3  # the inserts split chunks
            tables.append(manager.describe())
            cluster.close()
        assert tables[0] == tables[1]


class TestAggregation:
    def test_group_merges_partial_results(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        result = orders.aggregate(
            [
                {"$group": {"_id": "$store", "total": {"$sum": "$amount"}, "n": {"$sum": 1}}},
                {"$sort": {"_id": 1}},
            ]
        )
        assert len(result) == 4
        assert result[0]["n"] == 75
        assert sum(row["total"] for row in result) == sum(float(i) for i in range(300))

    def test_match_group_pipeline_matches_standalone_answer(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        result = orders.aggregate(
            [
                {"$match": {"amount": {"$gte": 200.0}}},
                {"$group": {"_id": None, "n": {"$sum": 1}}},
            ]
        )
        assert result == [{"_id": None, "n": 100}]

    def test_targeted_aggregate_uses_shard_key_match(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        result = orders.aggregate(
            [{"$match": {"order_id": 42}}, {"$project": {"_id": 0, "amount": 1}}]
        )
        assert result == [{"amount": 42.0}]
        assert loaded.router.metrics.targeted_operations >= 1

    def test_aggregate_out_writes_through_router(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        orders.aggregate(
            [
                {"$group": {"_id": "$store", "total": {"$sum": "$amount"}}},
                {"$out": "store_totals"},
            ]
        )
        totals = loaded.get_database("shop")["store_totals"]
        assert totals.count_documents({}) == 4

    def test_sort_and_limit_apply_after_merge(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        result = orders.aggregate(
            [{"$sort": {"amount": -1}}, {"$limit": 5}, {"$project": {"_id": 0, "amount": 1}}]
        )
        assert [row["amount"] for row in result] == [299.0, 298.0, 297.0, 296.0, 295.0]


class TestMetricsAndCostModel:
    def test_metrics_reset(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        orders.find({"store": 1}).to_list()
        assert loaded.router.metrics.operations > 0
        loaded.reset_metrics()
        assert loaded.router.metrics.operations == 0
        assert loaded.network.stats.messages == 0

    def test_network_traffic_recorded(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        orders.find({}).to_list()
        stats = loaded.network.stats
        assert stats.messages > 0
        assert stats.bytes_transferred > 0
        assert stats.simulated_seconds > 0

    def test_broadcast_contacts_every_shard(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        loaded.reset_metrics()
        orders.find({"store": 0}).to_list()
        assert loaded.router.metrics.shards_contacted == 3

    def test_cpu_factor_scales_modelled_parallel_seconds(self):
        # The cost model scales the slowest branch by the shard's cpu_factor;
        # with factor 4 the modelled makespan must exceed even the *sum* of
        # the raw per-shard execution times (2 shards x factor 4 > 2).
        slow_nodes = [
            ShardDescription(shard_id=f"s{i}", cpu_factor=4.0) for i in range(2)
        ]
        cluster = ShardedCluster(shard_descriptions=slow_nodes)
        cluster.enable_sharding("db")
        cluster.shard_collection("db", "c", {"k": "hashed"})
        collection = cluster.get_database("db")["c"]
        collection.insert_many([{"k": i} for i in range(50)])
        cluster.reset_metrics()
        collection.find({}).to_list()
        metrics = cluster.router.metrics
        assert metrics.modelled_parallel_seconds > metrics.shard_seconds_total / 2

    def test_observed_makespan_is_measured(self, loaded):
        # parallel_shard_seconds is now an observed wall-clock makespan: it
        # must cover at least the longest single branch of each fan-out but
        # stay a real measurement (> 0) rather than a derived estimate.
        orders = loaded.get_database("shop")["orders"]
        loaded.reset_metrics()
        orders.find({}).to_list()
        metrics = loaded.router.metrics
        assert metrics.operations == 1
        assert metrics.parallel_shard_seconds > 0

    def test_simulated_overhead_includes_network(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        loaded.reset_metrics()
        orders.find({}).to_list()
        metrics = loaded.router.metrics
        assert metrics.network_seconds > 0
        # The overhead swaps the observed concurrent execution window for the
        # modelled cluster makespan plus simulated network costs.
        assert metrics.snapshot()["simulated_overhead_seconds"] == pytest.approx(
            metrics.modelled_parallel_seconds
            + metrics.network_seconds
            - metrics.parallel_shard_seconds
        )

    def test_higher_latency_model_costs_more(self):
        def run_with(model):
            cluster = ShardedCluster(shard_count=2, network_model=model)
            cluster.enable_sharding("db")
            cluster.shard_collection("db", "c", {"k": "hashed"})
            collection = cluster.get_database("db")["c"]
            collection.insert_many([{"k": i} for i in range(100)])
            cluster.reset_metrics()
            collection.find({}).to_list()
            return cluster.router.metrics.network_seconds

        slow = run_with(NetworkModel(latency_seconds=0.01))
        fast = run_with(NetworkModel(latency_seconds=0.0001))
        assert slow > fast

    def test_cluster_status_reports_topology(self, loaded):
        status = loaded.status()
        assert status["shard_count"] == 3
        assert "shop.orders" in status["config"]["collections"]
