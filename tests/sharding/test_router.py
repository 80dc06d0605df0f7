"""Tests for the query router: targeting, broadcasting, merging, metrics."""

from __future__ import annotations

import copy

import pytest

from repro.documentstore import (
    Collection,
    DeleteMany,
    InsertOne,
    OperationFailure,
    ShardKeyError,
    UpdateMany,
    UpdateOne,
)
from repro.sharding import NetworkModel, ShardedCluster


@pytest.fixture()
def cluster():
    built = ShardedCluster(shard_count=3)
    built.enable_sharding("shop")
    built.shard_collection("shop", "orders", {"order_id": "hashed"})
    built.shard_collection("shop", "events", {"day": 1}, chunk_size_bytes=2_000)
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

    def test_a_none_bound_targets_as_the_planner_reads_it(self):
        """``$gt``/``$lt`` of ``None`` match nothing and contact no shard;
        ``$gte``/``$lte`` of ``None`` match a document without the key, which
        can predate ``shard_collection``, so they keep their targeting."""
        cluster = ShardedCluster(shard_count=3)
        standalone = Collection(None, "t")
        routed = cluster.get_database("db")["t"]
        for collection in (standalone, routed):
            collection.insert_one({"_id": "keyless"})
        cluster.shard_collection("db", "t", {"k": 1}, chunk_size_bytes=200)
        for collection in (standalone, routed):
            collection.insert_many([{"_id": i, "k": i} for i in range(60)])
        cluster.balance()
        for query, contacted in (
            ({"k": {"$gt": None}}, 0),
            ({"k": {"$lt": None}}, 0),
            ({"k": {"$gte": 3, "$lt": None}}, 0),
            ({"k": {"$gte": None}}, 3),
            ({"k": {"$lte": None}}, 3),
        ):
            cluster.reset_metrics()
            assert routed.find(query).to_list() == standalone.find(query).to_list(), query
            assert cluster.router.metrics.shards_contacted == contacted, query
        assert routed.find({"k": {"$lte": None}}).to_list() == [{"_id": "keyless"}]
        cluster.close()

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


class TestRoutedDistinct:
    """A routed ``distinct`` ships each value once, as the one copy the caller owns."""

    DOCUMENTS = [
        {"k": i, "v": value}
        for i, value in enumerate(
            [{"a": 1}, [1, {"b": [2]}], {"a": 1}, "s", [[3]], {"c": {"d": [4]}}, 5, [[6, 7]]] * 5
        )
    ]

    @pytest.fixture(params=["hashed", "ranged", "unsharded"])
    def routed(self, request):
        cluster = ShardedCluster(shard_count=3)
        cluster.enable_sharding("db")
        if request.param == "hashed":
            cluster.shard_collection("db", "c", {"k": "hashed"})
        elif request.param == "ranged":
            cluster.shard_collection("db", "c", {"k": 1}, chunk_size_bytes=200)
        collection = cluster.get_database("db")["c"]
        collection.insert_many(self.DOCUMENTS)
        cluster.balance()
        yield collection
        cluster.close()

    @pytest.mark.parametrize("key, query", [("v", None), ("v", {"k": {"$lt": 20}}), ("v.b", None)])
    def test_equals_the_stand_alone_answer(self, routed, key, query):
        standalone = Collection(None, "c")
        standalone.insert_many(self.DOCUMENTS)
        want = standalone.distinct(key, query)
        got = routed.distinct(key, query)
        assert sorted(got, key=repr) == sorted(want, key=repr)

    def test_a_returned_value_is_the_callers_own(self, routed):
        first = routed.distinct("v")
        snapshot = copy.deepcopy(sorted(first, key=repr))
        assert any(isinstance(value, dict) for value in first)
        assert any(isinstance(value, list) for value in first)
        for value in first:
            if isinstance(value, dict):
                value["mutated"] = True
            elif isinstance(value, list):
                value.append("mutated")
        assert sorted(routed.distinct("v"), key=repr) == snapshot
        stored = sorted((document["v"] for document in routed.find({}, {"_id": 0})), key=repr)
        assert stored == sorted((document["v"] for document in self.DOCUMENTS), key=repr)


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
            cluster.shard_collection("shop", "events", {"day": 1}, chunk_size_bytes=2_000)
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

    def test_sort_applies_across_the_merge(self, loaded):
        orders = loaded.get_database("shop")["orders"]
        result = orders.aggregate([{"$sort": {"amount": -1}}, {"$project": {"_id": 0, "amount": 1}}])
        assert [row["amount"] for row in result][:5] == [299.0, 298.0, 297.0, 296.0, 295.0]


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

    def test_modelled_makespan_is_the_slowest_branch(self, loaded):
        # The cost model's makespan of one fan-out is its slowest branch's
        # execute time, the one explain(executionStats) reports.
        orders = loaded.get_database("shop")["orders"]
        loaded.reset_metrics()
        orders.find({}).to_list()
        branches = loaded.router.last_scatter_report["shards"]
        assert len(branches) == 3
        assert loaded.router.metrics.modelled_parallel_seconds == max(
            branch["executeSeconds"] for branch in branches.values()
        )

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


class TestAggregateIsCompiledOnceOnTheRouter:
    """The router compiles both halves of a routed aggregate before the scatter."""

    #: Pipelines the engine refuses in a stage the router runs after gathering:
    #: refused after the scatter, each shipped every order to the router first.
    REFUSED = {
        "unknown stage": [{"$limit": 1}],
        "unknown accumulator": [{"$group": {"_id": "$store", "x": {"$first": "$amount"}}}],
        "unknown expression operator": [
            {"$group": {"_id": "$store", "n": {"$sum": 1}}},
            {"$project": {"x": {"$add": ["$n", 1]}}},
        ],
    }

    @pytest.mark.parametrize("pipeline", REFUSED)
    def test_a_refused_pipeline_sends_no_message(self, loaded, pipeline):
        stages = self.REFUSED[pipeline]
        with pytest.raises(OperationFailure) as standalone:
            Collection(None, "orders").aggregate(stages)
        with pytest.raises(OperationFailure) as routed:
            loaded.get_database("shop")["orders"].aggregate(stages)
        assert (type(routed.value), str(routed.value)) == (
            type(standalone.value), str(standalone.value)
        )
        assert loaded.network.stats.messages == 0
        assert loaded.router.metrics.operations == 0

    @pytest.mark.parametrize(
        ("match", "targets"), [({"order_id": 7}, 1), ({"store": 1}, 3)], ids=["1 target", "3"]
    )
    def test_each_routed_aggregate_optimizes_once(self, loaded, monkeypatch, match, targets):
        import repro.documentstore.aggregation as aggregation
        import repro.sharding.router as router

        pipeline = [
            {"$sort": {"order_id": 1}},
            {"$match": match},
            {"$group": {"_id": "$store", "total": {"$sum": "$amount"}}},
        ]
        standalone = Collection(None, "orders")
        standalone.insert_many(loaded.get_database("shop")["orders"].find({}, {"_id": 0}))
        expected = standalone.aggregate(pipeline)
        loaded.reset_metrics()

        calls = []
        optimize = aggregation.optimize_pipeline

        def counting(stages):
            calls.append(stages)
            return optimize(stages)

        monkeypatch.setattr(aggregation, "optimize_pipeline", counting)
        monkeypatch.setattr(router, "optimize_pipeline", counting)
        assert loaded.get_database("shop")["orders"].aggregate(pipeline) == expected
        assert len(calls) == 1
        assert loaded.router.metrics.shards_contacted == targets
