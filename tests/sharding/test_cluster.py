"""Tests for the ShardedCluster facade (topology of Figure 3.1)."""

from __future__ import annotations

import pytest

from repro.sharding import NetworkModel, ShardedCluster


class TestTopology:
    def test_default_topology_matches_paper(self):
        """Section 3.3: 3 shards, 1 config server, 1 query router."""
        cluster = ShardedCluster()
        assert cluster.shard_count == 3
        assert cluster.config_server.shard_ids == ["shard1", "shard2", "shard3"]
        assert cluster.router is not None

    def test_custom_shard_count(self):
        assert ShardedCluster(shard_count=5).shard_count == 5

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedCluster(shard_count=0)

    def test_custom_network_model_is_used(self):
        model = NetworkModel(latency_seconds=0.123)
        cluster = ShardedCluster(network_model=model)
        assert cluster.network.model.latency_seconds == 0.123


class TestAdministration:
    def test_shard_collection_enables_sharding_implicitly(self):
        cluster = ShardedCluster()
        cluster.shard_collection("db", "c", {"k": "hashed"})
        assert cluster.config_server.is_sharding_enabled("db")
        assert cluster.config_server.is_sharded("db", "c")

    def test_shard_collection_creates_supporting_index(self):
        cluster = ShardedCluster()
        cluster.shard_collection("db", "c", {"k": "hashed"})
        for shard in cluster.shards:
            index_info = shard.collection("db", "c").index_information()
            assert any(name != "_id_" for name in index_info)

    def test_status_reports_chunks_and_network(self):
        cluster = ShardedCluster()
        cluster.shard_collection("db", "c", {"k": "hashed"})
        cluster.get_database("db")["c"].insert_many([{"k": i} for i in range(10)])
        status = cluster.status()
        assert status["shard_count"] == 3
        assert status["network"]["messages"] > 0
        assert "db.c" in status["config"]["collections"]

    def test_getitem_returns_routed_database(self):
        cluster = ShardedCluster()
        database = cluster["analytics"]
        database["events"].insert_one({"kind": "click"})
        assert database["events"].count_documents({}) == 1

    def test_shard_lookup_by_id(self):
        cluster = ShardedCluster()
        assert cluster.shard("shard2").shard_id == "shard2"

    def test_reset_metrics_clears_shard_accounting(self):
        cluster = ShardedCluster()
        cluster.shard_collection("db", "c", {"k": "hashed"})
        cluster.get_database("db")["c"].insert_many([{"k": i} for i in range(10)])
        assert cluster.router.metrics.shard_seconds_total > 0
        cluster.reset_metrics()
        assert cluster.router.metrics.shard_seconds_total == 0

    def test_shard_stats_report_data_size(self):
        cluster = ShardedCluster()
        cluster.shard_collection("db", "c", {"k": "hashed"})
        cluster.get_database("db")["c"].insert_many([{"k": i, "pad": "x" * 50} for i in range(60)])
        sizes = [shard.stats()["dataSize"] for shard in cluster.shards]
        assert sum(sizes) > 0

    def test_routed_database_stats_aggregate_shards(self):
        cluster = ShardedCluster()
        cluster.shard_collection("db", "c", {"k": "hashed"})
        cluster.get_database("db")["c"].insert_many([{"k": i} for i in range(30)])
        stats = cluster.get_database("db").stats()
        assert stats["objects"] == 30

    def test_list_collection_names_across_shards(self):
        cluster = ShardedCluster()
        cluster.shard_collection("db", "sharded_one", {"k": "hashed"})
        database = cluster.get_database("db")
        database["sharded_one"].insert_one({"k": 1})
        database["plain_one"].insert_one({"v": 2})
        names = database.list_collection_names()
        assert "sharded_one" in names and "plain_one" in names
