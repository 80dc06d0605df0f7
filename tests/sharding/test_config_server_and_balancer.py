"""Tests for the config server metadata catalogue and the chunk balancer."""

from __future__ import annotations

import pytest

from repro.documentstore import ShardKeyError, ShardingError
from repro.sharding import Balancer, ConfigServer, Shard, ShardedCluster, SimulatedNetwork


class TestConfigServer:
    def make_config(self):
        config = ConfigServer()
        for shard_id in ("shard1", "shard2", "shard3"):
            config.add_shard(shard_id)
        return config

    def test_add_shard_twice_rejected(self):
        config = self.make_config()
        with pytest.raises(ShardingError):
            config.add_shard("shard1")

    def test_enable_sharding_requires_shards(self):
        with pytest.raises(ShardingError):
            ConfigServer().enable_sharding("db")

    def test_primary_shard_defaults_to_first(self):
        config = self.make_config()
        config.enable_sharding("db")
        assert config.primary_shard("db") == "shard1"

    def test_primary_shard_can_be_chosen(self):
        config = self.make_config()
        config.enable_sharding("db", primary_shard="shard2")
        assert config.primary_shard("db") == "shard2"

    def test_unknown_primary_rejected(self):
        config = self.make_config()
        with pytest.raises(ShardingError):
            config.enable_sharding("db", primary_shard="nope")

    def test_shard_collection_requires_enabled_database(self):
        config = self.make_config()
        with pytest.raises(ShardingError):
            config.shard_collection("db", "c", "k")

    def test_shard_collection_twice_rejected(self):
        config = self.make_config()
        config.enable_sharding("db")
        config.shard_collection("db", "c", "k")
        with pytest.raises(ShardingError):
            config.shard_collection("db", "c", "k")

    def test_is_sharded_and_chunk_manager(self):
        config = self.make_config()
        config.enable_sharding("db")
        config.shard_collection("db", "c", {"k": "hashed"})
        assert config.is_sharded("db", "c")
        assert not config.is_sharded("db", "other")
        assert config.chunk_manager("db", "c").shard_key.hashed

    def test_chunk_manager_for_unsharded_collection_raises(self):
        config = self.make_config()
        config.enable_sharding("db")
        with pytest.raises(ShardKeyError):
            config.chunk_manager("db", "nope")

    def test_describe_lists_everything(self):
        config = self.make_config()
        config.enable_sharding("db")
        config.shard_collection("db", "c", "k")
        description = config.describe()
        assert description["shards"] == ["shard1", "shard2", "shard3"]
        assert "db.c" in description["collections"]

    def test_chunk_distribution_counts_chunks_per_shard(self):
        config = self.make_config()
        config.enable_sharding("db")
        config.shard_collection("db", "c", {"k": "hashed"})
        distribution = config.chunk_distribution()["db.c"]
        assert sum(distribution.values()) == 6

    def test_drop_collection_metadata(self):
        config = self.make_config()
        config.enable_sharding("db")
        config.shard_collection("db", "c", "k")
        config.drop_collection_metadata("db", "c")
        assert not config.is_sharded("db", "c")


class TestBalancer:
    def build_unbalanced_cluster(self):
        """Range-sharded data all lands on shard1 until the balancer runs."""
        cluster = ShardedCluster(shard_count=3)
        cluster.enable_sharding("db")
        cluster.shard_collection("db", "events", {"day": 1}, chunk_size_bytes=2_000)
        events = cluster.get_database("db")["events"]
        events.insert_many([{"day": i, "payload": "x" * 40} for i in range(400)])
        return cluster

    def test_range_inserts_pile_onto_one_shard_before_balancing(self):
        cluster = self.build_unbalanced_cluster()
        distribution = cluster.data_distribution("db", "events")
        assert distribution["shard1"] == 400
        assert cluster.balancer.needs_balancing("db", "events")

    def test_balancing_moves_documents_with_chunks(self):
        cluster = self.build_unbalanced_cluster()
        migrations = cluster.balancer.balance_collection("db", "events")
        assert migrations, "expected at least one chunk migration"
        distribution = cluster.data_distribution("db", "events")
        assert sum(distribution.values()) == 400
        assert min(distribution.values()) > 0
        assert not cluster.balancer.needs_balancing("db", "events")

    def test_queries_return_same_results_after_balancing(self):
        cluster = self.build_unbalanced_cluster()
        events = cluster.get_database("db")["events"]
        before = sorted(doc["day"] for doc in events.find({"day": {"$lt": 50}}))
        cluster.balance()
        after = sorted(doc["day"] for doc in events.find({"day": {"$lt": 50}}))
        assert before == after == list(range(50))

    def test_migration_records_track_moved_bytes(self):
        cluster = self.build_unbalanced_cluster()
        migrations = cluster.balancer.balance_collection("db", "events")
        assert all(record.documents_moved > 0 for record in migrations)
        assert all(record.bytes_moved > 0 for record in migrations)
        assert all(record.source_shard != record.destination_shard for record in migrations)

    def test_balanced_collection_is_a_noop(self):
        cluster = ShardedCluster(shard_count=2)
        cluster.enable_sharding("db")
        cluster.shard_collection("db", "c", {"k": "hashed"})
        cluster.get_database("db")["c"].insert_many([{"k": i} for i in range(50)])
        assert cluster.balancer.balance_collection("db", "c") == []

    def test_hashed_chunk_migration_moves_only_chunk_documents(self):
        cluster = ShardedCluster(shard_count=2)
        cluster.enable_sharding("db")
        manager = cluster.shard_collection("db", "c", {"k": "hashed"})
        collection = cluster.get_database("db")["c"]
        collection.insert_many([{"k": i} for i in range(100)])
        chunk = next(c for c in manager.chunks if c.document_count > 0)
        other = "shard2" if chunk.shard_id == "shard1" else "shard1"
        before_total = collection.count_documents({})
        record = cluster.balancer.migrate_chunk("db", "c", chunk, other)
        assert record.documents_moved == chunk.document_count
        assert collection.count_documents({}) == before_total

    def test_a_migration_sizes_only_the_documents_it_moves(self):
        cluster = ShardedCluster(shard_count=2)
        cluster.enable_sharding("db")
        manager = cluster.shard_collection("db", "c", {"k": "hashed"})
        cluster.get_database("db")["c"].insert_many([{"k": i, "pad": "x" * i} for i in range(100)])
        chunk = next(c for c in manager.chunks if c.document_count > 0)
        source = cluster.shard(chunk.shard_id).collection("db", "c")
        stayed = [
            document["k"]
            for document in source.find({})
            if not chunk.contains(manager.shard_key.extract(document))
        ]
        assert stayed and not source._sizes  # freshly loaded: nothing sized yet
        other = "shard2" if chunk.shard_id == "shard1" else "shard1"
        record = cluster.balancer.migrate_chunk("db", "c", chunk, other)
        assert record.documents_moved > 0
        assert sorted(document["k"] for document in source.find({})) == sorted(stayed)
        assert source._sizes == {}  # no document that stayed was sized

    def test_balancer_standalone_construction(self):
        config = ConfigServer()
        config.add_shard("a")
        config.add_shard("b")
        config.enable_sharding("db")
        shards = {"a": Shard("a"), "b": Shard("b")}
        balancer = Balancer(config, shards, SimulatedNetwork())
        config.shard_collection("db", "c", "k")
        assert balancer.balance_collection("db", "c") == []
