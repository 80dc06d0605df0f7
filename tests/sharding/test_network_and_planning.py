"""Tests for the simulated network and the cluster-sizing formulas."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.documentstore import ObjectId
from repro.documentstore.bson import document_size
from repro.sharding import (
    ClusterSizingInputs,
    NetworkModel,
    SHARDING_OVERHEAD,
    ShardedCluster,
    SimulatedNetwork,
    recommend_shard_count,
    shards_for_disk_storage,
    shards_for_iops,
    shards_for_ops,
    shards_for_ram,
)

GB = 1024 ** 3
TB = 1024 ** 4


class TestNetworkModel:
    def test_message_cost_includes_latency_and_transfer(self):
        model = NetworkModel(latency_seconds=0.001, bandwidth_bytes_per_second=1_000_000)
        assert model.message_seconds(0) == pytest.approx(0.001)
        assert model.message_seconds(1_000_000) == pytest.approx(1.001)

    def test_zero_payload_transfer_is_free(self):
        assert NetworkModel().transfer_seconds(0) == 0.0

    def test_send_accumulates_stats(self):
        network = SimulatedNetwork(NetworkModel(latency_seconds=0.002))
        network.send("find:request", 100)
        network.send("find:response", 5_000)
        stats = network.stats
        assert stats.messages == 2
        assert stats.bytes_transferred == 5_100
        assert stats.simulated_seconds > 0.004
        assert stats.by_purpose["find:request"] == 1

    def test_a_shipped_batch_counts_its_document_sizes(self):
        network = SimulatedNetwork()
        batch = [{"_id": ObjectId(), "nested": {"v": [1, 2]}}, {"_id": 2, "s": "x"}]
        network.send("test", sum(map(document_size, batch)))
        assert network.stats.messages == 1
        assert network.stats.bytes_transferred == sum(map(document_size, batch))

    def test_ship_command_counts_one_message(self):
        network = SimulatedNetwork()
        network.ship_command({"find": "c"}, purpose="cmd")
        assert network.stats.messages == 1

    def test_reset_clears_stats(self):
        network = SimulatedNetwork()
        network.send("x", 10)
        channel = network.channel()
        channel.send("y", 10)
        network.absorb(channel)
        assert network.stats.messages == 2
        network.reset()
        assert network.stats.messages == 0
        assert network.stats.bytes_transferred == 0
        assert network.stats.by_purpose == {}
        network.send("z", 1)  # the cleared statistics keep counting
        assert network.stats.by_purpose == {"z": 1}

    def test_stats_are_exact_over_direct_sends_and_absorbed_channels(self):
        """The counters count every message, sent directly or absorbed from a channel."""
        network = SimulatedNetwork()
        total = 40_960
        for number in range(0, total, 2):
            network.send("direct", number)
            channel = network.channel()
            channel.send("absorbed", number + 1)
            network.absorb(channel)
        assert network.stats.messages == total
        assert network.stats.bytes_transferred == total * (total - 1) // 2
        assert network.stats.by_purpose == {"direct": total // 2, "absorbed": total // 2}


class TestOneByteMeasure:
    """Every payload the router, shards and balancer exchange is counted by
    ``document_size``, the measure of the chunk table and ``bytes_moved``."""

    @pytest.mark.parametrize("shard_key", [{"k": "hashed"}, {"k": 1}, None])
    def test_an_insert_request_carries_the_stored_documents_bytes(self, shard_key):
        cluster = ShardedCluster(shard_count=3)
        cluster.enable_sharding("db")
        if shard_key is not None:
            cluster.shard_collection("db", "c", shard_key, chunk_size_bytes=2_000)
        documents = [{"k": i, "text": "x" * (i % 7), "nested": {"v": [i, 2.5]}} for i in range(60)]
        sent = []
        real_send = SimulatedNetwork.send

        def spy(network, purpose, payload_bytes):
            sent.append((purpose, payload_bytes))
            return real_send(network, purpose, payload_bytes)

        with mock.patch.object(SimulatedNetwork, "send", spy):
            cluster.get_database("db")["c"].insert_many(documents)
        stored = [shard.collection("db", "c").find({}).to_list() for shard in cluster.shards]
        per_shard = [sum(map(document_size, on_shard)) for on_shard in stored if on_shard]
        command = document_size({"insert": "c", "documents": len(documents)})
        requests = [size for purpose, size in sent if purpose == "insert:request"]
        # One message per owning shard with its documents, then the command.
        assert sorted(requests) == sorted(per_shard + [command] * len(per_shard))
        cluster.close()

    @pytest.mark.parametrize("batch_size", [1, 25, None])
    @pytest.mark.parametrize("shard_key", [{"k": "hashed"}, {"k": 1}, None])
    def test_a_find_response_carries_the_bytes_of_what_it_returns(self, shard_key, batch_size):
        """Shards report the sizes they store; the router ships exactly those bytes."""
        cluster = ShardedCluster(shard_count=3)
        cluster.enable_sharding("db")
        if shard_key is not None:
            cluster.shard_collection("db", "c", shard_key, chunk_size_bytes=2_000)
        routed = cluster.get_database("db")["c"]
        routed.insert_many(
            [{"k": i, "é": "ü" * (i % 5), "nested": {"v": [i, {"w": "日本"}]}} for i in range(90)]
        )
        cluster.balance()
        routed.update_many({"k": {"$lt": 30}}, {"$set": {"nested.v": [], "extra": "x" * 9}})
        routed.delete_many({"k": {"$gte": 85}})
        finds = [
            ({}, None, None),
            ({"k": {"$gte": 20}}, {"_id": 0}, None),
            ({}, {"é": 0, "_id": 0}, [("k", -1)]),
            ({"k": {"$in": [3, 40, 77]}}, {"k": 1, "nested": 1}, [("k", 1)]),
            ({}, {"nested.v": 1, "k": 1}, None),
            ({"k": 7}, None, None),
        ]
        real_send = SimulatedNetwork.send
        for query, projection, sort in finds:
            responses = []

            def spy(network, purpose, payload_bytes):
                if purpose == "find:response":
                    responses.append(payload_bytes)
                return real_send(network, purpose, payload_bytes)

            cursor = routed.find(query, projection, sort=sort)
            if batch_size is not None:
                cursor = cursor.batch_size(batch_size)
            with mock.patch.object(SimulatedNetwork, "send", spy):
                returned = cursor.to_list()
            assert returned
            assert sum(responses) == sum(map(document_size, returned)), (query, projection)
            if batch_size == 1:
                assert len(responses) == len(returned)
        cluster.close()

    def test_a_chunk_move_carries_the_bytes_it_moves(self):
        cluster = ShardedCluster(shard_count=3)
        cluster.enable_sharding("db")
        cluster.shard_collection("db", "c", {"k": 1}, chunk_size_bytes=2_048)
        cluster.get_database("db")["c"].insert_many(
            [{"k": i, "payload": "x" * 20} for i in range(400)]
        )
        cluster.reset_metrics()
        cluster.balance()
        records = cluster.balancer.history
        stats = cluster.network.stats
        assert records and stats.by_purpose == {"moveChunk": len(records)}
        assert stats.bytes_transferred == sum(record.bytes_moved for record in records)
        cluster.close()


class TestShardCountFormulas:
    """The worked examples of Section 2.1.3.2."""

    def test_disk_storage_example(self):
        assert shards_for_disk_storage(1.5 * TB, 256 * GB) == 6

    def test_ram_example(self):
        assert shards_for_ram(200 * GB, 64 * GB) == 4

    def test_ram_with_reserved_memory(self):
        # 9.94GB of data on 8GB nodes with 2GB reserved -> 6GB usable each.
        assert shards_for_ram(9.94 * GB, 8 * GB, reserved_bytes=2 * GB) == 2

    def test_iops_example(self):
        assert shards_for_iops(12_000, 5_000) == 3

    def test_ops_formula(self):
        # N = G / (S * 0.7): 10,000 required at 2,000 per server -> 8 shards.
        assert shards_for_ops(10_000, 2_000) == 8
        assert SHARDING_OVERHEAD == 0.7

    def test_zero_or_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            shards_for_disk_storage(100, 0)
        with pytest.raises(ValueError):
            shards_for_ops(100, 0)

    def test_tiny_requirement_still_needs_one_shard(self):
        assert shards_for_disk_storage(1, 10 * GB) == 1

    def test_recommendation_takes_maximum_across_rules(self):
        inputs = ClusterSizingInputs(
            data_size_bytes=1.5 * TB,
            working_set_bytes=200 * GB,
            shard_ram_bytes=64 * GB,
            shard_disk_bytes=256 * GB,
            reserved_ram_bytes=0,
            required_iops=12_000,
            shard_iops=5_000,
        )
        recommendation = recommend_shard_count(inputs)
        assert recommendation["disk"] == 6
        assert recommendation["ram"] == 4
        assert recommendation["iops"] == 3
        assert recommendation["recommended"] == 6

    def test_thesis_small_cluster_recommendation(self):
        """Section 3.3: the 9.94 GB dataset on 8 GB nodes needs >= 2 shards
        (the thesis rounds up to 3 for indexes and intermediate collections)."""
        inputs = ClusterSizingInputs(
            data_size_bytes=9.94 * GB,
            working_set_bytes=9.94 * GB,
            shard_ram_bytes=8 * GB,
            shard_disk_bytes=256 * GB,
        )
        recommendation = recommend_shard_count(inputs)
        assert recommendation["ram"] == 2
        assert recommendation["recommended"] >= 2


@given(
    st.floats(min_value=1, max_value=1e15),
    st.floats(min_value=1, max_value=1e12),
)
def test_shard_counts_always_cover_the_requirement(required, per_shard):
    """Property: N shards of capacity C always cover the requirement."""
    shards = shards_for_disk_storage(required, per_shard)
    assert shards * per_shard >= required
    assert shards >= 1


@given(st.integers(min_value=0, max_value=10_000_000))
def test_transfer_time_is_monotonic_in_payload(payload):
    model = NetworkModel()
    assert model.message_seconds(payload) >= model.message_seconds(0)
