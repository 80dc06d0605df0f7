"""Tests for the simulated network and the cluster-sizing formulas."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.documentstore import ObjectId
from repro.sharding import (
    ClusterSizingInputs,
    NetworkModel,
    SHARDING_OVERHEAD,
    SimulatedNetwork,
    recommend_shard_count,
    shards_for_disk_storage,
    shards_for_iops,
    shards_for_ops,
    shards_for_ram,
    working_set_size,
)
from repro.sharding.network import MESSAGE_LOG_CAPACITY

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
        network.send("mongos", "shard1", "find:request", 100)
        network.send("shard1", "mongos", "find:response", 5_000)
        stats = network.stats
        assert stats.messages == 2
        assert stats.bytes_transferred == 5_100
        assert stats.simulated_seconds > 0.004
        assert stats.by_purpose["find:request"] == 1

    def test_ship_documents_round_trips_and_isolates(self):
        network = SimulatedNetwork()
        original = [{"_id": ObjectId(), "nested": {"v": [1, 2]}}]
        shipped = network.ship_documents(
            original, source="shard1", destination="mongos", purpose="test"
        )
        assert shipped == original
        shipped[0]["nested"]["v"].append(3)
        assert original[0]["nested"]["v"] == [1, 2]

    def test_ship_command_counts_one_message(self):
        network = SimulatedNetwork()
        network.ship_command({"find": "c"}, source="a", destination="b", purpose="cmd")
        assert network.stats.messages == 1

    def test_reset_clears_log_and_stats(self):
        network = SimulatedNetwork()
        network.send("a", "b", "x", 10)
        channel = network.channel()
        channel.send("b", "a", "y", 10)
        network.absorb(channel)
        assert len(network.log) == 2
        network.reset()
        assert network.stats.messages == 0
        assert network.log == []
        network.send("a", "b", "z", 1)  # the cleared log keeps recording
        assert [message.purpose for message in network.log] == ["z"]

    def test_log_preserves_order(self):
        """Direct sends and absorbed channels land in call order, oldest first."""
        network = SimulatedNetwork()
        network.send("a", "b", "first", 1)
        channel = network.channel()
        channel.send("b", "a", "second", 1)
        channel.send("b", "a", "third", 1)
        network.absorb(channel)
        network.send("a", "b", "fourth", 1)
        assert [message.purpose for message in network.log] == [
            "first", "second", "third", "fourth",
        ]

    def test_log_is_a_bounded_window_and_stats_stay_exact(self):
        """The log keeps the newest messages; the counters count every one."""
        network = SimulatedNetwork()
        total = 10 * MESSAGE_LOG_CAPACITY
        for number in range(0, total, 2):
            network.send("a", "b", "direct", number)
            channel = network.channel()
            channel.send("b", "a", "absorbed", number + 1)
            network.absorb(channel)
        log = network.log
        assert len(log) == MESSAGE_LOG_CAPACITY
        assert [message.payload_bytes for message in log] == list(
            range(total - MESSAGE_LOG_CAPACITY, total)
        )
        assert network.stats.messages == total
        assert network.stats.bytes_transferred == total * (total - 1) // 2
        assert network.stats.by_purpose == {"direct": total // 2, "absorbed": total // 2}


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

    def test_working_set_definition(self):
        assert working_set_size(2 * GB, 6 * GB) == 8 * GB

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
