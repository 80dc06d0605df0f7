"""Tests for shard keys, chunks, and chunk splitting (Section 2.1.3.3)."""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.documentstore import ChunkSplitError, ShardKeyError
from repro.sharding import MAX_KEY, MIN_KEY, Chunk, ChunkManager, ShardKeyPattern
from repro.sharding.chunks import boundary_key


class TestShardKeyPattern:
    def test_create_from_string(self):
        pattern = ShardKeyPattern.create("ss_item_sk")
        assert pattern.fields == ("ss_item_sk",)
        assert not pattern.hashed

    def test_create_hashed_from_mapping(self):
        pattern = ShardKeyPattern.create({"ss_item_sk": "hashed"})
        assert pattern.hashed

    def test_compound_key(self):
        pattern = ShardKeyPattern.create(["a", "b"])
        assert pattern.extract({"a": 1, "b": 2}) == (1, 2)

    def test_hashed_compound_rejected(self):
        with pytest.raises(ShardKeyError):
            ShardKeyPattern(fields=("a", "b"), hashed=True)

    def test_empty_key_rejected(self):
        with pytest.raises(ShardKeyError):
            ShardKeyPattern(fields=())

    def test_extract_missing_field_raises(self):
        pattern = ShardKeyPattern.create("k")
        with pytest.raises(ShardKeyError):
            pattern.extract({"other": 1})

    def test_range_key_routes_on_raw_value(self):
        pattern = ShardKeyPattern.create("k")
        assert pattern.extract({"k": 42}) == 42

    def test_hashed_key_routes_on_hash(self):
        pattern = ShardKeyPattern.create({"k": "hashed"})
        assert pattern.extract({"k": 42}) != 42

    def test_as_dict(self):
        assert ShardKeyPattern.create({"k": "hashed"}).as_dict() == {"k": "hashed"}
        assert ShardKeyPattern.create("k").as_dict() == {"k": 1}


class TestBoundaries:
    def test_min_key_sorts_first(self):
        assert boundary_key(MIN_KEY) < boundary_key(None) < boundary_key(-10**12)

    def test_max_key_sorts_last(self):
        assert boundary_key(MAX_KEY) > boundary_key(10**12) > boundary_key(-10**12)
        assert boundary_key(MAX_KEY) > boundary_key(dt.datetime(9999, 1, 1))

    def test_same_sentinel_is_equal(self):
        assert boundary_key(MIN_KEY) == boundary_key(MIN_KEY)
        assert boundary_key(MAX_KEY) == boundary_key(MAX_KEY)

    def test_chunk_contains_lower_inclusive_upper_exclusive(self):
        chunk = Chunk(lower=100, upper=200, shard_id="shard1")
        assert chunk.contains(100)
        assert chunk.contains(199)
        assert not chunk.contains(200)
        assert not chunk.contains(99)

    def test_full_range_chunk_contains_everything(self):
        chunk = Chunk(lower=MIN_KEY, upper=MAX_KEY, shard_id="shard1")
        assert chunk.contains(-1)
        assert chunk.contains("strings too")


class TestRangePartitioning:
    def make_manager(self, **kwargs):
        return ChunkManager(
            "db.coll",
            ShardKeyPattern.create("k"),
            ["shard1", "shard2", "shard3"],
            **kwargs,
        )

    def test_starts_with_single_full_range_chunk(self):
        manager = self.make_manager()
        assert len(manager.chunks) == 1
        assert manager.chunk_for(12345).shard_id == "shard1"

    def test_record_insert_splits_oversized_chunk(self):
        manager = self.make_manager(chunk_size_bytes=2_000)
        for key in range(100):
            manager.record_insert(key, 100)
        assert len(manager.chunks) > 1
        # Chunks are non-overlapping and cover the whole key space.
        boundaries = [(c.lower, c.upper) for c in manager.chunks]
        assert boundaries[0][0] is MIN_KEY
        assert boundaries[-1][1] is MAX_KEY
        for (_, upper), (lower, _) in zip(boundaries, boundaries[1:]):
            assert boundary_key(upper) == boundary_key(lower)

    def test_identical_keys_produce_jumbo_chunk(self):
        """Figure 2.7: a chunk whose keys are all equal cannot be split."""
        manager = self.make_manager(chunk_size_bytes=1_000)
        for _ in range(100):
            manager.record_insert(36, 100)
        jumbo_chunks = [chunk for chunk in manager.chunks if chunk.jumbo]
        assert jumbo_chunks, "expected the overfull single-value chunk to be marked jumbo"

    def test_explicit_split_rejects_out_of_range_point(self):
        manager = self.make_manager()
        chunk = manager.chunks[0]
        manager.record_insert(10, 10)
        with pytest.raises(ChunkSplitError):
            manager.split_chunk(chunk, split_point=MIN_KEY)

    def test_shards_for_range_returns_overlapping_chunks_only(self):
        manager = self.make_manager()
        chunk = manager.chunks[0]
        for key in range(0, 300):
            chunk.record_insert(key, 1)
        left, right = manager.split_chunk(chunk, split_point=150)
        manager.move_chunk(right, "shard2")
        assert manager.shards_for_range(0, 100) == {"shard1"}
        assert manager.shards_for_range(160, 200) == {"shard2"}
        assert manager.shards_for_range(100, 200) == {"shard1", "shard2"}

    def test_shard_for_value_follows_moves(self):
        manager = self.make_manager()
        manager.move_chunk(manager.chunks[0], "shard3")
        assert manager.shard_for_value(7) == "shard3"


class TestHashPartitioning:
    def make_manager(self):
        return ChunkManager(
            "db.coll",
            ShardKeyPattern.create({"k": "hashed"}),
            ["shard1", "shard2", "shard3"],
            initial_chunks_per_shard=2,
        )

    def test_initial_chunks_spread_across_all_shards(self):
        manager = self.make_manager()
        assert len(manager.chunks) == 6
        assert set(manager.all_shards()) == {"shard1", "shard2", "shard3"}

    def test_nearby_keys_land_on_different_shards(self):
        """Hash partitioning spreads monotonically increasing keys."""
        manager = self.make_manager()
        shards = {manager.shard_for_value(key) for key in range(50)}
        assert len(shards) == 3

    def test_range_queries_broadcast_on_hashed_keys(self):
        manager = self.make_manager()
        assert manager.shards_for_range(0, 10) == {"shard1", "shard2", "shard3"}

    def test_describe_includes_key_and_chunks(self):
        description = self.make_manager().describe()
        assert description["key"] == {"k": "hashed"}
        assert len(description["chunks"]) == 6


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_every_key_is_owned_by_exactly_one_chunk(keys):
    """Property: chunk ranges partition the key space (no gaps, no overlap)."""
    manager = ChunkManager(
        "db.coll",
        ShardKeyPattern.create("k"),
        ["shard1", "shard2"],
        chunk_size_bytes=500,
    )
    for key in keys:
        manager.record_insert(key, 50)
    for key in keys:
        owners = [chunk for chunk in manager.chunks if chunk.contains(key)]
        assert len(owners) == 1
