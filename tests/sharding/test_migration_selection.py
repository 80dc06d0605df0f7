"""A chunk migration moves exactly the documents the router routes to the chunk.

The balancer selects a chunk's documents in one uncopied pass over the source
shard, keeping each document whose routing value the chunk contains.  The
selection it replaced — a range query on a ranged key, a copying full scan
tested by hash on a hashed one — is kept here as the reference for the bench
dataset, where both must produce the same migrations.
"""

from __future__ import annotations

import random

import pytest

from repro.core import SHARD_KEYS, migrate_rows
from repro.documentstore.bson import document_size
from repro.sharding import Balancer, ShardedCluster
from repro.sharding.chunks import MaxKey, MinKey
from repro.tpcds import QUERY_TABLES, SCALE_SMALL, TPCDSGenerator

#: The bench dataset: generator seed and chunk size of ``benchmarks/bench``.
BENCH_SEED = 20151109
BENCH_CHUNK_SIZE_BYTES = 64 * 1024


def full_scan_selection(self, manager, chunk, shard, database_name, collection_name):
    """The previous selection (reference): a range query or a hash-tested full scan,
    with the bytes of the selected documents measured by walking them."""
    collection = shard.collection(database_name, collection_name)
    if not manager.shard_key.hashed:
        conditions = {}
        if not isinstance(chunk.lower, MinKey):
            conditions["$gte"] = chunk.lower
        if not isinstance(chunk.upper, MaxKey):
            conditions["$lt"] = chunk.upper
        key_field = manager.shard_key.fields[0]
        selected = collection.find({key_field: conditions} if conditions else {}).to_list()
    else:
        selected = [
            document
            for document in collection.find({})
            if chunk.contains(manager.shard_key.extract(document))
        ]
    return selected, sum(map(document_size, selected))


def assert_every_document_on_its_chunk_shard(cluster: ShardedCluster) -> int:
    """Every stored document sits on the shard owning its chunk; returns how many."""
    checked = 0
    for namespace in cluster.config_server.sharded_namespaces():
        database_name, collection_name = namespace.split(".", 1)
        manager = cluster.config_server.chunk_manager(database_name, collection_name)
        for shard in cluster.shards:
            for document in shard.collection(database_name, collection_name).find({}):
                owner = manager.chunk_for(manager.shard_key.extract(document)).shard_id
                assert owner == shard.shard_id, (namespace, document)
                checked += 1
    return checked


@pytest.fixture(scope="module")
def bench_tables() -> dict[str, list[dict]]:
    generator = TPCDSGenerator(SCALE_SMALL, seed=BENCH_SEED)
    rng = random.Random(1)
    tables = {}
    for table in sorted(QUERY_TABLES):
        rows = list(generator.generate_table(table))
        rng.shuffle(rows)
        tables[table] = rows
    return tables


def load_and_balance(tables: dict[str, list[dict]]) -> ShardedCluster:
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    for table, shard_key in SHARD_KEYS.items():
        cluster.shard_collection("db", table, shard_key, chunk_size_bytes=BENCH_CHUNK_SIZE_BYTES)
    database = cluster.get_database("db")
    for table, rows in tables.items():
        migrate_rows(database[table], rows)
    cluster.balance()
    return cluster


def placement(cluster: ShardedCluster) -> dict[tuple[str, str], list]:
    """Each shard's rows of each table (the generated ``_id`` aside)."""
    return {
        (shard.shard_id, name): sorted(
            repr(sorted((key, value) for key, value in document.items() if key != "_id"))
            for document in shard.collection("db", name).find({})
        )
        for shard in cluster.shards
        for name in SHARD_KEYS
    }


def test_balance_migrates_what_the_full_scan_reference_migrates(bench_tables, monkeypatch):
    cluster = load_and_balance(bench_tables)
    with monkeypatch.context() as patched:
        patched.setattr(Balancer, "_documents_in_chunk", full_scan_selection)
        reference = load_and_balance(bench_tables)
    try:
        assert cluster.balancer.history == reference.balancer.history
        # Hashed (inventory) and ranged (store_returns) chunks both migrate.
        migrated = {record.namespace for record in cluster.balancer.history}
        assert {"db.inventory", "db.store_returns"} <= migrated
        assert placement(cluster) == placement(reference)
        documents = sum(len(rows) for table, rows in bench_tables.items() if table in SHARD_KEYS)
        assert assert_every_document_on_its_chunk_shard(cluster) == documents
    finally:
        cluster.close()
        reference.close()


def mixed_type_cluster() -> ShardedCluster:
    """A ranged key over 300 ints and 100 strings, split into 2 KB chunks."""
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    cluster.shard_collection("db", "t", {"k": 1}, chunk_size_bytes=2048)
    cluster.get_database("db")["t"].insert_many(
        [{"k": i} for i in range(300)] + [{"k": "str%03d" % i} for i in range(100)]
    )
    return cluster


def test_a_chunk_whose_bounds_differ_in_type_migrates_its_documents():
    """Type bracketing made ``{k: {$gte: 250, $lt: "str000"}}`` match nothing: the
    metadata moved without the documents, which every targeted read then missed."""
    cluster = mixed_type_cluster()
    routed = cluster.get_database("db")["t"]
    manager = cluster.config_server.chunk_manager("db", "t")
    chunk = next(c for c in manager.chunks if type(c.lower) is int and type(c.upper) is str)
    destination = next(s for s in cluster.config_server.shard_ids if s != chunk.shard_id)
    record = cluster.balancer.migrate_chunk("db", "t", chunk, destination)
    assert record.documents_moved == 300 - chunk.lower > 0
    assert all(routed.count_documents({"k": key}) == 1 for key in range(chunk.lower, 300))
    assert routed.count_documents({"k": "str000"}) == 1
    assert cluster.data_distribution("db", "t")[destination] == record.documents_moved
    assert assert_every_document_on_its_chunk_shard(cluster) == 400
    cluster.close()


@pytest.mark.parametrize("shard_key", [{"k": 1}, {"k": "hashed"}], ids=["range", "hashed"])
def test_after_balance_every_document_sits_on_its_chunk_shard(shard_key):
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    manager = cluster.shard_collection("db", "t", shard_key, chunk_size_bytes=2048)
    for chunk in manager.chunks:  # every chunk starts on one shard, so the balancer works
        manager.move_chunk(chunk, "shard1")
    keys = [*range(300), *("str%03d" % i for i in range(100)), 2.5, 300.0, -0.5, True]
    cluster.get_database("db")["t"].insert_many([{"k": key} for key in keys])
    # A document that lost its shard key lies in no chunk: the balancer leaves it.
    cluster.get_database("db")["t"].update_one({"k": 7}, {"lost": "k"})
    cluster.balance()
    assert cluster.balancer.history
    assert not cluster.balancer.needs_balancing("db", "t")
    routed = cluster.get_database("db")["t"]
    assert routed.count_documents({}) == len(keys)
    assert all(routed.count_documents({"k": key}) == 1 for key in keys if key != 7)
    unkeyed = 0
    for shard in cluster.shards:  # every keyed document is where its chunk is
        for document in shard.collection("db", "t").find({}):
            if "k" not in document:
                unkeyed += 1
                continue
            owner = manager.chunk_for(manager.shard_key.extract(document)).shard_id
            assert owner == shard.shard_id, document
    assert unkeyed == 1
    cluster.close()
