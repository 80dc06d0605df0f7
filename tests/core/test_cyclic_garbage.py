"""A round of the paper's queries leaves nothing for the cyclic collector.

With the collector off, each normalized and denormalized query runs once,
stand-alone and routed; ``gc.collect()`` must then find no garbage.  The
planner's self-recursive ``visit`` closure (a function cell holding itself)
was all of a round's cyclic garbage before it became a module function:
hundreds of objects per query that only a generation-2 collection freed.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.denormalize import denormalize_all_facts
from repro.core.experiments import EXPERIMENT_CHUNK_SIZE_BYTES, SHARD_KEYS
from repro.core.migration import migrate_generated_dataset
from repro.core.translate_denormalized import run_denormalized_query
from repro.core.translate_normalized import run_normalized_query
from repro.sharding import ShardedCluster
from repro.tpcds.schema import QUERY_TABLES

QUERIES = (7, 21, 46, 50)
RUNS = {"normalized": run_normalized_query, "denormalized": run_denormalized_query}


@pytest.fixture(scope="module")
def routed_denormalized_db(tiny_generator):
    """A 3-shard cluster holding the normalized and the denormalized collections."""
    database_name = tiny_generator.profile.database_name
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding(database_name)
    for collection_name, shard_key in SHARD_KEYS.items():
        if collection_name in QUERY_TABLES:
            cluster.shard_collection(
                database_name,
                collection_name,
                shard_key,
                chunk_size_bytes=EXPERIMENT_CHUNK_SIZE_BYTES,
            )
    routed = cluster.get_database(database_name)
    migrate_generated_dataset(routed, tiny_generator, tables=QUERY_TABLES)
    denormalize_all_facts(routed)
    cluster.balance()
    yield routed
    cluster.close()


@pytest.mark.parametrize("model", RUNS)
@pytest.mark.parametrize("surface", ["standalone", "routed"])
def test_a_query_round_leaves_no_cyclic_garbage(
    denormalized_db, routed_denormalized_db, surface, model
):
    database = denormalized_db if surface == "standalone" else routed_denormalized_db
    run = RUNS[model]
    for query_id in QUERIES:
        run(database, query_id)  # warm: first calls may fill module caches
    gc.collect()
    gc.disable()
    try:
        for query_id in QUERIES:
            run(database, query_id)
        assert gc.collect() == 0
    finally:
        gc.enable()
