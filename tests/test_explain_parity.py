"""``find(...).explain()`` is ``collection.explain(that spec)`` on every surface.

One question — which plan serves this find — has one answer document
(schema v1, ``repro.documentstore.explain``) whether it is asked through a
chained cursor or by handing the finished :class:`FindSpec` to ``explain``,
and whether the collection is stand-alone, routed through a 3-shard cluster
or served over a socket.  Only ``surface`` names where it was asked.
"""

from __future__ import annotations

import pytest

from repro.documentstore import (
    EXECUTION_KEYS,
    PLANNER_KEYS,
    TOP_LEVEL_KEYS,
    DocumentStoreClient,
    FindSpec,
)
from repro.server import DocumentStoreServer, RemoteClient
from repro.sharding import ShardedCluster

ROWS = [
    {"_id": i, "order_id": i, "store": i % 5, "amount": float(i % 17)} for i in range(120)
]

#: (filter, sort, skip, limit) — indexed and not, targeted and broadcast.
FINDS = [
    ({"store": 2}, [("amount", -1), ("order_id", 1)], 3, 7),
    ({"order_id": 17}, [("amount", 1)], 0, 1),
    ({"amount": {"$gte": 5.0}}, [("order_id", -1)], 10, 20),
]


@pytest.fixture(scope="module")
def surfaces():
    standalone = DocumentStoreClient()["shop"]["orders"]
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("shop")
    cluster.shard_collection("shop", "orders", {"order_id": "hashed"})
    routed = cluster.get_database("shop")["orders"]
    for collection in (standalone, routed):
        collection.insert_many(ROWS)
        collection.create_index("store")
    with DocumentStoreServer(cluster, port=0) as server, RemoteClient(server.address) as client:
        yield {
            "standalone": standalone,
            "sharded": routed,
            "served": client["shop"]["orders"],
        }
    cluster.close()


@pytest.mark.parametrize("surface", ["standalone", "sharded", "served"])
@pytest.mark.parametrize(("query", "sort", "skip", "limit"), FINDS)
def test_cursor_explain_equals_explain_of_its_spec(surfaces, surface, query, sort, skip, limit):
    collection = surfaces[surface]
    cursor = collection.find(query).sort(sort).skip(skip).limit(limit)
    spec = FindSpec.create(filter=query, sort=sort, skip=skip, limit=limit)
    assert cursor.spec == spec

    chained = cursor.explain()
    assert chained == collection.explain(spec)
    assert set(chained) == TOP_LEVEL_KEYS
    assert set(chained["queryPlanner"]) == PLANNER_KEYS
    assert chained["surface"] == surface
    assert chained["queryPlanner"]["spec"] == spec.describe()

    executed = collection.explain(spec, verbosity="executionStats")
    assert set(executed) == TOP_LEVEL_KEYS | {"executionStats"}
    assert set(executed["executionStats"]) == EXECUTION_KEYS
    assert executed["executionStats"]["nReturned"] == len(cursor.to_list())


@pytest.mark.parametrize(("query", "sort", "skip", "limit"), FINDS)
def test_surfaces_differ_only_where_the_deployment_does(surfaces, query, sort, skip, limit):
    spec = FindSpec.create(filter=query, sort=sort, skip=skip, limit=limit)
    standalone = surfaces["standalone"].explain(spec)
    sharded = surfaces["sharded"].explain(spec)
    served = surfaces["served"].explain(spec)
    # The served collection fronts the cluster: same document, relabelled.
    assert {**served, "surface": "sharded"} == sharded
    assert standalone["shards"] == {}
    assert standalone["queryPlanner"]["spec"] == sharded["queryPlanner"]["spec"]
    # Every contacted shard answers with its own collection's planner section.
    assert set(sharded["shards"]) == set(sharded["queryPlanner"]["winningPlan"]["shardsContacted"])
    for section in sharded["shards"].values():
        assert set(section) == PLANNER_KEYS
        assert section["spec"] == spec.shard_spec().describe()
