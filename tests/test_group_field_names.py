"""A caller's ``$group`` may not name a field that starts with ``$``.

``"$phase"`` is the router's marker for the two halves of a split ``$group``
(``split_pipeline_for_shards``).  A caller that passed it got a bare
``KeyError``, different on each surface; any other ``$``-prefixed name
became an output field.  MongoDB refuses every
``$``-prefixed ``$group`` field name, and so does every surface here.
"""

from __future__ import annotations

import pytest

from repro.documentstore import DocumentStoreClient, InvalidPipelineError
from repro.server import DocumentStoreServer, RemoteClient
from repro.sharding import ShardedCluster

DOCUMENTS = [{"_id": i, "k": i % 2, "v": i} for i in range(6)]

PROBES = {
    "phase": {"_id": "$k", "n": {"$sum": 1}, "$phase": "merge"},
    "output": {"_id": "$k", "$bogus": {"$sum": 1}},
}


@pytest.fixture(scope="module")
def deployments():
    standalone = DocumentStoreClient()
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    cluster.shard_collection("db", "c", {"_id": "hashed"})
    with DocumentStoreServer(cluster, port=0) as server, RemoteClient(server.address) as client:
        yield {
            "standalone": standalone["db"]["c"],
            "routed": cluster.get_database("db")["c"],
            "served": client["db"]["c"],
        }
    cluster.close()


@pytest.fixture(scope="module", params=["standalone", "routed", "served"])
def collection(request, deployments):
    collection = deployments[request.param]
    collection.delete_many({})
    collection.insert_many(DOCUMENTS)
    return collection


@pytest.mark.parametrize("probe", PROBES)
def test_a_dollar_prefixed_group_field_is_refused(collection, probe):
    with pytest.raises(InvalidPipelineError):
        collection.aggregate([{"$group": PROBES[probe]}])
    # The router's own split of a $group still runs on every surface.
    pipeline = [{"$sort": {"v": -1}}, {"$group": {"_id": "$k", "n": {"$sum": 1}, "m": {"$avg": "$v"}}}]
    answer = sorted(collection.aggregate(pipeline), key=lambda row: row["_id"])
    assert answer == [{"_id": 0, "n": 3, "m": 2.0}, {"_id": 1, "n": 3, "m": 3.0}]
