"""NaN has one place in the order, whatever the surface and the access path.

NaN equals NaN and sorts below every number (MongoDB's order), so a range
never matches it unless its operand is NaN too.  The answers used to depend
on the plan: NaN compared "equal" to every number, which put it inside every
range on a collection scan and wherever the sorted index happened to leave
it on an index scan.
"""

from __future__ import annotations

import math

import pytest

from repro.documentstore import DocumentStoreClient
from repro.server import DocumentStoreServer, RemoteClient
from repro.sharding import ShardedCluster

NAN = float("nan")
VALUES = [NAN, 1, 5, 3.5, NAN, -2]

CASES = [
    ({"$gte": 0}, [1, 2, 3]),
    ({"$lte": 4}, [1, 3, 5]),
    ({"$gt": -10, "$lt": 10}, [1, 2, 3, 5]),
    ({"$gte": NAN}, [0, 4]),
    ({"$lte": NAN}, [0, 4]),
    ({"$lt": NAN}, []),
    ({"$in": [NAN, 5]}, [2]),  # $eq/$in: NaN still equals nothing
]


@pytest.fixture(scope="module")
def deployments():
    standalone = DocumentStoreClient()
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    for name in ("plain", "indexed"):
        cluster.shard_collection("db", name, {"_id": "hashed"})
    with DocumentStoreServer(cluster, port=0) as server, RemoteClient(server.address) as client:
        yield {
            "standalone": standalone["db"],
            "routed": cluster.get_database("db"),
            "served": client["db"],
        }
    cluster.close()


@pytest.fixture(scope="module", params=["standalone", "routed", "served"])
def surface(request, deployments):
    database = deployments[request.param]
    for name in ("plain", "indexed"):
        database[name].delete_many({})
        database[name].insert_many([{"_id": i, "x": x} for i, x in enumerate(VALUES)])
    database["indexed"].create_index("x")
    return database


@pytest.mark.parametrize("name", ["plain", "indexed"])
@pytest.mark.parametrize("condition, expected", CASES, ids=[repr(c) for c, _ in CASES])
def test_ranges_over_nan_do_not_depend_on_the_plan(surface, name, condition, expected):
    found = surface[name].find({"x": condition}).to_list()
    assert sorted(document["_id"] for document in found) == expected


@pytest.mark.parametrize("name", ["plain", "indexed"])
def test_nan_sorts_below_every_number(surface, name):
    ordered = surface[name].find({}, sort=[("x", 1), ("_id", 1)]).to_list()
    assert [document["_id"] for document in ordered] == [0, 4, 5, 1, 3, 2]
    assert all(math.isnan(document["x"]) for document in ordered[:2])
