"""A routed aggregate answers what one collection holding every document answers.

Random pipelines from a small grammar — ``$match``/``$project`` stages, an
optional ``$sort`` on a unique key, an optional ``$group`` with both
accumulators, then an optional ``$sort`` of the groups — run over a random
3-way partition of random mixed-type documents: the partition's slices are
placed directly on the three shards of a cluster, and the same documents go
into one stand-alone collection.  Whatever :func:`split_pipeline_for_shards`
pushes down (the two-phase ``$group``, a ``$sort`` the router k-way merges)
or leaves on the router, the routed answer must be the stand-alone one:
exactly when the output is sorted on a unique key, as a multiset otherwise.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.documentstore import Collection
from repro.sharding import ShardedCluster

#: Numbers compare rounded to this many decimal places, the one float
#: tolerance: the shards' partial ``$sum``/``$avg`` states add in another
#: order than one collection does (the generated floats are multiples of 1/8,
#: so sums and averages come out exact).
DECIMALS = 9

NUMBERS = st.one_of(
    st.integers(-20, 20), st.integers(-160, 160).map(lambda eighths: eighths / 8)
)
SCALARS = st.one_of(
    NUMBERS, NUMBERS, NUMBERS, st.booleans(), st.none(), st.sampled_from(["a", "b"])
)
DOCUMENTS = st.lists(
    st.fixed_dictionaries(
        {"g": st.sampled_from([0, 1, 1.0, True, None, "a"]), "v": SCALARS},
    ),
    min_size=8,
    max_size=30,
)
PER_DOCUMENT = st.sampled_from(
    [
        {"$match": {"v": {"$gte": 0}}},
        {"$match": {"g": {"$in": [1, "a", None]}}},
        {"$match": {"$or": [{"v": None}, {"g": {"$ne": "a"}}]}},
        {"$project": {"g": 1, "v": 1, "u": 1}},
        {"$project": {"g": 1, "u": 1, "w": {"$cond": [{"$gt": ["$v", 0]}, "$v", 0]}}},
    ]
)
#: ``u`` is unique.
UNIQUE_SORTS = st.builds(lambda u: {"$sort": {"u": u}}, st.sampled_from([1, -1]))
ACCUMULATORS = {
    "sum": {"$sum": "$v"},
    "n": {"$sum": 1},
    "avg": {"$avg": "$v"},
    "wsum": {"$sum": "$w"},
}


@st.composite
def pipelines(draw) -> tuple[list[dict[str, Any]], bool]:
    """``(pipeline, output sorted on a unique key?)``."""
    pipeline = draw(st.lists(PER_DOCUMENT, max_size=2))
    sorted_input = draw(st.booleans())
    if sorted_input:
        pipeline.append(draw(UNIQUE_SORTS))
    if not draw(st.sampled_from([True, True, False])):
        return pipeline, sorted_input
    chosen = draw(st.lists(st.sampled_from(sorted(ACCUMULATORS)), min_size=1, max_size=4, unique=True))
    group_id = draw(st.sampled_from(["$g", None, {"k": "$g"}]))
    pipeline.append({"$group": {"_id": group_id, **{name: ACCUMULATORS[name] for name in chosen}}})
    if draw(st.booleans()):
        pipeline.append({"$sort": {"_id": draw(st.sampled_from([1, -1]))}})
        return pipeline, True
    return pipeline, False


def canonical(value: Any) -> Any:
    """A hashable form in which ``1`` and ``1.0`` (two spellings of one group) agree."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return (type(value).__name__, value)
    if isinstance(value, (int, float)):
        return ("number", round(float(value), DECIMALS))
    return ("document", tuple(sorted((key, canonical(item)) for key, item in value.items())))


def canonical_row(row: dict[str, Any]) -> Any:
    return tuple(sorted((key, canonical(value)) for key, value in row.items()))


@pytest.fixture(scope="module")
def cluster():
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("prop")
    cluster.shard_collection("prop", "docs", {"_id": "hashed"})
    yield cluster
    cluster.close()


def test_a_match_no_shard_can_hold_answers_like_an_empty_collection(cluster):
    for shard in cluster.shards:
        shard.collection("prop", "docs").drop()
    routed = cluster.get_database("prop")["docs"]
    routed.insert_many([{"_id": u, "v": u} for u in range(9)])
    nothing = {"$match": {"_id": {"$in": []}}}
    assert routed.aggregate([nothing]) == []
    assert routed.aggregate([nothing, {"$group": {"_id": None, "n": {"$sum": 1}}}]) == []


#: Documents every shard gets several of, in three groups with repeated values.
SPREAD = [{"g": [1, 1.0, "a"][u % 3], "v": [2, 0.5, 2, None][u % 4]} for u in range(24)]


@settings(max_examples=150, deadline=None)
@given(documents=DOCUMENTS, partition=st.randoms(use_true_random=False), drawn=pipelines())
@example(  # two-phase $avg / $sum, sorted on the group key
    documents=SPREAD,
    partition=random.Random(1),
    drawn=(
        [
            {"$group": {"_id": "$g", "avg": ACCUMULATORS["avg"], "n": ACCUMULATORS["n"]}},
            {"$sort": {"_id": 1}},
        ],
        True,
    ),
)
@example(  # the router k-way merges the shards' sorted outputs
    documents=SPREAD,
    partition=random.Random(2),
    drawn=([{"$match": {"v": {"$gte": 0}}}, {"$sort": {"u": -1}}], True),
)
def test_routed_aggregate_equals_stand_alone(cluster, documents, partition, drawn):
    pipeline, exact = drawn
    documents = [{**document, "_id": u, "u": u} for u, document in enumerate(documents)]
    shard_of = [partition.randrange(3) for _document in documents]
    standalone = Collection(None, "docs")
    standalone.insert_many([dict(document) for document in documents])
    for position, shard in enumerate(cluster.shards):
        local = shard.collection("prop", "docs")
        local.drop()
        local.insert_many(
            [dict(document) for document in documents if shard_of[document["u"]] == position]
        )
    routed = cluster.get_database("prop")["docs"].aggregate(pipeline)
    want = standalone.aggregate(pipeline)
    got_rows = list(map(canonical_row, routed))
    want_rows = list(map(canonical_row, want))
    if exact:
        assert got_rows == want_rows
    else:
        assert Counter(got_rows) == Counter(want_rows)
