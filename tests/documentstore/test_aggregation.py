"""Tests for the aggregation pipeline (the Table 4.2 operator analogy)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.documentstore import (
    Collection,
    DocumentStoreClient,
    InvalidPipelineError,
    OperationFailure,
    run_pipeline,
    split_pipeline_for_shards,
)


SALES = [
    {"item": "A", "store": 1, "qty": 10, "price": 2.0, "tags": ["x", "y"]},
    {"item": "A", "store": 2, "qty": 5, "price": 2.5, "tags": ["x"]},
    {"item": "B", "store": 1, "qty": 7, "price": 1.0, "tags": []},
    {"item": "B", "store": 2, "qty": 1, "price": 3.0, "tags": ["z"]},
    {"item": "C", "store": 1, "qty": 4, "price": 9.0, "tags": ["x"]},
]


def collection_with(rows):
    collection = Collection(None, "sales")
    collection.insert_many(rows)
    return collection


class TestMatchProjectSortLimit:
    def test_match_filters_documents(self):
        result = run_pipeline(SALES, [{"$match": {"store": 1}}])
        assert len(result) == 3

    def test_project_inclusion_and_computed_fields(self):
        result = run_pipeline(
            SALES[:1],
            [{"$project": {"_id": 0, "item": 1, "total": {"$multiply": ["$qty", "$price"]}}}],
        )
        assert result == [{"item": "A", "total": 20.0}]

    def test_project_exclusion(self):
        result = run_pipeline(SALES[:1], [{"$project": {"tags": 0, "_id": 0}}])
        assert "tags" not in result[0] and "item" in result[0]

    def test_project_renames_via_field_path(self):
        """The thesis pipelines project ``i_item_id: "$_id"`` after grouping."""
        result = run_pipeline([{"_id": "X", "v": 1}], [{"$project": {"item_id": "$_id", "v": 1}}])
        assert result[0]["item_id"] == "X"

    def test_sort_ascending_and_descending(self):
        ascending = run_pipeline(SALES, [{"$sort": {"qty": 1}}])
        descending = run_pipeline(SALES, [{"$sort": {"qty": -1}}])
        assert [doc["qty"] for doc in ascending] == sorted(doc["qty"] for doc in SALES)
        assert [doc["qty"] for doc in descending] == sorted(
            (doc["qty"] for doc in SALES), reverse=True
        )

    def test_sort_by_multiple_keys(self):
        result = run_pipeline(SALES, [{"$sort": {"item": 1, "qty": -1}}])
        assert [(doc["item"], doc["qty"]) for doc in result][:2] == [("A", 10), ("A", 5)]

    def test_limit_and_skip(self):
        assert len(run_pipeline(SALES, [{"$limit": 2}])) == 2
        assert len(run_pipeline(SALES, [{"$skip": 4}])) == 1

    def test_count_stage(self):
        assert run_pipeline(SALES, [{"$count": "n"}]) == [{"n": 5}]

    def test_add_fields(self):
        result = run_pipeline(SALES[:1], [{"$addFields": {"flag": True}}])
        assert result[0]["flag"] is True and result[0]["item"] == "A"


class TestGroup:
    def test_group_sum_and_avg(self):
        result = run_pipeline(
            SALES,
            [
                {"$group": {"_id": "$item", "total_qty": {"$sum": "$qty"}, "avg_price": {"$avg": "$price"}}},
                {"$sort": {"_id": 1}},
            ],
        )
        assert result[0] == {"_id": "A", "total_qty": 15, "avg_price": 2.25}

    def test_group_by_null_aggregates_everything(self):
        result = run_pipeline(SALES, [{"$group": {"_id": None, "n": {"$sum": 1}}}])
        assert result == [{"_id": None, "n": 5}]

    def test_group_by_compound_key(self):
        result = run_pipeline(
            SALES,
            [{"$group": {"_id": {"item": "$item", "store": "$store"}, "n": {"$sum": 1}}}],
        )
        assert len(result) == 5

    def test_group_min_max_first_last_push_addtoset(self):
        result = run_pipeline(
            SALES,
            [
                {"$sort": {"qty": 1}},
                {
                    "$group": {
                        "_id": None,
                        "minimum": {"$min": "$qty"},
                        "maximum": {"$max": "$qty"},
                        "first": {"$first": "$item"},
                        "last": {"$last": "$item"},
                        "all_items": {"$push": "$item"},
                        "distinct_stores": {"$addToSet": "$store"},
                    }
                },
            ],
        )[0]
        assert result["minimum"] == 1 and result["maximum"] == 10
        assert result["first"] == "B" and result["last"] == "A"
        assert len(result["all_items"]) == 5
        assert sorted(result["distinct_stores"]) == [1, 2]

    def test_group_conditional_sum_reproduces_sql_case(self):
        """``sum(case when ... then x else 0 end)`` — the Query 21/50 pattern."""
        result = run_pipeline(
            SALES,
            [
                {
                    "$group": {
                        "_id": None,
                        "cheap_qty": {
                            "$sum": {"$cond": [{"$lt": ["$price", 2.5]}, "$qty", 0]}
                        },
                    }
                }
            ],
        )
        assert result[0]["cheap_qty"] == 17

    def test_group_avg_ignores_missing_values(self):
        rows = [{"v": 2}, {"v": 4}, {"other": 1}]
        result = run_pipeline(rows, [{"$group": {"_id": None, "a": {"$avg": "$v"}}}])
        assert result[0]["a"] == 3

    def test_group_requires_id(self):
        with pytest.raises(InvalidPipelineError):
            run_pipeline(SALES, [{"$group": {"n": {"$sum": 1}}}])

    def test_group_rejects_unknown_accumulator(self):
        with pytest.raises(InvalidPipelineError):
            run_pipeline(SALES, [{"$group": {"_id": None, "n": {"$hyperloglog": "$qty"}}}])


class TestUnwindLookupOut:
    def test_unwind_expands_arrays(self):
        result = run_pipeline(SALES, [{"$unwind": "$tags"}])
        assert len(result) == 5  # x,y + x + z + x (empty array drops)

    def test_unwind_preserve_empty(self):
        result = run_pipeline(
            SALES,
            [{"$unwind": {"path": "$tags", "preserveNullAndEmptyArrays": True}}],
        )
        assert len(result) == 6

    def test_lookup_joins_sibling_collection(self):
        client = DocumentStoreClient()
        db = client["joinme"]
        db["orders"].insert_many([{"sku": "A", "qty": 1}, {"sku": "Z", "qty": 9}])
        db["items"].insert_many([{"sku": "A", "name": "Apple"}])
        result = db["orders"].aggregate(
            [
                {
                    "$lookup": {
                        "from": "items",
                        "localField": "sku",
                        "foreignField": "sku",
                        "as": "item",
                    }
                },
                {"$sort": {"sku": 1}},
            ]
        )
        assert result[0]["item"][0]["name"] == "Apple"
        assert result[1]["item"] == []

    def test_lookup_outside_database_context_fails(self):
        with pytest.raises(OperationFailure):
            run_pipeline(SALES, [{"$lookup": {"from": "x", "localField": "a", "foreignField": "b", "as": "j"}}])

    def test_out_writes_to_collection(self):
        client = DocumentStoreClient()
        db = client["outdb"]
        db["sales"].insert_many(SALES)
        returned = db["sales"].aggregate(
            [{"$group": {"_id": "$item", "n": {"$sum": 1}}}, {"$out": "per_item"}]
        )
        assert returned == []
        assert db["per_item"].count_documents({}) == 3

    def test_out_replaces_existing_collection(self):
        client = DocumentStoreClient()
        db = client["outdb"]
        db["sales"].insert_many(SALES)
        db["target"].insert_one({"stale": True})
        db["sales"].aggregate([{"$match": {"store": 1}}, {"$out": "target"}])
        assert db["target"].count_documents({"stale": True}) == 0
        assert db["target"].count_documents({}) == 3

    def test_out_must_be_last_stage(self):
        client = DocumentStoreClient()
        db = client["outdb"]
        db["sales"].insert_many(SALES)
        with pytest.raises(InvalidPipelineError):
            db["sales"].aggregate([{"$out": "target"}, {"$match": {}}])

    def test_replace_root(self):
        rows = [{"outer": 1, "inner": {"a": 1, "b": 2}}]
        result = run_pipeline(rows, [{"$replaceRoot": {"newRoot": "$inner"}}])
        assert result == [{"a": 1, "b": 2}]


class TestPipelineValidation:
    def test_unknown_stage_rejected(self):
        with pytest.raises(InvalidPipelineError):
            run_pipeline(SALES, [{"$teleport": {}}])

    def test_stage_must_have_single_key(self):
        with pytest.raises(InvalidPipelineError):
            run_pipeline(SALES, [{"$match": {}, "$limit": 1}])

    def test_empty_pipeline_returns_documents(self):
        assert len(run_pipeline(SALES, [])) == len(SALES)

    def test_aggregation_does_not_mutate_source_collection(self):
        collection = collection_with(SALES)
        collection.aggregate(
            [{"$addFields": {"computed": {"$multiply": ["$qty", 2]}}}, {"$sort": {"qty": 1}}]
        )
        assert all("computed" not in doc for doc in collection.find({}))


    def test_vector_search_is_an_unknown_stage(self):
        collection = collection_with(SALES)
        with pytest.raises(InvalidPipelineError, match="unknown pipeline stage"):
            collection.aggregate([{"$vectorSearch": {"queryVector": [1.0], "path": "qty", "k": 1}}])

    def test_top_k_composes_with_downstream_stages(self):
        collection = collection_with(SALES)
        result = collection.aggregate(
            [
                {"$sort": {"qty": -1}},
                {"$limit": 4},
                {"$match": {"store": 1}},
                {"$project": {"_id": 0, "item": 1, "qty": 1}},
            ]
        )
        top_four = sorted(SALES, key=lambda row: -row["qty"])[:4]
        assert result == [
            {"item": row["item"], "qty": row["qty"]} for row in top_four if row["store"] == 1
        ]

    def test_a_leading_match_is_served_by_a_secondary_index(self):
        collection = collection_with(SALES)
        collection.create_index("store")
        pipeline = [{"$match": {"store": 2}}, {"$group": {"_id": "$item", "n": {"$sum": 1}}}]
        plan = collection.explain(pipeline)["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "IXSCAN" and plan["indexName"] == "store_1"
        assert sorted(collection.aggregate(pipeline), key=lambda doc: doc["_id"]) == [
            {"_id": "A", "n": 1},
            {"_id": "B", "n": 1},
        ]


class TestShardSplit:
    def test_match_and_partial_group_run_on_shards_combine_on_router(self):
        pipeline = [
            {"$match": {"store": 1}},
            {"$group": {"_id": "$item", "n": {"$sum": 1}}},
            {"$sort": {"_id": 1}},
        ]
        split = split_pipeline_for_shards(pipeline)
        assert split.shard == [
            {"$match": {"store": 1}},
            {"$group": {"_id": "$item", "n": {"$sum": 1}, "$phase": "partial"}},
        ]
        assert split.merge == [
            {"$group": {"_id": "$item", "n": {"$sum": 1}, "$phase": "merge"}},
            {"$sort": {"_id": 1}},
        ]
        assert split.merge_sort is None

    def test_an_accumulator_without_a_combine_keeps_the_group_on_the_router(self):
        pipeline = [
            {"$group": {"_id": "$item", "spread": {"$stdDevPop": "$qty"}}},
            {"$match": {"_id": "A"}},
        ]
        split = split_pipeline_for_shards(pipeline)
        assert split.shard == []
        assert split.merge == pipeline

    def test_first_and_last_split_only_under_a_pushed_sort(self):
        group = {"$group": {"_id": "$store", "top": {"$first": "$item"}}}
        assert split_pipeline_for_shards([group]).shard == []
        split = split_pipeline_for_shards([{"$sort": {"qty": -1}}, group])
        assert split.shard[0] == {"$sort": {"qty": -1}}
        assert split.shard[1]["$group"]["$sortedBy"] == {"qty": -1}
        assert [next(iter(stage)) for stage in split.merge] == ["$group"]

    def test_push_under_a_sort_merges_the_sorted_streams_then_groups(self):
        pipeline = [
            {"$sort": {"qty": 1}},
            {"$group": {"_id": "$store", "items": {"$push": "$item"}}},
        ]
        split = split_pipeline_for_shards(pipeline)
        assert split.shard == pipeline[:1]
        assert split.merge == pipeline[1:]
        assert split.merge_sort == {"qty": 1}

    def test_top_k_ships_skip_plus_limit_per_shard(self):
        pipeline = [
            {"$match": {"store": 1}},
            {"$sort": {"qty": -1}},
            {"$skip": 2},
            {"$limit": 3},
            {"$project": {"item": 1}},
        ]
        split = split_pipeline_for_shards(pipeline)
        assert split.shard == [*pipeline[:2], {"$limit": 5}]
        assert split.merge == pipeline[2:]
        assert split.merge_sort == {"qty": -1}

    def test_count_counts_per_shard_and_sums_on_the_router(self):
        split = split_pipeline_for_shards([{"$match": {"store": 1}}, {"$count": "n"}])
        assert [next(iter(stage)) for stage in split.shard] == ["$match", "$count"]
        assert split.merge == [
            {"$group": {"_id": None, "n": {"$sum": "$n"}}},
            {"$project": {"_id": 0, "n": 1}},
        ]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries(
            {"g": st.integers(0, 3), "v": st.integers(-100, 100)}
        ),
        min_size=1,
        max_size=50,
    )
)
def test_group_sum_matches_python_groupby(rows):
    """Property: $group/$sum agrees with a dictionary-based aggregation."""
    expected: dict[int, int] = {}
    for row in rows:
        expected[row["g"]] = expected.get(row["g"], 0) + row["v"]
    result = run_pipeline(rows, [{"$group": {"_id": "$g", "total": {"$sum": "$v"}}}])
    assert {doc["_id"]: doc["total"] for doc in result} == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
def test_sort_stage_matches_sorted(values):
    rows = [{"v": value} for value in values]
    result = run_pipeline(rows, [{"$sort": {"v": 1}}])
    assert [doc["v"] for doc in result] == sorted(values)
