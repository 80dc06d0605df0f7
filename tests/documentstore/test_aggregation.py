"""Tests for the aggregation pipeline (the Table 4.2 operator analogy)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.documentstore import (
    Collection,
    DocumentStoreClient,
    InvalidPipelineError,
    compile_pipeline,
    split_pipeline_for_shards,
)


SALES = [
    {"item": "A", "store": 1, "qty": 10, "price": 2.0, "tags": ["x", "y"]},
    {"item": "A", "store": 2, "qty": 5, "price": 2.5, "tags": ["x"]},
    {"item": "B", "store": 1, "qty": 7, "price": 1.0, "tags": []},
    {"item": "B", "store": 2, "qty": 1, "price": 3.0, "tags": ["z"]},
    {"item": "C", "store": 1, "qty": 4, "price": 9.0, "tags": ["x"]},
]


def run_pipeline(documents, pipeline):
    """*pipeline* over *documents*, outside any collection."""
    return compile_pipeline(pipeline).run(documents)


def collection_with(rows):
    collection = Collection(None, "sales")
    collection.insert_many(rows)
    return collection


class TestMatchProjectSort:
    def test_match_filters_documents(self):
        result = run_pipeline(SALES, [{"$match": {"store": 1}}])
        assert len(result) == 3

    def test_project_inclusion_and_computed_fields(self):
        result = run_pipeline(
            SALES[:1],
            [{"$project": {"_id": 0, "item": 1, "per_unit": {"$divide": ["$qty", "$price"]}}}],
        )
        assert result == [{"item": "A", "per_unit": 5.0}]

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

    def test_group_avg_without_values_is_null(self):
        rows = [{"k": "x", "v": 1}, {"k": "y"}]
        result = run_pipeline(
            rows, [{"$group": {"_id": "$k", "a": {"$avg": "$v"}}}, {"$sort": {"_id": 1}}]
        )
        assert result == [{"_id": "x", "a": 1.0}, {"_id": "y", "a": None}]

    def test_group_sum_of_a_constant_counts_each_group(self):
        result = run_pipeline(
            SALES, [{"$group": {"_id": "$item", "n": {"$sum": 1}}}, {"$sort": {"_id": 1}}]
        )
        assert result == [{"_id": "A", "n": 2}, {"_id": "B", "n": 2}, {"_id": "C", "n": 1}]

    def test_match_after_group_filters_the_groups(self):
        result = run_pipeline(
            SALES,
            [
                {"$group": {"_id": "$item", "qty": {"$sum": "$qty"}}},
                {"$match": {"qty": {"$gte": 8}}},
                {"$sort": {"_id": 1}},
            ],
        )
        assert result == [{"_id": "A", "qty": 15}, {"_id": "B", "qty": 8}]

    def test_group_by_a_projected_condition(self):
        result = run_pipeline(
            SALES,
            [
                {"$project": {"cheap": {"$cond": [{"$lt": ["$price", 2.5]}, True, False]}}},
                {"$group": {"_id": "$cheap", "n": {"$sum": 1}}},
                {"$sort": {"_id": 1}},
            ],
        )
        assert result == [{"_id": False, "n": 3}, {"_id": True, "n": 2}]

    def test_group_requires_id(self):
        with pytest.raises(InvalidPipelineError):
            run_pipeline(SALES, [{"$group": {"n": {"$sum": 1}}}])

    def test_group_rejects_unknown_accumulator(self):
        with pytest.raises(InvalidPipelineError):
            run_pipeline(SALES, [{"$group": {"_id": None, "n": {"$hyperloglog": "$qty"}}}])


class TestOut:
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


class TestPipelineValidation:
    def test_unknown_stage_rejected(self):
        with pytest.raises(InvalidPipelineError):
            run_pipeline(SALES, [{"$teleport": {}}])

    def test_stage_must_have_single_key(self):
        with pytest.raises(InvalidPipelineError):
            run_pipeline(SALES, [{"$match": {}, "$sort": {"qty": 1}}])

    def test_empty_pipeline_returns_documents(self):
        assert len(run_pipeline(SALES, [])) == len(SALES)

    def test_aggregation_does_not_mutate_source_collection(self):
        collection = collection_with(SALES)
        collection.aggregate(
            [{"$sort": {"qty": 1}}, {"$project": {"computed": {"$subtract": ["$qty", 2]}}}]
        )
        assert all("computed" not in doc for doc in collection.find({}))

    def test_vector_search_is_an_unknown_stage(self):
        collection = collection_with(SALES)
        with pytest.raises(InvalidPipelineError, match="unknown pipeline stage"):
            collection.aggregate([{"$vectorSearch": {"queryVector": [1.0], "path": "qty", "k": 1}}])

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
