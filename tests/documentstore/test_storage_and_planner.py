"""Tests for the query planner's plan selection."""

from __future__ import annotations

from repro.documentstore import Collection, plan_query
from repro.documentstore.indexes import Index, IndexSpec


def make_indexes(*specs):
    indexes = {}
    for spec in specs:
        index_spec = IndexSpec.from_key_specification(spec)
        indexes[index_spec.name] = Index(index_spec)
    return indexes


class TestPlanSelection:
    def test_no_indexes_means_collscan(self):
        plan = plan_query({"a": 1}, {}, collection_size=100)
        assert plan.stage == "COLLSCAN"
        assert plan.documents_examined == 100

    def test_no_filter_means_collscan(self):
        plan = plan_query({}, make_indexes("a"), collection_size=10)
        assert plan.stage == "COLLSCAN"

    def test_equality_on_indexed_field_uses_index(self):
        indexes = make_indexes("a")
        indexes["a_1"].insert({"a": 1}, 1)
        indexes["a_1"].insert({"a": 2}, 2)
        plan = plan_query({"a": 1}, indexes, collection_size=2)
        assert plan.stage == "IXSCAN"
        assert plan.candidate_ids == (1,)

    def test_range_on_indexed_field_uses_index(self):
        indexes = make_indexes("a")
        for doc_id, value in enumerate((5, 10, 15, 20), start=1):
            indexes["a_1"].insert({"a": value}, doc_id)
        plan = plan_query({"a": {"$gte": 10, "$lte": 15}}, indexes, collection_size=4)
        assert plan.stage == "IXSCAN"
        assert set(plan.candidate_ids) == {2, 3}

    def test_in_fans_out_to_point_lookups(self):
        indexes = make_indexes("a")
        for doc_id, value in enumerate((1, 2, 3, 4), start=1):
            indexes["a_1"].insert({"a": value}, doc_id)
        plan = plan_query({"a": {"$in": [2, 4]}}, indexes, collection_size=4)
        assert plan.stage == "IXSCAN"
        assert set(plan.candidate_ids) == {2, 4}

    def test_conditions_inside_and_are_used(self):
        indexes = make_indexes("a")
        indexes["a_1"].insert({"a": 3}, 1)
        plan = plan_query({"$and": [{"a": 3}, {"b": {"$gt": 1}}]}, indexes, collection_size=1)
        assert plan.stage == "IXSCAN"

    def test_or_queries_do_not_use_indexes(self):
        indexes = make_indexes("a")
        indexes["a_1"].insert({"a": 3}, 1)
        plan = plan_query({"$or": [{"a": 3}, {"b": 1}]}, indexes, collection_size=1)
        assert plan.stage == "COLLSCAN"

    def test_longer_equality_prefix_wins(self):
        indexes = make_indexes("a", [("a", 1), ("b", 1)])
        indexes["a_1"].insert({"a": 1, "b": 2}, 1)
        indexes["a_1_b_1"].insert({"a": 1, "b": 2}, 1)
        plan = plan_query({"a": 1, "b": 2}, indexes, collection_size=1)
        assert plan.index_name == "a_1_b_1"

    def test_hashed_index_serves_equality_but_not_range(self):
        indexes = make_indexes({"a": "hashed"})
        indexes["a_hashed"].insert({"a": 10}, 1)
        equality_plan = plan_query({"a": 10}, indexes, collection_size=1)
        assert equality_plan.stage == "IXSCAN"
        range_plan = plan_query({"a": {"$gte": 5}}, indexes, collection_size=1)
        assert range_plan.stage == "COLLSCAN"

    def test_plan_describe_shapes(self):
        indexes = make_indexes("a")
        indexes["a_1"].insert({"a": 1}, 1)
        description = plan_query({"a": 1}, indexes, collection_size=1).describe()
        assert description["stage"] == "IXSCAN"
        assert description["indexName"] == "a_1"
        collscan = plan_query({"zzz": 1}, indexes, collection_size=1).describe()
        assert collscan == {"stage": "COLLSCAN"}

    def test_plans_are_supersets_of_matches(self):
        """The planner may over-approximate but never under-approximate."""
        collection = Collection(None, "c")
        collection.insert_many([{"a": i % 5, "b": i % 3} for i in range(60)])
        collection.create_index("a")
        expected = {
            doc["_id"] for doc in collection.find({"a": 2, "b": 1})
        }
        with_index = {doc["_id"] for doc in collection.find({"a": 2, "b": 1})}
        assert with_index == expected
