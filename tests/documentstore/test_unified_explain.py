"""The unified ``explain()`` entry point on a stand-alone collection."""

from __future__ import annotations

import pytest

from repro.documentstore import (
    EXECUTION_KEYS,
    EXPLAIN_VERSION,
    PLANNER_KEYS,
    TOP_LEVEL_KEYS,
    DocumentStoreClient,
    FindSpec,
    OperationFailure,
)


def build_collection():
    collection = DocumentStoreClient()["shop"]["orders"]
    collection.insert_many(
        [{"_id": i, "store": i % 5, "amount": float(i)} for i in range(50)]
    )
    collection.create_index("store")
    return collection


def assert_schema(explain, *, surface, operation, verbosity):
    expected = set(TOP_LEVEL_KEYS)
    if verbosity == "executionStats":
        expected.add("executionStats")
    assert set(explain) == expected
    assert explain["explainVersion"] == EXPLAIN_VERSION
    assert explain["surface"] == surface
    assert explain["operation"] == operation
    assert explain["verbosity"] == verbosity
    assert set(explain["queryPlanner"]) == set(PLANNER_KEYS)
    if verbosity == "executionStats":
        assert EXECUTION_KEYS <= set(explain["executionStats"])


class TestFindExplain:
    def test_query_planner_schema(self):
        collection = build_collection()
        explain = collection.explain({"store": 2})
        assert_schema(
            explain, surface="standalone", operation="find", verbosity="queryPlanner"
        )
        assert explain["namespace"] == "shop.orders"
        assert explain["queryPlanner"]["winningPlan"]["stage"] == "IXSCAN"

    def test_execution_stats_schema(self):
        collection = build_collection()
        explain = collection.explain({"store": 2}, verbosity="executionStats")
        assert_schema(
            explain, surface="standalone", operation="find", verbosity="executionStats"
        )
        assert explain["executionStats"]["nReturned"] == 10

    def test_findspec_argument(self):
        collection = build_collection()
        spec = FindSpec(filter={"store": 1})
        explain = collection.explain(spec)
        assert explain["operation"] == "find"
        assert explain["queryPlanner"]["winningPlan"]["stage"] == "IXSCAN"

    def test_empty_query(self):
        collection = build_collection()
        explain = collection.explain()
        assert explain["queryPlanner"]["winningPlan"]["stage"] == "COLLSCAN"

    def test_unknown_verbosity_rejected(self):
        collection = build_collection()
        with pytest.raises(OperationFailure, match="verbosity"):
            collection.explain({}, verbosity="allPlansExecution")


class TestAggregateExplain:
    PIPELINE = [
        {"$match": {"store": 3}},
        {"$group": {"_id": "$store", "total": {"$sum": "$amount"}}},
    ]

    def test_query_planner_schema(self):
        collection = build_collection()
        explain = collection.explain(self.PIPELINE)
        assert_schema(
            explain,
            surface="standalone",
            operation="aggregate",
            verbosity="queryPlanner",
        )
        assert explain["queryPlanner"]["spec"]["pipeline"] == self.PIPELINE

    def test_execution_stats_schema(self):
        collection = build_collection()
        explain = collection.explain(self.PIPELINE, verbosity="executionStats")
        assert_schema(
            explain,
            surface="standalone",
            operation="aggregate",
            verbosity="executionStats",
        )
        assert explain["executionStats"]["nReturned"] == 1
        assert explain["executionStats"]["stages"]

    def test_out_stage_not_written_during_explain(self):
        collection = build_collection()
        database = collection.database
        collection.explain(
            [{"$match": {"store": 1}}, {"$out": "explained"}],
            verbosity="executionStats",
        )
        assert "explained" not in database.list_collection_names()


class TestCursorExplain:
    """``find(...).explain()`` is ``collection.explain(that spec)``."""

    def test_cursor_explain_shape(self):
        collection = build_collection()
        cursor = collection.find({"store": 2}).sort("amount", -1).skip(1).limit(3)
        explain = cursor.explain()
        assert_schema(
            explain, surface="standalone", operation="find", verbosity="queryPlanner"
        )
        assert explain == collection.explain(cursor.spec)
        assert explain["queryPlanner"]["sortMode"] == "topK"
        assert explain["queryPlanner"]["spec"]["limit"] == 3
