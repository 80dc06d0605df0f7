"""Tests for the streaming pipeline executor: counters and pushdown.

The engine must keep results bit-identical to the unoptimized stage-by-stage
execution while merging adjacent ``$match`` stages and moving ``$match``
ahead of ``$sort``.
"""

from __future__ import annotations

import pytest

from repro.documentstore import Collection, compile_pipeline, optimize_pipeline
from repro.documentstore.aggregation import StageStats


ROWS = [
    {"item": chr(65 + (i % 7)), "store": i % 5, "qty": (i * 13) % 31, "tags": ["a", "b"][: i % 3]}
    for i in range(200)
]


def run_pipeline(rows, pipeline, counters=None):
    """*pipeline* over *rows*, outside any collection."""
    return compile_pipeline(pipeline).run(rows, counters=counters)


def run_as_written(rows, pipeline):
    """The reference: *pipeline* without the logical rewrites."""
    return compile_pipeline(pipeline, optimize=False).run(rows)


def stage_labels(counters):
    return [stats.stage for stats in counters]


class TestStageCounters:
    def test_match_counters(self):
        counters: list[StageStats] = []
        run_pipeline(ROWS, [{"$match": {"store": 1}}], counters=counters)
        assert stage_labels(counters) == ["$match"]
        assert counters[0].docs_examined == len(ROWS)
        assert counters[0].docs_returned == sum(1 for r in ROWS if r["store"] == 1)

    def test_group_is_a_barrier_with_full_examination(self):
        counters: list[StageStats] = []
        run_pipeline(
            ROWS,
            [{"$group": {"_id": "$store", "n": {"$sum": 1}}}, {"$sort": {"_id": 1}}],
            counters=counters,
        )
        group_stats = counters[0]
        assert group_stats.docs_examined == len(ROWS)
        assert group_stats.docs_returned <= 5


class TestPushdown:
    def test_adjacent_matches_merge(self):
        optimized = optimize_pipeline(
            [{"$match": {"store": 1}}, {"$match": {"qty": {"$gt": 3}}}]
        )
        assert len(optimized) == 1 and "$match" in optimized[0]

    def test_match_moves_before_sort(self):
        optimized = optimize_pipeline(
            [{"$sort": {"qty": 1}}, {"$match": {"store": 1}}]
        )
        assert "$match" in optimized[0] and "$sort" in optimized[1]

    @pytest.mark.parametrize(
        "pipeline",
        [
            [{"$sort": {"qty": -1}}, {"$match": {"store": {"$in": [1, 2]}}}, {"$project": {"qty": 1}}],
            [{"$sort": {"qty": 1}}, {"$match": {"store": 0}}, {"$group": {"_id": "$tags", "n": {"$sum": 1}}}],
            [{"$match": {"qty": {"$gt": 5}}}, {"$match": {"store": {"$lt": 4}}},
             {"$sort": {"qty": 1}}, {"$match": {"item": "B"}}],
        ],
    )
    def test_optimized_execution_is_bit_identical(self, pipeline):
        assert run_pipeline(ROWS, pipeline) == run_as_written(ROWS, pipeline)


class TestExplainAggregate:
    @pytest.fixture()
    def collection(self):
        collection = Collection(None, "sales")
        collection.insert_many(ROWS)
        collection.create_index("store")
        return collection

    def test_indexed_leading_match_reports_ixscan(self, collection):
        explain = collection.explain(
            [{"$match": {"store": 3}}, {"$group": {"_id": "$item", "n": {"$sum": 1}}}],
            verbosity="executionStats",
        )
        plan = explain["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "IXSCAN"
        assert plan["indexName"] == "store_1"
        stages = explain["executionStats"]["stages"]
        assert stages[0]["stage"] == "$match"
        # The matcher only examined the index candidates, not the collection.
        assert stages[0]["docsExamined"] == sum(1 for r in ROWS if r["store"] == 3)
        assert plan["pipelineStages"] == stages

    def test_unindexed_match_reports_collscan(self, collection):
        explain = collection.explain(
            [{"$match": {"qty": {"$gt": 29}}}], verbosity="executionStats"
        )
        assert explain["queryPlanner"]["winningPlan"]["stage"] == "COLLSCAN"
        assert explain["executionStats"]["stages"][0]["docsExamined"] == len(ROWS)

    def test_explain_does_not_write_out_target(self, collection):
        database_less = collection  # no database: $out unavailable in aggregate
        explain = database_less.explain(
            [{"$match": {"store": 1}}, {"$out": "target"}], verbosity="executionStats"
        )
        labels = [s["stage"] for s in explain["executionStats"]["stages"]]
        assert labels == ["$match", "$out"]

    def test_aggregate_results_unchanged_by_explain_support(self, collection):
        pipeline = [
            {"$match": {"store": {"$in": [0, 1]}}},
            {"$group": {"_id": "$item", "total": {"$sum": "$qty"}}},
            {"$sort": {"_id": 1}},
        ]
        expected = run_as_written([d for d in ROWS if d["store"] in (0, 1)], pipeline[1:])
        got = collection.aggregate(pipeline)
        assert [r["total"] for r in sorted(got, key=lambda r: r["_id"])] == [
            r["total"] for r in sorted(expected, key=lambda r: r["_id"])
        ]

    def test_a_pipeline_is_optimized_once_and_planned_from_what_runs(
        self, collection, monkeypatch
    ):
        """The plan sees the ``$match`` the rewrite moved ahead of ``$sort``."""
        from repro.documentstore import aggregation
        from repro.documentstore import collection as collection_module

        optimized = []
        optimize = aggregation.optimize_pipeline

        def counted(stages):
            optimized.append(stages)
            return optimize(stages)

        for module in (aggregation, collection_module):  # wherever a caller looks it up
            monkeypatch.setattr(module, "optimize_pipeline", counted, raising=False)
        pipeline = [{"$sort": {"qty": 1, "item": 1}}, {"$match": {"store": 3}}]
        explain = collection.explain(pipeline, verbosity="executionStats")
        assert explain["queryPlanner"]["winningPlan"]["stage"] == "IXSCAN"
        results = collection.aggregate(pipeline)
        assert [{k: v for k, v in row.items() if k != "_id"} for row in results] == run_as_written(
            ROWS, pipeline
        )
        assert len(optimized) == 2  # one per call
