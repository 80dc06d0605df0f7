"""Tests for the streaming pipeline executor: counters, fusion, pushdown.

The engine must keep results bit-identical to the unoptimized stage-by-stage
execution while (a) streaming instead of materializing intermediates,
(b) running ``$sort``+``$limit`` as a bounded top-k selection, and
(c) pushing ``$match`` / inclusion-``$project`` toward the source.
"""

from __future__ import annotations

import pytest

from repro.documentstore import Collection, optimize_pipeline, run_pipeline
from repro.documentstore.aggregation import StageStats


ROWS = [
    {"item": chr(65 + (i % 7)), "store": i % 5, "qty": (i * 13) % 31, "tags": ["a", "b"][: i % 3]}
    for i in range(200)
]


def stage_labels(counters):
    return [stats.stage for stats in counters]


class TestStageCounters:
    def test_match_counters(self):
        counters: list[StageStats] = []
        run_pipeline(ROWS, [{"$match": {"store": 1}}], counters=counters)
        assert stage_labels(counters) == ["$match"]
        assert counters[0].docs_examined == len(ROWS)
        assert counters[0].docs_returned == sum(1 for r in ROWS if r["store"] == 1)

    def test_streaming_limit_stops_the_scan_early(self):
        """With a streaming $limit, upstream stages never see the full input."""
        counters: list[StageStats] = []
        result = run_pipeline(ROWS, [{"$match": {}}, {"$limit": 5}], counters=counters)
        assert len(result) == 5
        match_stats, limit_stats = counters
        # The $match stage only examined what $limit pulled through it.
        assert match_stats.docs_examined == 5
        assert limit_stats.docs_returned == 5

    def test_group_is_a_barrier_with_full_examination(self):
        counters: list[StageStats] = []
        run_pipeline(
            ROWS,
            [{"$group": {"_id": "$store", "n": {"$sum": 1}}}, {"$limit": 2}],
            counters=counters,
        )
        group_stats = counters[0]
        assert group_stats.docs_examined == len(ROWS)
        assert group_stats.docs_returned <= 5


class TestTopKFusion:
    def test_sort_limit_is_fused_and_does_not_materialize_the_sorted_list(self):
        counters: list[StageStats] = []
        result = run_pipeline(
            ROWS,
            [{"$sort": {"qty": -1, "item": 1}}, {"$limit": 7}, {"$project": {"qty": 1}}],
            counters=counters,
        )
        assert stage_labels(counters) == ["$sort+$limit", "$project"]
        fused = counters[0]
        # The fused stage consumes everything but only k documents ever leave
        # it — there is no N-document sorted intermediate for $project to see.
        assert fused.docs_examined == len(ROWS)
        assert fused.docs_returned == 7
        assert counters[1].docs_examined == 7
        assert len(result) == 7

    def test_fused_results_identical_to_unoptimized(self):
        pipeline = [{"$sort": {"qty": -1, "item": 1}}, {"$limit": 10}]
        assert run_pipeline(ROWS, pipeline) == run_pipeline(ROWS, pipeline, optimize=False)

    def test_sort_skip_limit_fusion(self):
        pipeline = [{"$sort": {"qty": 1}}, {"$skip": 5}, {"$limit": 4}]
        counters: list[StageStats] = []
        result = run_pipeline(ROWS, pipeline, counters=counters)
        assert stage_labels(counters) == ["$sort+$limit"]
        assert result == run_pipeline(ROWS, pipeline, optimize=False)
        assert len(result) == 4

    def test_sort_alone_still_full_sorts(self):
        pipeline = [{"$sort": {"qty": 1, "store": -1}}]
        assert run_pipeline(ROWS, pipeline) == run_pipeline(ROWS, pipeline, optimize=False)


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

    def test_match_moves_before_unwind_on_disjoint_path(self):
        pipeline = [{"$unwind": "$tags"}, {"$match": {"store": 2}}]
        optimized = optimize_pipeline(pipeline)
        assert "$match" in optimized[0]
        assert run_pipeline(ROWS, pipeline) == run_pipeline(ROWS, pipeline, optimize=False)

    def test_match_on_unwound_path_stays_after_unwind(self):
        pipeline = [{"$unwind": "$tags"}, {"$match": {"tags": "a"}}]
        optimized = optimize_pipeline(pipeline)
        assert "$unwind" in optimized[0]
        assert run_pipeline(ROWS, pipeline) == run_pipeline(ROWS, pipeline, optimize=False)

    def test_match_with_expr_is_never_pushed(self):
        pipeline = [{"$unwind": "$tags"}, {"$match": {"$expr": {"$gt": ["$qty", 3]}}}]
        assert "$unwind" in optimize_pipeline(pipeline)[0]

    def test_inclusion_project_moves_before_unwind(self):
        pipeline = [{"$unwind": "$tags"}, {"$project": {"tags": 1, "store": 1}}]
        optimized = optimize_pipeline(pipeline)
        assert "$project" in optimized[0]
        assert run_pipeline(ROWS, pipeline) == run_pipeline(ROWS, pipeline, optimize=False)

    def test_project_dropping_unwind_path_stays_put(self):
        pipeline = [{"$unwind": "$tags"}, {"$project": {"store": 1}}]
        assert "$unwind" in optimize_pipeline(pipeline)[0]

    def test_match_moves_before_lookup_on_disjoint_field(self):
        pipeline = [
            {"$lookup": {"from": "other", "localField": "store",
                         "foreignField": "store", "as": "joined"}},
            {"$match": {"qty": {"$gte": 10}}},
        ]
        optimized = optimize_pipeline(pipeline)
        assert "$match" in optimized[0]

    def test_match_on_lookup_output_stays_after_lookup(self):
        pipeline = [
            {"$lookup": {"from": "other", "localField": "store",
                         "foreignField": "store", "as": "joined"}},
            {"$match": {"joined.qty": {"$gte": 10}}},
        ]
        assert "$lookup" in optimize_pipeline(pipeline)[0]

    @pytest.mark.parametrize(
        "pipeline",
        [
            [{"$sort": {"qty": -1}}, {"$match": {"store": {"$in": [1, 2]}}}, {"$limit": 6}],
            [{"$unwind": "$tags"}, {"$match": {"store": 0}}, {"$group": {"_id": "$tags", "n": {"$sum": 1}}}],
            [{"$match": {"qty": {"$gt": 5}}}, {"$match": {"store": {"$lt": 4}}},
             {"$sort": {"qty": 1}}, {"$skip": 2}, {"$limit": 3}],
            [{"$unwind": "$tags"}, {"$project": {"tags": 1, "qty": 1, "_id": 0}},
             {"$sort": {"qty": -1}}, {"$limit": 5}],
        ],
    )
    def test_optimized_execution_is_bit_identical(self, pipeline):
        assert run_pipeline(ROWS, pipeline) == run_pipeline(ROWS, pipeline, optimize=False)


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
        expected = run_pipeline(
            [d for d in ROWS if d["store"] in (0, 1)], pipeline[1:], optimize=False
        )
        got = collection.aggregate(pipeline)
        assert [r["total"] for r in sorted(got, key=lambda r: r["_id"])] == [
            r["total"] for r in sorted(expected, key=lambda r: r["_id"])
        ]
