"""Tests for the experiment harness (Table 4.1), selectivity (Table 4.4),
and the result-rendering helpers."""

from __future__ import annotations

import pytest

from repro.core import (
    DENORMALIZED_COLLECTIONS,
    EXPERIMENTS,
    ExperimentHarness,
    denormalized_pipeline,
    format_seconds,
    measure_selectivity,
    paper_reference_table_44,
    paper_reference_table_45,
    render_bar_chart,
    render_table,
    run_denormalized_query,
    selectivity_table,
    tiny_profile,
)
from repro.tpcds import QUERY_IDS, SCALE_LARGE, SCALE_SMALL


class TestExperimentDefinitions:
    def test_table_41_grid(self):
        assert EXPERIMENTS[1].data_model == "normalized"
        assert EXPERIMENTS[1].environment == "sharded"
        assert EXPERIMENTS[2].environment == "standalone"
        assert EXPERIMENTS[3].data_model == "denormalized"
        assert EXPERIMENTS[4].scale is SCALE_LARGE
        assert EXPERIMENTS[1].scale is SCALE_SMALL
        assert EXPERIMENTS[6].data_model == "denormalized"

    def test_extension_experiments_are_denormalized_sharded(self):
        assert EXPERIMENTS[7].data_model == "denormalized"
        assert EXPERIMENTS[7].environment == "sharded"
        assert EXPERIMENTS[8].scale is SCALE_LARGE

    def test_labels_are_descriptive(self):
        assert "normalized" in EXPERIMENTS[2].label
        assert "stand" in EXPERIMENTS[2].label


@pytest.fixture(scope="module")
def harness():
    """A harness whose both scales are overridden with tiny profiles."""
    return ExperimentHarness(
        scale_overrides={
            "small": tiny_profile(1.0 / 10_000.0),
            "large": tiny_profile(1.0 / 5_000.0),
        },
    )


class TestExperimentHarness:
    def test_standalone_denormalized_experiment(self, harness):
        run = harness.run_query(3, 7)
        assert run.simulated_seconds == pytest.approx(run.wall_seconds)
        assert run.result_documents > 0
        assert run.router_metrics is None

    def test_standalone_normalized_experiment(self, harness):
        result = harness.run_experiment(2)
        assert set(result.query_runs) == set(QUERY_IDS)
        assert all(run.simulated_seconds > 0 for run in result.query_runs.values())

    def test_sharded_normalized_experiment_reports_router_metrics(self, harness):
        run = harness.run_query(1, 7)
        assert run.router_metrics is not None
        assert run.network["messages"] > 0
        assert run.simulated_seconds > 0

    def test_results_agree_across_experiments(self, harness):
        """All three deployments return the same number of result rows."""
        counts = set()
        for experiment in (1, 2, 3):
            counts.add(harness.run_query(experiment, 46).result_documents)
        assert len(counts) == 1

    def test_repetitions_take_best_run(self, harness):
        run = harness.run_query(3, 7, repetitions=3)
        assert run.runs == 3

    def test_load_report_available_after_standalone_run(self, harness):
        result = harness.run_experiment(2)
        assert result.load_report is not None
        assert result.load_report.total_documents > 0

    def test_environments_are_cached(self, harness):
        first = harness.standalone_database(harness.scale(EXPERIMENTS[2]))
        second = harness.standalone_database(harness.scale(EXPERIMENTS[2]))
        assert first is second

    def test_denormalized_sharded_extension_runs(self, harness):
        assert harness.run_query(7, 7).result_documents > 0

    @pytest.mark.parametrize("query_id", QUERY_IDS)
    def test_denormalized_cluster_ships_in_proportion_to_the_groups(self, harness, query_id):
        """Experiment 7: the shards group, so each ships at most one row per group.

        The answer is Experiment 3's, with float sums and averages equal up
        to the order the shards' partial sums are added in.
        """
        standalone = harness.standalone_denormalized_database(harness.scale(EXPERIMENTS[3]))
        _cluster, routed = harness.sharded_denormalized_database(harness.scale(EXPERIMENTS[7]))
        pipeline = denormalized_pipeline(query_id)
        first_group = next(i for i, stage in enumerate(pipeline) if "$group" in stage)
        collection = DENORMALIZED_COLLECTIONS[query_id]
        groups = len(standalone[collection].aggregate(pipeline[: first_group + 1]))
        run = harness.run_query(7, query_id)
        metrics = run.router_metrics
        assert metrics["operations"] == 1
        assert metrics["documents_shipped"] <= groups * metrics["shards_contacted"]
        want = run_denormalized_query(standalone, query_id)
        got = run_denormalized_query(routed, query_id)
        assert run.result_documents == len(want) == len(got)
        for got_row, want_row in zip(got, want):
            assert got_row == pytest.approx(want_row, rel=1e-9)


class TestSelectivity:
    def test_selectivity_positive_for_all_queries(self, harness):
        database = harness.standalone_denormalized_database(harness.scale(EXPERIMENTS[3]))
        table = selectivity_table(database)
        assert set(table) == {7, 21, 46, 50}
        for query_id, measurement in table.items():
            assert measurement.result_bytes >= 0
            assert measurement.megabytes == pytest.approx(
                measurement.result_bytes / (1024 * 1024)
            )

    def test_query46_returns_more_data_than_query50(self, harness):
        """Table 4.4: Q46 has the largest result, Q50 the smallest."""
        database = harness.standalone_denormalized_database(harness.scale(EXPERIMENTS[3]))
        q46 = measure_selectivity(database, 46)
        q50 = measure_selectivity(database, 50)
        assert q46.result_bytes > q50.result_bytes


class TestResultRendering:
    def test_format_seconds_matches_paper_style(self):
        assert format_seconds(0.62) == "0.62s"
        assert format_seconds(63.93) == "1m03.93s"
        assert format_seconds(3 * 3600 + 31 * 60 + 53.72) == "3h31m53.72s"

    def test_render_table_aligns_columns(self):
        text = render_table(
            ["query", "seconds"], [[7, 0.62], [21, 0.17]], title="Table 4.5"
        )
        lines = text.splitlines()
        assert lines[0] == "Table 4.5"
        assert "query" in lines[1] and "seconds" in lines[1]
        assert len(lines) == 5

    def test_render_bar_chart_scales_bars(self):
        chart = render_bar_chart({"standalone": 1.0, "sharded": 2.0}, title="Fig 4.10")
        lines = chart.splitlines()
        assert lines[0] == "Fig 4.10"
        assert lines[2].count("#") > lines[1].count("#")

    def test_render_bar_chart_empty_series(self):
        assert "(no data)" in render_bar_chart({})

    def test_paper_reference_tables(self):
        table_45 = paper_reference_table_45()
        assert table_45[3][7] == pytest.approx(0.62)
        assert table_45[4][46] == pytest.approx(665.0)
        table_44 = paper_reference_table_44()
        assert table_44["small"][46] == pytest.approx(2.48)
