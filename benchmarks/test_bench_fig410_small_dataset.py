"""Figure 4.10 — query execution time comparison for the small dataset.

The paper's Figure 4.10 plots, for each of the four queries, the runtime of
the three small-dataset setups: denormalized / stand-alone (Experiment 3),
normalized / stand-alone (Experiment 2), and normalized / sharded
(Experiment 1).  This benchmark measures the same three series and renders a
bar chart per query.  The expected shape: the denormalized bar is the
shortest for every query; the sharded bar is the tallest for the broadcast
queries 7, 21, and 46.
"""

from __future__ import annotations

import pytest

from repro.core import render_bar_chart
from repro.tpcds import QUERY_IDS

SERIES = {
    "denormalized / stand-alone (Exp 3)": 3,
    "normalized / stand-alone (Exp 2)": 2,
    "normalized / sharded (Exp 1)": 1,
}


@pytest.mark.benchmark(group="figure-4.10")
@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_small_dataset_query_comparison(
    benchmark, harness, query_id, measured_runtimes, record_artifact, paired_runtimes
):
    """Measure the three small-dataset series for one query and plot them."""

    def run_all_series():
        chart_series = {}
        for label, experiment in SERIES.items():
            key = (experiment, query_id)
            if key not in measured_runtimes:
                run = harness.run_query(experiment, query_id, repetitions=2)
                measured_runtimes[key] = run.simulated_seconds
            chart_series[label] = measured_runtimes[key]
        return chart_series

    chart_series = benchmark.pedantic(run_all_series, rounds=1, iterations=1)
    record_artifact(
        f"figure_4_10_query{query_id}_small_dataset",
        render_bar_chart(
            chart_series,
            title=f"Figure 4.10 — Query {query_id}, 9.94GB (small) dataset",
        ),
    )

    denormalized = chart_series["denormalized / stand-alone (Exp 3)"]
    standalone = chart_series["normalized / stand-alone (Exp 2)"]
    sharded = chart_series["normalized / sharded (Exp 1)"]
    assert denormalized <= standalone * 1.1
    assert denormalized <= sharded * 1.1
    if query_id in (21, 46):
        # A 1.1–1.4× difference, within the host's drift between two cells:
        # compared on alternating runs of the pair (see ``paired_runtimes``).
        sharded, standalone = paired_runtimes(1, 2, query_id)
        assert sharded > standalone
