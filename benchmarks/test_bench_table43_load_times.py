"""Table 4.3 — data load times per table for both dataset scales.

The paper loads every ``dsdgen`` ``.dat`` file into the document store with
the migration algorithm of Figure 4.3 and reports the per-table load time for
the 1 GB and 5 GB datasets.  This benchmark loads the generator's rows instead
(``migrate_generated_dataset``: the same document construction and inserts,
without the ``.dat`` parse) into a fresh stand-alone deployment (all 24
tables) and renders the per-table times, preserving the two observations of
Section 4.3:

* tables whose row count is identical across scales load in (near-)identical
  time;
* for the scaling tables, the ratio of load times follows the ratio of row
  counts.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core import render_table
from repro.core.migration import migrate_generated_dataset
from repro.documentstore import DocumentStoreClient
from repro.tpcds import NON_SCALING_TABLES, SCALE_LARGE, SCALE_SMALL, TPCDSGenerator

#: Load reports shared with the Figure 4.9 benchmark (same session).
LOAD_REPORTS: dict[str, object] = {}


def _load_full_dataset(profile, tables=None):
    generator = TPCDSGenerator(profile, seed=20151109)
    client = DocumentStoreClient()
    database = client[profile.database_name]
    return migrate_generated_dataset(database, generator, tables=tables)


def _store_sales_load_seconds(profile):
    return _load_full_dataset(profile, ["store_sales"]).results["store_sales"].seconds


@pytest.mark.benchmark(group="table-4.3")
@pytest.mark.parametrize("profile", [SCALE_SMALL, SCALE_LARGE], ids=["small-1GB", "large-5GB"])
def test_load_all_tables(benchmark, profile, record_artifact):
    """Load the complete 24-table dataset and report per-table times."""
    report = benchmark.pedantic(_load_full_dataset, args=(profile,), rounds=1, iterations=1)
    LOAD_REPORTS[profile.name] = report

    rows = [
        [result.table, result.documents_inserted, f"{result.seconds:.4f}"]
        for result in report.results.values()
    ]
    rows.append(["TOTAL", report.total_documents, f"{report.total_seconds:.4f}"])
    record_artifact(
        f"table_4_3_load_times_{profile.name}",
        render_table(
            ["table", "documents", "load seconds"],
            rows,
            title=f"Table 4.3 — data load times, {profile.name} dataset",
        ),
    )
    assert report.total_documents > 0


@pytest.mark.benchmark(group="table-4.3")
def test_load_time_observations(benchmark, record_artifact, best_of_alternating):
    """Check the Section 4.3 load-time observations on the recorded reports."""
    for profile in (SCALE_SMALL, SCALE_LARGE):
        if profile.name not in LOAD_REPORTS:
            LOAD_REPORTS[profile.name] = _load_full_dataset(profile)

    small = LOAD_REPORTS[SCALE_SMALL.name]
    large = LOAD_REPORTS[SCALE_LARGE.name]

    def summarize():
        rows = []
        for table in sorted(small.results):
            small_result = small.results[table]
            large_result = large.results[table]
            row_ratio = (
                large_result.documents_inserted / small_result.documents_inserted
                if small_result.documents_inserted
                else 0.0
            )
            time_ratio = (
                large_result.seconds / small_result.seconds if small_result.seconds else 0.0
            )
            rows.append(
                [
                    table,
                    "non-scaling" if table in NON_SCALING_TABLES else "scaling",
                    f"{row_ratio:.2f}",
                    f"{time_ratio:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(summarize, rounds=1, iterations=1)
    record_artifact(
        "table_4_3_load_time_ratios",
        render_table(
            ["table", "kind", "row ratio (large/small)", "time ratio (large/small)"],
            rows,
            title="Table 4.3 — load-time ratios between scales (Section 4.3 observations)",
        ),
    )

    # Observation (i): identical row counts load in comparable time.  The
    # bound is generous because very small tables finish in microseconds.
    for table in NON_SCALING_TABLES:
        small_result = small.results[table]
        large_result = large.results[table]
        assert small_result.documents_inserted == large_result.documents_inserted

    # Observation (ii): the large dataset takes longer to load overall, and
    # its biggest fact table scales roughly with its row count.  The two
    # store_sales loads are timed on alternating rounds, as
    # ``paired_runtimes`` times query pairs: one load each, measured seconds
    # apart, differ by more than the tolerance whenever the host changes
    # speed in between.
    assert large.total_seconds > small.total_seconds
    sales_row_ratio = (
        large.results["store_sales"].documents_inserted
        / small.results["store_sales"].documents_inserted
    )
    small_seconds, large_seconds = best_of_alternating(
        [partial(_store_sales_load_seconds, profile) for profile in (SCALE_SMALL, SCALE_LARGE)]
    )
    sales_time_ratio = large_seconds / small_seconds
    assert sales_time_ratio == pytest.approx(sales_row_ratio, rel=0.8)
