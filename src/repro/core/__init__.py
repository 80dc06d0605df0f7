"""The paper's contribution: migration, denormalization, query translation,
and the six experimental setups.

Typical usage::

    from repro.core import ExperimentHarness

    harness = ExperimentHarness()
    result = harness.run_experiment(3)          # denormalized / stand-alone
    for query_id, run in result.query_runs.items():
        print(query_id, run.simulated_seconds)
"""

from .denormalize import (
    DenormalizationReport,
    EmbeddingReport,
    INVENTORY_EMBEDDING_PLAN,
    STORE_RETURNS_EMBEDDING_PLAN,
    STORE_SALES_EMBEDDING_PLAN,
    create_denormalized_collection,
    denormalize_all_facts,
    denormalize_inventory,
    denormalize_store_returns,
    denormalize_store_sales,
    embed_documents,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentHarness,
    ExperimentResult,
    QueryRunResult,
    SHARD_KEYS,
    tiny_profile,
)
from .migration import (
    DatasetLoadReport,
    MigrationResult,
    migrate_generated_dataset,
    migrate_rows,
    row_to_document,
)
from .queryspec import (
    DimensionJoin,
    FactJoin,
    QUERY_SPECS,
    QuerySpec,
    date_sk_for,
    query_spec,
)
from .results import (
    format_seconds,
    paper_reference_table_44,
    paper_reference_table_45,
    render_bar_chart,
    render_table,
)
from .selectivity import QuerySelectivity, measure_selectivity, selectivity_table
from .translate_denormalized import (
    DENORMALIZED_COLLECTIONS,
    denormalized_pipeline,
    run_denormalized_query,
)
from .translate_normalized import (
    NormalizedExecutionReport,
    normalized_final_pipeline,
    run_normalized_query,
)

__all__ = [
    "DENORMALIZED_COLLECTIONS",
    "DatasetLoadReport",
    "DenormalizationReport",
    "DimensionJoin",
    "EXPERIMENTS",
    "EmbeddingReport",
    "ExperimentConfig",
    "ExperimentHarness",
    "ExperimentResult",
    "FactJoin",
    "INVENTORY_EMBEDDING_PLAN",
    "MigrationResult",
    "NormalizedExecutionReport",
    "QUERY_SPECS",
    "QueryRunResult",
    "QuerySelectivity",
    "QuerySpec",
    "SHARD_KEYS",
    "STORE_RETURNS_EMBEDDING_PLAN",
    "STORE_SALES_EMBEDDING_PLAN",
    "create_denormalized_collection",
    "date_sk_for",
    "denormalize_all_facts",
    "denormalize_inventory",
    "denormalize_store_returns",
    "denormalize_store_sales",
    "denormalized_pipeline",
    "embed_documents",
    "format_seconds",
    "measure_selectivity",
    "migrate_generated_dataset",
    "migrate_rows",
    "normalized_final_pipeline",
    "paper_reference_table_44",
    "paper_reference_table_45",
    "query_spec",
    "render_bar_chart",
    "render_table",
    "row_to_document",
    "run_denormalized_query",
    "run_normalized_query",
    "selectivity_table",
    "tiny_profile",
]
