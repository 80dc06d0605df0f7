"""TPC-DS substrate: schema, scaling, data generation, queries.

This package replaces the official ``dsdgen``/``dsqgen`` tools with a
deterministic, laptop-scale synthetic generator that preserves the schema,
foreign-key structure, per-table scaling behaviour (Table 3.6), and the
predicate selectivity structure of the four evaluation queries.
"""

from .generator import GeneratedDataset, TPCDSGenerator
from .queries import (
    QUERY_DEFINITIONS,
    QUERY_FEATURES,
    QUERY_IDS,
    QueryDefinition,
    query_definition,
    query_parameters,
)
from .scaling import (
    DATE_RANGE_END,
    DATE_RANGE_START,
    NON_SCALING_TABLES,
    PAPER_ROW_COUNTS,
    SCALE_LARGE,
    SCALE_SMALL,
    ScaleProfile,
    generation_row_counts,
    paper_row_counts,
)
from .schema import (
    DIMENSION_TABLES,
    FACT_TABLES,
    QUERY_TABLES,
    TPCDS_TABLES,
    Column,
    ColumnType,
    ForeignKey,
    TableSchema,
    table_schema,
)

__all__ = [
    "Column",
    "ColumnType",
    "DATE_RANGE_END",
    "DATE_RANGE_START",
    "DIMENSION_TABLES",
    "FACT_TABLES",
    "ForeignKey",
    "GeneratedDataset",
    "NON_SCALING_TABLES",
    "PAPER_ROW_COUNTS",
    "QUERY_DEFINITIONS",
    "QUERY_FEATURES",
    "QUERY_IDS",
    "QUERY_TABLES",
    "QueryDefinition",
    "SCALE_LARGE",
    "SCALE_SMALL",
    "ScaleProfile",
    "TPCDSGenerator",
    "TPCDS_TABLES",
    "TableSchema",
    "generation_row_counts",
    "paper_row_counts",
    "query_definition",
    "query_parameters",
    "table_schema",
]
