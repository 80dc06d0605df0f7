"""Data-migration algorithm (thesis Figure 4.3).

The algorithm reads a ``dsdgen`` ``.dat`` file line by line, maps column
positions to column names with a hash map, builds one document per line
(omitting null columns), and inserts the documents into a collection named
after the table.  Loading every table of a scale produces the ``Dataset_1GB``
/ ``Dataset_5GB`` databases whose load times the paper reports in Table 4.3.

The reproduction runs the document construction and the inserts
(:func:`row_to_document`, :func:`migrate_rows`) over the generator's typed
rows; :func:`migrate_generated_dataset` loads every table of a scale that
way.  The ``.dat`` parse step is not reproduced (README's paper mapping
gives the measured reason).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..documentstore.collection import bulk_load_or_noop
from ..tpcds.generator import TPCDSGenerator
from ..tpcds.schema import TPCDS_TABLES

__all__ = [
    "MigrationResult",
    "DatasetLoadReport",
    "row_to_document",
    "migrate_rows",
    "migrate_generated_dataset",
]

#: Batch size used for inserts.  The thesis inserts one document per line;
#: batching does not change what is stored, only how many driver round trips
#: the load makes, and the batch size is part of the reported configuration.
DEFAULT_BATCH_SIZE = 500


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of loading one table."""

    table: str
    documents_inserted: int
    seconds: float


@dataclass
class DatasetLoadReport:
    """Outcome of loading a complete dataset (all 24 tables)."""

    database_name: str
    results: dict[str, MigrationResult] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total load time across tables (the last row of Table 4.3)."""
        return sum(result.seconds for result in self.results.values())

    @property
    def total_documents(self) -> int:
        """Total number of documents inserted."""
        return sum(result.documents_inserted for result in self.results.values())


def row_to_document(row: Mapping[str, Any]) -> dict[str, Any]:
    """Build the document stored for one table row.

    Following Section 4.1.2, the column names become document keys and null
    column values are omitted entirely (no key/value pair is stored).
    """
    return {key: value for key, value in row.items() if value is not None}


def migrate_rows(
    collection,
    rows: Iterable[Mapping[str, Any]],
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> MigrationResult:
    """Insert *rows* into *collection* and time the load.

    *collection* may be a stand-alone or a routed (sharded) collection; both
    expose ``insert_many``.
    """
    started = time.perf_counter()
    inserted = 0
    # Stand-alone collections defer secondary-index maintenance for the whole
    # load (one rebuild per index on exit); routed collections simply take
    # batched inserts through the router's single-pass batch routing.
    with bulk_load_or_noop(collection):
        batch: list[dict[str, Any]] = []
        for row in rows:
            batch.append(row_to_document(row))
            if len(batch) >= batch_size:
                collection.insert_many(batch)
                inserted += len(batch)
                batch = []
        if batch:
            collection.insert_many(batch)
            inserted += len(batch)
    elapsed = time.perf_counter() - started
    return MigrationResult(table=collection.name, documents_inserted=inserted, seconds=elapsed)


def migrate_generated_dataset(
    database,
    generator: TPCDSGenerator,
    *,
    tables: Iterable[str] | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> DatasetLoadReport:
    """Load a generated dataset into *database* (one collection per table)."""
    report = DatasetLoadReport(database_name=getattr(database, "name", "dataset"))
    table_names = sorted(tables) if tables is not None else sorted(TPCDS_TABLES)
    for table_name in table_names:
        collection = database[table_name]
        rows = generator.generate_table(table_name)
        result = migrate_rows(collection, rows, batch_size=batch_size)
        report.results[table_name] = MigrationResult(
            table=table_name,
            documents_inserted=result.documents_inserted,
            seconds=result.seconds,
        )
    return report

