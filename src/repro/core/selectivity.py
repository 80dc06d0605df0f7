"""Query selectivity (Table 4.4).

The paper reports, per query and dataset, the amount of data the query
returns (in MB).  The reproduction measures the same thing: the serialized
size of the result documents produced by the denormalized pipeline of each
query, which equals the contents of the ``query<N>_output`` collection the
thesis scripts write with ``$out``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..documentstore.bson import document_size
from ..tpcds.queries import QUERY_IDS
from .translate_denormalized import run_denormalized_query

__all__ = ["QuerySelectivity", "measure_selectivity", "selectivity_table"]


@dataclass(frozen=True)
class QuerySelectivity:
    """Result-set size of one query."""

    query_id: int
    result_documents: int
    result_bytes: int

    @property
    def megabytes(self) -> float:
        """Result size in MB (the unit Table 4.4 uses)."""
        return self.result_bytes / (1024.0 * 1024.0)


def measure_selectivity(
    database,
    query_id: int,
    parameters: Mapping[str, Any] | None = None,
) -> QuerySelectivity:
    """Measure the result size of *query_id* on a denormalized *database*."""
    results = run_denormalized_query(database, query_id, parameters)
    return QuerySelectivity(
        query_id=query_id,
        result_documents=len(results),
        result_bytes=sum(document_size(document) for document in results),
    )


def selectivity_table(
    database,
    query_ids: Iterable[int] = QUERY_IDS,
) -> dict[int, QuerySelectivity]:
    """Measure every query's selectivity (one Table 4.4 row per query)."""
    return {query_id: measure_selectivity(database, query_id) for query_id in query_ids}
