"""Query translation for the normalized data model (Section 4.1.3.2).

The store does not execute joins, so an analytical query against normalized
collections is simulated client-side by the algorithm of Figure 4.8:

1. query every dimension collection that carries a ``where`` clause and
   collect the primary keys of the matching documents;
2. *semi-join*: fetch the fact documents whose foreign keys appear in those
   key lists (one ``$in`` per filtered dimension) and store them in an
   intermediate collection;
3. embed the dimension collections whose attributes are needed by the
   aggregation into the intermediate collection (``EmbedDocuments``);
4. run the aggregation (group / order / project) over the embedded
   intermediate collection and store the result in an output collection.

Query 50 joins two fact collections; its plan first restricts
``store_returns`` through the return-date dimension, then semi-joins
``store_sales`` on the ticket numbers of the surviving returns, merges the
matching sale/return pairs client-side, and continues with the same
embed-and-aggregate steps.

The same code path serves the stand-alone and the sharded deployments: the
collections passed in are either plain or routed, and in the sharded case
every step above turns into router round trips (inserts and the embedding
updates as bulk messages, one per batch and shard) — which is exactly the
overhead the paper measures for Experiments 1 and 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..documentstore.collection import bulk_load_or_noop
from ..tpcds.queries import query_parameters
from .denormalize import embed_documents
from .queryspec import DimensionJoin, QuerySpec, query_spec
from .translate_denormalized import denormalized_pipeline

__all__ = [
    "NormalizedExecutionReport",
    "normalized_final_pipeline",
    "run_normalized_query",
    "EXTRA_INTERMEDIATE_EMBEDDINGS",
]

#: Additional (nested) embeddings required by specific queries after the
#: spec-level dimensions have been embedded into the intermediate collection.
#: Query 46 needs the customer's *current* address inside the embedded
#: customer document in order to compare it with the purchase address.
EXTRA_INTERMEDIATE_EMBEDDINGS: dict[int, tuple[DimensionJoin, ...]] = {
    46: (
        DimensionJoin(
            collection="customer_address",
            primary_key="ca_address_sk",
            fact_field="ss_customer_sk.c_current_addr_sk",
        ),
    ),
}


@dataclass
class NormalizedExecutionReport:
    """Timing and cardinality breakdown of one normalized-model execution."""

    query_id: int
    dimension_keys: dict[str, int] = field(default_factory=dict)
    semi_join_documents: int = 0
    embedded_dimensions: list[str] = field(default_factory=list)
    result_documents: int = 0
    seconds: float = 0.0
    results: list[dict[str, Any]] = field(default_factory=list)


def normalized_final_pipeline(
    query_id: int, parameters: Mapping[str, Any] | None = None
) -> list[dict[str, Any]]:
    """Aggregation pipeline run over the embedded intermediate collection.

    For queries 7, 21, and 46 this is the Appendix B pipeline without its
    leading ``$match`` stage — the semi-join already applied those dimension
    predicates.  Query 50 gets a dedicated pipeline because the intermediate
    documents are merged sale/return pairs that keep their numeric date keys.
    """
    if query_id == 50:
        return _query50_intermediate_pipeline()
    pipeline = denormalized_pipeline(query_id, parameters)
    return pipeline[1:]


def _query50_intermediate_pipeline() -> list[dict[str, Any]]:
    lag = {"$subtract": ["$sr_returned_date_sk", "$ss_sold_date_sk"]}
    buckets = (
        ("30 days", None, 30),
        ("31-60 days", 30, 60),
        ("61-90 days", 60, 90),
        ("91-120 days", 90, 120),
        (">120 days", 120, None),
    )
    group_stage: dict[str, Any] = {
        "_id": {
            "store": "$ss_store_sk.s_store_name",
            "company": "$ss_store_sk.s_company_id",
            "str_num": "$ss_store_sk.s_street_number",
            "str_name": "$ss_store_sk.s_street_name",
            "str_type": "$ss_store_sk.s_street_type",
            "suite_num": "$ss_store_sk.s_suite_number",
            "city": "$ss_store_sk.s_city",
            "county": "$ss_store_sk.s_county",
            "state": "$ss_store_sk.s_state",
            "zip": "$ss_store_sk.s_zip",
        }
    }
    for label, lower, upper in buckets:
        conditions = []
        if lower is not None:
            conditions.append({"$gt": [lag, lower]})
        if upper is not None:
            conditions.append({"$lte": [lag, upper]})
        condition = conditions[0] if len(conditions) == 1 else {"$and": conditions}
        group_stage[label] = {"$sum": {"$cond": [condition, 1, 0]}}
    return [
        {"$group": group_stage},
        {
            "$project": {
                "_id": 0,
                "s_store_name": "$_id.store",
                "s_company_id": "$_id.company",
                "s_street_number": "$_id.str_num",
                "s_street_name": "$_id.str_name",
                "s_street_type": "$_id.str_type",
                "s_suite_number": "$_id.suite_num",
                "s_city": "$_id.city",
                "s_county": "$_id.county",
                "s_state": "$_id.state",
                "s_zip": "$_id.zip",
                "30 days": 1,
                "31-60 days": 1,
                "61-90 days": 1,
                "91-120 days": 1,
                ">120 days": 1,
            }
        },
        {"$sort": {"s_store_name": 1, "s_company_id": 1, "s_street_number": 1}},
    ]


def _filter_dimension_keys(database, dimension: DimensionJoin) -> list[Any]:
    """Step 4-5 of Figure 4.8: filter a dimension and collect primary keys."""
    keys: list[Any] = []
    cursor = database[dimension.collection].find(
        dimension.filter, {dimension.primary_key: 1, "_id": 0}
    )
    for document in cursor:
        value = document.get(dimension.primary_key)
        if value is not None:
            keys.append(value)
    return keys


def _copy_into_intermediate(
    database,
    documents: list[dict[str, Any]],
    intermediate_name: str,
    *,
    batch_size: int = 500,
) -> int:
    """Store the semi-joined fact documents in the intermediate collection.

    Rides the bulk write path: inserts are batched and, on stand-alone
    collections, secondary-index maintenance is deferred for the whole copy.
    """
    intermediate = database[intermediate_name]
    intermediate.drop()
    count = 0
    with bulk_load_or_noop(intermediate):
        for start in range(0, len(documents), batch_size):
            batch = []
            for document in documents[start:start + batch_size]:
                document = dict(document)
                document.pop("_id", None)
                batch.append(document)
            if batch:
                intermediate.insert_many(batch)
                count += len(batch)
    return count


def _embed_into_intermediate(
    database,
    spec: QuerySpec,
    intermediate_name: str,
    report: NormalizedExecutionReport,
) -> None:
    """Steps 8-10 of Figure 4.8 plus the query-specific nested embeddings."""
    intermediate = database[intermediate_name]
    embeddings = list(spec.embedded_dimensions())
    embeddings.extend(EXTRA_INTERMEDIATE_EMBEDDINGS.get(spec.query_id, ()))
    for dimension in embeddings:
        intermediate.create_index(dimension.fact_field)
        embed_documents(
            intermediate,
            database[dimension.collection],
            fact_field=dimension.fact_field,
            dimension_primary_key=dimension.primary_key,
        )
        report.embedded_dimensions.append(dimension.collection)


def _run_simple_normalized_query(
    database,
    spec: QuerySpec,
    parameters: Mapping[str, Any] | None,
    report: NormalizedExecutionReport,
    *,
    keep_intermediate: bool,
    write_output: bool,
) -> None:
    """The single-fact plan shared by queries 7, 21, and 46."""
    intermediate_name = f"query{spec.query_id}_intermediate"

    semi_join_filter: dict[str, Any] = {}
    for dimension in spec.filtered_dimensions():
        keys = _filter_dimension_keys(database, dimension)
        report.dimension_keys[dimension.collection] = len(keys)
        semi_join_filter[dimension.fact_field] = {"$in": keys}

    fact = database[spec.fact_collection]
    semi_joined = fact.find(semi_join_filter, {"_id": 0}).to_list()
    report.semi_join_documents = _copy_into_intermediate(database, semi_joined, intermediate_name)

    _embed_into_intermediate(database, spec, intermediate_name, report)

    pipeline = normalized_final_pipeline(spec.query_id, parameters)
    if write_output:
        pipeline = pipeline + [{"$out": spec.output_collection}]
    results = database[intermediate_name].aggregate(pipeline)
    if write_output:
        results = database[spec.output_collection].find({}).to_list()
    report.results = results
    report.result_documents = len(results)

    if not keep_intermediate:
        database[intermediate_name].drop()


def _run_fact_join_query(
    database,
    spec: QuerySpec,
    parameters: Mapping[str, Any] | None,
    report: NormalizedExecutionReport,
    *,
    keep_intermediate: bool,
    write_output: bool,
) -> None:
    """The two-fact plan of Query 50 (store_sales ⋈ store_returns)."""
    assert spec.fact_join is not None
    intermediate_name = f"query{spec.query_id}_intermediate"

    # Filter the dimensions of the secondary fact (the return-date window).
    secondary_filter: dict[str, Any] = {}
    for dimension in spec.fact_join.dimensions:
        keys = _filter_dimension_keys(database, dimension)
        report.dimension_keys[dimension.collection] = len(keys)
        secondary_filter[dimension.fact_field] = {"$in": keys}

    returns = database[spec.fact_join.collection].find(
        secondary_filter, {"_id": 0}
    ).to_list()

    # Semi-join the primary fact on the first join field (ticket number); the
    # remaining join fields are checked during the client-side merge below.
    primary_field, secondary_field = spec.fact_join.join_fields[0]
    ticket_numbers = sorted({doc.get(secondary_field) for doc in returns if secondary_field in doc})
    sales = database[spec.fact_collection].find(
        {primary_field: {"$in": ticket_numbers}}, {"_id": 0}
    ).to_list()

    sales_by_key: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
    for sale in sales:
        key = tuple(sale.get(field_pair[0]) for field_pair in spec.fact_join.join_fields)
        sales_by_key.setdefault(key, []).append(sale)

    merged: list[dict[str, Any]] = []
    for return_document in returns:
        key = tuple(
            return_document.get(field_pair[1]) for field_pair in spec.fact_join.join_fields
        )
        for sale in sales_by_key.get(key, []):
            combined = dict(sale)
            combined.pop("_id", None)
            for field_name, value in return_document.items():
                if field_name != "_id":
                    combined[field_name] = value
            merged.append(combined)

    report.semi_join_documents = _copy_into_intermediate(database, merged, intermediate_name)
    _embed_into_intermediate(database, spec, intermediate_name, report)

    pipeline = normalized_final_pipeline(spec.query_id, parameters)
    if write_output:
        pipeline = pipeline + [{"$out": spec.output_collection}]
    results = database[intermediate_name].aggregate(pipeline)
    if write_output:
        results = database[spec.output_collection].find({}).to_list()
    report.results = results
    report.result_documents = len(results)

    if not keep_intermediate:
        database[intermediate_name].drop()


def run_normalized_query(
    database,
    query_id: int,
    parameters: Mapping[str, Any] | None = None,
    *,
    keep_intermediate: bool = False,
    write_output: bool = False,
) -> NormalizedExecutionReport:
    """Run *query_id* against the normalized collections in *database*.

    *database* may be a stand-alone :class:`~repro.documentstore.Database`
    (Experiments 2 and 5) or a routed database backed by a sharded cluster
    (Experiments 1 and 4).
    """
    params = query_parameters(query_id)
    if parameters:
        params.update(parameters)
    spec = query_spec(query_id, params)
    report = NormalizedExecutionReport(query_id=query_id)
    started = time.perf_counter()
    if spec.fact_join is not None:
        _run_fact_join_query(
            database,
            spec,
            params,
            report,
            keep_intermediate=keep_intermediate,
            write_output=write_output,
        )
    else:
        _run_simple_normalized_query(
            database,
            spec,
            params,
            report,
            keep_intermediate=keep_intermediate,
            write_output=write_output,
        )
    report.seconds = time.perf_counter() - started
    return report
