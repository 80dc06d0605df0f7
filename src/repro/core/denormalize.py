"""Denormalization: the document-embedding algorithms of Figures 4.6 and 4.7.

Before the denormalized-model experiments (Experiments 3 and 6) can run, each
fact collection is denormalized by replacing every foreign-key value with the
referenced dimension document:

* :func:`embed_documents` is the ``EmbedDocuments(F, D)`` algorithm of
  Figure 4.7 — build a hash map from dimension primary key to dimension
  document, then for every entry issue a multi-document ``update`` that
  replaces the foreign-key value with the embedded document (sent as bulk
  writes, as a driver would);
* :func:`create_denormalized_collection` is the driver of Figure 4.6 — copy a
  fact collection and embed each of its dimension collections in turn;
* :func:`denormalize_store_sales` / ``_store_returns`` / ``_inventory`` apply
  the per-fact-table embedding plans of the thesis (Section 4.1.3.1), with
  one documented addition: the matching ``store_returns`` document (joined on
  ticket number, item, and customer) is embedded into the denormalized
  ``store_sales`` document under ``ss_return`` so Query 50 can run against a
  single collection, exactly as the Appendix B query does.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..documentstore.bulk import UpdateMany
from .migration import DEFAULT_BATCH_SIZE
from .queryspec import DimensionJoin

__all__ = [
    "EmbeddingReport",
    "DenormalizationReport",
    "embed_documents",
    "create_denormalized_collection",
    "create_query_indexes",
    "DENORMALIZED_QUERY_INDEXES",
    "STORE_SALES_EMBEDDING_PLAN",
    "STORE_RETURNS_EMBEDDING_PLAN",
    "INVENTORY_EMBEDDING_PLAN",
    "denormalize_store_sales",
    "denormalize_store_returns",
    "denormalize_inventory",
    "denormalize_all_facts",
]


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of embedding one dimension collection into a fact collection."""

    fact_collection: str
    dimension_collection: str
    fact_field: str
    dimension_documents: int
    fact_documents_updated: int
    seconds: float


@dataclass
class DenormalizationReport:
    """Outcome of denormalizing one fact collection."""

    fact_collection: str
    target_collection: str
    documents: int = 0
    embeddings: list[EmbeddingReport] = field(default_factory=list)
    seconds: float = 0.0


def _bulk_update(collection, updates: Iterable[UpdateMany]) -> int:
    """Send *updates* as unordered bulk writes; returns the documents modified.

    At most :data:`DEFAULT_BATCH_SIZE` operations are built and sent per call
    — the batch size the loaders use — which bounds the size of one request.
    """
    updates = iter(updates)
    modified = 0
    while batch := list(itertools.islice(updates, DEFAULT_BATCH_SIZE)):
        modified += collection.bulk_write(batch, ordered=False).modified_count
    return modified


def embed_documents(
    fact_collection,
    dimension_collection,
    *,
    fact_field: str,
    dimension_primary_key: str,
    dimension_filter: Mapping[str, Any] | None = None,
) -> EmbeddingReport:
    """Embed *dimension_collection* documents into *fact_collection*.

    This is ``EmbedDocuments(F, D)`` from Figure 4.7:

    1. read every dimension document through a cursor (optionally restricted
       by *dimension_filter*, used by the normalized algorithm when the
       dimension was already filtered by its ``where`` clause);
    2. drop the ``_id`` field from the copy that will be embedded;
    3. build a hash map ``primary key -> document``;
    4. for every entry, run
       ``update(F, {fact_field: key}, {$set: {fact_field: document}},
       upsert=False, multi=True)``.

    The updates of step 4 are sent as unordered bulk writes.  The collections
    may be stand-alone or routed (sharded); in the sharded case the router
    ships one message per batch to each shard the updates target — the
    round trips a real driver's bulk API would make.
    """
    started = time.perf_counter()
    documents_by_key: dict[Any, dict[str, Any]] = {}
    # The unified read protocol projects _id out shard- or engine-side, so
    # the embedded copies never carry (or ship) the primary-key field.
    for document in dimension_collection.find(dimension_filter or {}, {"_id": 0}):
        key = document.get(dimension_primary_key)
        if key is not None:
            documents_by_key[key] = document

    updated = _bulk_update(
        fact_collection,
        (
            UpdateMany({fact_field: key}, {"$set": {fact_field: document}})
            for key, document in documents_by_key.items()
        ),
    )
    elapsed = time.perf_counter() - started
    return EmbeddingReport(
        fact_collection=fact_collection.name,
        dimension_collection=dimension_collection.name,
        fact_field=fact_field,
        dimension_documents=len(documents_by_key),
        fact_documents_updated=updated,
        seconds=elapsed,
    )


def _copy_collection(database, source_name: str, target_name: str, *, batch_size: int = 500) -> int:
    """Copy every document of ``database[source_name]`` into a new collection."""
    source = database[source_name]
    target = database[target_name]
    target.drop()
    count = 0
    batch: list[dict[str, Any]] = []
    for document in source.find({}, {"_id": 0}):
        batch.append(document)
        if len(batch) >= batch_size:
            target.insert_many(batch)
            count += len(batch)
            batch = []
    if batch:
        target.insert_many(batch)
        count += len(batch)
    return count


def create_denormalized_collection(
    database,
    fact_name: str,
    dimensions: Sequence[DimensionJoin],
    *,
    target_name: str | None = None,
    create_indexes: bool = True,
) -> DenormalizationReport:
    """Create a denormalized copy of a fact collection (Figure 4.6).

    ``dimensions`` lists the dimension collections to embed, in order.  Joins
    that descend into an already embedded document use a dotted
    ``fact_field`` (for example ``ss_customer_sk.c_current_addr_sk``), which
    is how the nested customer-address embedding of Query 46 is expressed.
    """
    started = time.perf_counter()
    if target_name is None:
        target_name = f"{fact_name}_denormalized"
    report = DenormalizationReport(fact_collection=fact_name, target_collection=target_name)
    report.documents = _copy_collection(database, fact_name, target_name)
    target = database[target_name]
    for dimension in dimensions:
        # A temporary index on the foreign-key field gives the per-key update
        # of EmbedDocuments its O(log m) lookup (Section 4.1.3.1.1); once the
        # field holds embedded documents the index is no longer useful and is
        # dropped so later embedding passes do not have to maintain it.
        index_name = ""
        if create_indexes:
            index_name = target.create_index(dimension.fact_field)
        report.embeddings.append(
            embed_documents(
                target,
                database[dimension.collection],
                fact_field=dimension.fact_field,
                dimension_primary_key=dimension.primary_key,
            )
        )
        if create_indexes and index_name:
            target.drop_index(index_name)
    report.seconds = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# Per-fact-table embedding plans (Section 4.1.3.1)
# ---------------------------------------------------------------------------

STORE_SALES_EMBEDDING_PLAN: tuple[DimensionJoin, ...] = (
    DimensionJoin("date_dim", "d_date_sk", "ss_sold_date_sk"),
    DimensionJoin("item", "i_item_sk", "ss_item_sk"),
    DimensionJoin("customer_demographics", "cd_demo_sk", "ss_cdemo_sk"),
    DimensionJoin("household_demographics", "hd_demo_sk", "ss_hdemo_sk"),
    DimensionJoin("customer_address", "ca_address_sk", "ss_addr_sk"),
    DimensionJoin("store", "s_store_sk", "ss_store_sk"),
    DimensionJoin("promotion", "p_promo_sk", "ss_promo_sk"),
    DimensionJoin("customer", "c_customer_sk", "ss_customer_sk"),
    # Nested embedding: the customer's current address inside the already
    # embedded customer document (Query 46 compares it to the bought city).
    DimensionJoin("customer_address", "ca_address_sk", "ss_customer_sk.c_current_addr_sk"),
)

STORE_RETURNS_EMBEDDING_PLAN: tuple[DimensionJoin, ...] = (
    DimensionJoin("date_dim", "d_date_sk", "sr_returned_date_sk"),
    DimensionJoin("item", "i_item_sk", "sr_item_sk"),
    DimensionJoin("store", "s_store_sk", "sr_store_sk"),
    DimensionJoin("reason", "r_reason_sk", "sr_reason_sk"),
    DimensionJoin("customer", "c_customer_sk", "sr_customer_sk"),
)

INVENTORY_EMBEDDING_PLAN: tuple[DimensionJoin, ...] = (
    DimensionJoin("date_dim", "d_date_sk", "inv_date_sk"),
    DimensionJoin("item", "i_item_sk", "inv_item_sk"),
    DimensionJoin("warehouse", "w_warehouse_sk", "inv_warehouse_sk"),
)

#: Secondary indexes created on each denormalized collection so the leading
#: ``$match`` of the Appendix B pipelines can be served from an index, as on
#: the original system (the thesis sizes the cluster so that "all the
#: collections and indexes related to the query reside in the RAM").
DENORMALIZED_QUERY_INDEXES: dict[str, tuple[Any, ...]] = {
    "store_sales_denormalized": (
        "ss_sold_date_sk.d_year",        # Query 7
        "ss_store_sk.s_city",            # Query 46
        "ss_return.sr_returned_date.d_year",  # Query 50
        "ss_cdemo_sk.cd_education_status",
    ),
    "store_returns_denormalized": (
        "sr_returned_date_sk.d_year",
    ),
    "inventory_denormalized": (
        "inv_item_sk.i_current_price",   # Query 21 price band
        "inv_date_sk.d_date",
    ),
}


def create_query_indexes(database, target_name: str) -> list[str]:
    """Create the per-query secondary indexes for one denormalized collection."""
    created = []
    for keys in DENORMALIZED_QUERY_INDEXES.get(target_name, ()):
        created.append(database[target_name].create_index(keys))
    return created


def _embed_matching_returns(
    database,
    denormalized_sales_name: str,
    *,
    returns_collection_name: str = "store_returns",
) -> EmbeddingReport:
    """Embed the matching ``store_returns`` document into denormalized sales.

    The join keys are ticket number, item, and customer (the Query 50 join
    condition).  The embedded return document keeps its original numeric
    foreign keys and additionally gets its return date replaced by the date
    dimension document, so the aging buckets and the year/month filter of
    Query 50 can both be answered from the sales document alone.
    """
    started = time.perf_counter()
    sales = database[denormalized_sales_name]
    sales.create_index("ss_ticket_number")
    returns = database[returns_collection_name]
    dates = {
        row["d_date_sk"]: row for row in database["date_dim"].find({}, {"_id": 0})
    }

    return_documents = returns.find({}, {"_id": 0}).to_list()

    def updates() -> Iterator[UpdateMany]:
        for return_document in return_documents:
            returned_date_sk = return_document.get("sr_returned_date_sk")
            if returned_date_sk in dates:
                return_document["sr_returned_date"] = dates[returned_date_sk]
            yield UpdateMany(
                {
                    "ss_ticket_number": return_document.get("sr_ticket_number"),
                    "ss_item_sk.i_item_sk": return_document.get("sr_item_sk"),
                },
                {"$set": {"ss_return": return_document}},
            )

    embedded = _bulk_update(sales, updates())
    return EmbeddingReport(
        fact_collection=denormalized_sales_name,
        dimension_collection=returns_collection_name,
        fact_field="ss_return",
        dimension_documents=len(return_documents),
        fact_documents_updated=embedded,
        seconds=time.perf_counter() - started,
    )


def denormalize_store_sales(
    database,
    *,
    target_name: str = "store_sales_denormalized",
    embed_returns: bool = True,
) -> DenormalizationReport:
    """Denormalize ``store_sales`` (the fact collection of Q7, Q46, and Q50)."""
    report = create_denormalized_collection(
        database, "store_sales", STORE_SALES_EMBEDDING_PLAN, target_name=target_name
    )
    if embed_returns:
        started = time.perf_counter()
        report.embeddings.append(_embed_matching_returns(database, target_name))
        report.seconds += time.perf_counter() - started
    create_query_indexes(database, target_name)
    return report


def denormalize_store_returns(
    database,
    *,
    target_name: str = "store_returns_denormalized",
) -> DenormalizationReport:
    """Denormalize ``store_returns``."""
    report = create_denormalized_collection(
        database, "store_returns", STORE_RETURNS_EMBEDDING_PLAN, target_name=target_name
    )
    create_query_indexes(database, target_name)
    return report


def denormalize_inventory(
    database,
    *,
    target_name: str = "inventory_denormalized",
) -> DenormalizationReport:
    """Denormalize ``inventory`` (the fact collection of Q21)."""
    report = create_denormalized_collection(
        database, "inventory", INVENTORY_EMBEDDING_PLAN, target_name=target_name
    )
    create_query_indexes(database, target_name)
    return report


def denormalize_all_facts(database) -> dict[str, DenormalizationReport]:
    """Denormalize the three fact collections used by the evaluation queries."""
    return {
        "store_sales": denormalize_store_sales(database),
        "store_returns": denormalize_store_returns(database),
        "inventory": denormalize_inventory(database),
    }
