"""Query translation for the denormalized data model (Section 4.1.3.1).

After the fact collections are denormalized (:mod:`repro.core.denormalize`),
every join of the original SQL queries is already materialized as an embedded
document, so each query becomes a single aggregation pipeline — the
JavaScript pipelines of Appendix B.  This module builds those pipelines
programmatically (parameterized by the predicate values that ``dsqgen``
varies per scale) and runs them.

Field-naming conventions of the denormalized documents:

* a foreign-key field holds the embedded dimension document
  (``ss_sold_date_sk`` is the embedded ``date_dim`` document, whose own
  ``d_date_sk`` key still carries the original numeric value);
* the matching ``store_returns`` document is embedded in ``ss_return``; its
  ``sr_returned_date`` field holds the embedded return-date document while
  ``sr_returned_date_sk`` keeps the numeric key (used for day arithmetic).
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Mapping

from ..tpcds.queries import query_parameters

__all__ = [
    "DENORMALIZED_COLLECTIONS",
    "denormalized_pipeline",
    "query7_pipeline",
    "query21_pipeline",
    "query46_pipeline",
    "query50_pipeline",
    "query50_stages",
    "run_denormalized_query",
]

#: Which denormalized collection each query reads.
DENORMALIZED_COLLECTIONS: dict[int, str] = {
    7: "store_sales_denormalized",
    21: "inventory_denormalized",
    46: "store_sales_denormalized",
    50: "store_sales_denormalized",
}


def query7_pipeline(params: Mapping[str, Any], *, out: str | None = None) -> list[dict[str, Any]]:
    """Appendix B, Query 7: per-item averages for one demographic bucket."""
    pipeline: list[dict[str, Any]] = [
        {
            "$match": {
                "$and": [
                    {"ss_cdemo_sk.cd_gender": params["gender"]},
                    {"ss_cdemo_sk.cd_marital_status": params["marital_status"]},
                    {"ss_cdemo_sk.cd_education_status": params["education_status"]},
                    {
                        "$or": [
                            {"ss_promo_sk.p_channel_email": "N"},
                            {"ss_promo_sk.p_channel_event": "N"},
                        ]
                    },
                    {"ss_sold_date_sk.d_year": params["year"]},
                    {"ss_item_sk.i_item_sk": {"$exists": True}},
                ]
            }
        },
        {
            "$group": {
                "_id": "$ss_item_sk.i_item_id",
                "agg1": {"$avg": "$ss_quantity"},
                "agg2": {"$avg": "$ss_list_price"},
                "agg3": {"$avg": "$ss_coupon_amt"},
                "agg4": {"$avg": "$ss_sales_price"},
            }
        },
        {"$sort": {"_id": 1}},
        {
            "$project": {
                "_id": 0,
                "i_item_id": "$_id",
                "agg1": 1,
                "agg2": 1,
                "agg3": 1,
                "agg4": 1,
            }
        },
    ]
    if out:
        pipeline.append({"$out": out})
    return pipeline


def query21_pipeline(params: Mapping[str, Any], *, out: str | None = None) -> list[dict[str, Any]]:
    """Appendix B, Query 21: inventory before/after a date per warehouse/item."""
    sales_date = params["sales_date"]
    window_start = (_dt.date.fromisoformat(sales_date) - _dt.timedelta(days=30)).isoformat()
    window_end = (_dt.date.fromisoformat(sales_date) + _dt.timedelta(days=30)).isoformat()
    pipeline: list[dict[str, Any]] = [
        {
            "$match": {
                "$and": [
                    {
                        "inv_item_sk.i_current_price": {
                            "$gte": params["price_min"],
                            "$lte": params["price_max"],
                        }
                    },
                    {"inv_warehouse_sk.w_warehouse_sk": {"$exists": True}},
                    {"inv_date_sk.d_date": {"$gte": window_start, "$lte": window_end}},
                ]
            }
        },
        {
            "$group": {
                "_id": {
                    "w_name": "$inv_warehouse_sk.w_warehouse_name",
                    "i_id": "$inv_item_sk.i_item_id",
                },
                "inv_before": {
                    "$sum": {
                        "$cond": [
                            {"$lt": ["$inv_date_sk.d_date", sales_date]},
                            "$inv_quantity_on_hand",
                            0,
                        ]
                    }
                },
                "inv_after": {
                    "$sum": {
                        "$cond": [
                            {"$gte": ["$inv_date_sk.d_date", sales_date]},
                            "$inv_quantity_on_hand",
                            0,
                        ]
                    }
                },
            }
        },
        {
            "$project": {
                "_id": 1,
                "inv_before": 1,
                "inv_after": 1,
                "temp": {
                    "$cond": [
                        {"$gt": ["$inv_before", 0]},
                        {"$divide": ["$inv_after", "$inv_before"]},
                        None,
                    ]
                },
            }
        },
        {"$match": {"temp": {"$gte": 2.0 / 3.0, "$lte": 3.0 / 2.0}}},
        {
            "$project": {
                "_id": 0,
                "w_warehouse_name": "$_id.w_name",
                "i_item_id": "$_id.i_id",
                "inv_before": 1,
                "inv_after": 1,
            }
        },
        {"$sort": {"w_warehouse_name": 1, "i_item_id": 1}},
    ]
    if out:
        pipeline.append({"$out": out})
    return pipeline


def query46_pipeline(params: Mapping[str, Any], *, out: str | None = None) -> list[dict[str, Any]]:
    """Appendix B, Query 46: weekend purchases away from the home city."""
    cities = sorted({city.strip().strip("'") for city in str(params["cities"]).split(",")})
    years = [params["year"], params["year"] + 1, params["year"] + 2]
    pipeline: list[dict[str, Any]] = [
        {
            "$match": {
                "$and": [
                    {"ss_store_sk.s_city": {"$in": cities}},
                    {"ss_sold_date_sk.d_dow": {"$in": [6, 0]}},
                    {"ss_sold_date_sk.d_year": {"$in": years}},
                    {
                        "$or": [
                            {"ss_hdemo_sk.hd_dep_count": params["dep_count"]},
                            {"ss_hdemo_sk.hd_vehicle_count": params["vehicle_count"]},
                        ]
                    },
                    {"ss_addr_sk.ca_address_sk": {"$exists": True}},
                    {"ss_customer_sk.c_customer_sk": {"$exists": True}},
                ]
            }
        },
        {
            "$project": {
                "value": {
                    "$ne": [
                        "$ss_customer_sk.c_current_addr_sk.ca_city",
                        "$ss_addr_sk.ca_city",
                    ]
                },
                "c_last_name": "$ss_customer_sk.c_last_name",
                "c_first_name": "$ss_customer_sk.c_first_name",
                "bought_city": "$ss_addr_sk.ca_city",
                "ca_city": "$ss_customer_sk.c_current_addr_sk.ca_city",
                "ss_ticket_number": "$ss_ticket_number",
                "ss_customer_sk": "$ss_customer_sk.c_customer_sk",
                "ss_addr_sk": "$ss_addr_sk.ca_address_sk",
                "amt": "$ss_coupon_amt",
                "profit": "$ss_net_profit",
            }
        },
        {"$match": {"value": True}},
        {
            "$group": {
                "_id": {
                    "ss_ticket_number": "$ss_ticket_number",
                    "ss_customer_sk": "$ss_customer_sk",
                    "ss_addr_sk": "$ss_addr_sk",
                    "ca_city": "$ca_city",
                    "bought_city": "$bought_city",
                    "c_last_name": "$c_last_name",
                    "c_first_name": "$c_first_name",
                },
                "amt": {"$sum": "$amt"},
                "profit": {"$sum": "$profit"},
            }
        },
        {
            "$project": {
                "_id": 0,
                "c_last_name": "$_id.c_last_name",
                "c_first_name": "$_id.c_first_name",
                "ca_city": "$_id.ca_city",
                "bought_city": "$_id.bought_city",
                "ss_ticket_number": "$_id.ss_ticket_number",
                "amt": 1,
                "profit": 1,
            }
        },
        {
            "$sort": {
                "c_last_name": 1,
                "c_first_name": 1,
                "ca_city": 1,
                "bought_city": 1,
                "ss_ticket_number": 1,
            }
        },
    ]
    if out:
        pipeline.append({"$out": out})
    return pipeline


_Q50_BUCKETS: tuple[tuple[str, int | None, int | None], ...] = (
    ("30 days", None, 30),
    ("31-60 days", 30, 60),
    ("61-90 days", 60, 90),
    ("91-120 days", 90, 120),
    (">120 days", 120, None),
)


def _q50_bucket_expression(lower: int | None, upper: int | None, *, lag_expression: Any) -> dict[str, Any]:
    """Build the ``sum(case when ... then 1 else 0 end)`` accumulator."""
    conditions = []
    if lower is not None:
        conditions.append({"$gt": [lag_expression, lower]})
    if upper is not None:
        conditions.append({"$lte": [lag_expression, upper]})
    condition = conditions[0] if len(conditions) == 1 else {"$and": conditions}
    return {"$sum": {"$cond": [condition, 1, 0]}}


#: Query 50's store columns, each with its name in the ``$group`` key.
_Q50_STORE = {
    "s_store_name": "store",
    "s_company_id": "company",
    "s_street_number": "str_num",
    "s_street_name": "str_name",
    "s_street_type": "str_type",
    "s_suite_number": "suite_num",
    "s_city": "city",
    "s_county": "county",
    "s_state": "state",
    "s_zip": "zip",
}


def query50_stages(lag: Mapping[str, Any], sort_columns: int) -> list[dict[str, Any]]:
    """Query 50's ``$group`` of the return lag *lag* into buckets per store, then its
    ``$project`` and a ``$sort`` on the first *sort_columns* store columns."""
    group_stage: dict[str, Any] = {
        "_id": {key: f"$ss_store_sk.{column}" for column, key in _Q50_STORE.items()}
    }
    for label, lower, upper in _Q50_BUCKETS:
        group_stage[label] = _q50_bucket_expression(lower, upper, lag_expression=lag)
    project = {column: f"$_id.{key}" for column, key in _Q50_STORE.items()}
    return [
        {"$group": group_stage},
        {"$project": {"_id": 0, **project, **{label: 1 for label, _, _ in _Q50_BUCKETS}}},
        {"$sort": dict.fromkeys(list(_Q50_STORE)[:sort_columns], 1)},
    ]


def query50_pipeline(params: Mapping[str, Any], *, out: str | None = None) -> list[dict[str, Any]]:
    """Appendix B, Query 50: return-latency aging buckets per store."""
    lag = {"$subtract": ["$ss_return.sr_returned_date_sk", "$ss_sold_date_sk.d_date_sk"]}
    pipeline: list[dict[str, Any]] = [
        {
            "$match": {
                "$and": [
                    {"ss_return.sr_returned_date.d_year": params["year"]},
                    {"ss_return.sr_returned_date.d_moy": params["month"]},
                    {"ss_return.sr_customer_sk": {"$exists": True}},
                    {"ss_item_sk.i_item_sk": {"$exists": True}},
                    {"ss_sold_date_sk.d_date_sk": {"$exists": True}},
                    {"ss_store_sk.s_store_sk": {"$exists": True}},
                    {"ss_return.sr_item_sk": {"$exists": True}},
                ]
            }
        },
        *query50_stages(lag, len(_Q50_STORE)),
    ]
    if out:
        pipeline.append({"$out": out})
    return pipeline


_PIPELINE_BUILDERS = {
    7: query7_pipeline,
    21: query21_pipeline,
    46: query46_pipeline,
    50: query50_pipeline,
}


def denormalized_pipeline(
    query_id: int,
    parameters: Mapping[str, Any] | None = None,
    *,
    out: str | None = None,
) -> list[dict[str, Any]]:
    """Build the Appendix B pipeline for *query_id*."""
    if query_id not in _PIPELINE_BUILDERS:
        raise KeyError(f"no denormalized pipeline for query {query_id}")
    params = query_parameters(query_id)
    if parameters:
        params.update(parameters)
    return _PIPELINE_BUILDERS[query_id](params, out=out)


def run_denormalized_query(
    database,
    query_id: int,
    parameters: Mapping[str, Any] | None = None,
    *,
    write_output: bool = False,
) -> list[dict[str, Any]]:
    """Run *query_id* against its denormalized collection in *database*.

    With ``write_output=True`` the pipeline ends in ``$out`` (as in the
    thesis' JavaScript) and the result collection ``query<N>_output`` is
    populated; the function then returns its contents.
    """
    collection_name = DENORMALIZED_COLLECTIONS[query_id]
    out_name = f"query{query_id}_output" if write_output else None
    pipeline = denormalized_pipeline(query_id, parameters, out=out_name)
    results = database[collection_name].aggregate(pipeline)
    if write_output:
        return database[out_name].find({}).to_list()
    return results
