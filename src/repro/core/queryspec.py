"""Structured descriptions of the four evaluation queries.

The SQL text of queries 7, 21, 46, and 50 lives in
:mod:`repro.tpcds.queries`.  The translation algorithms need a structured
view of the same queries: which fact collection they read, which dimensions
they join, which dimension carries a ``where`` filter, and which dimensions
contribute attributes to the aggregation (and therefore must be embedded by
the normalized-model algorithm of Figure 4.8, step 8).

The specs are parameterized by the same predicate values as the SQL
templates, so a single spec serves both reproduction scales.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..tpcds.queries import query_parameters
from ..tpcds.scaling import DATE_RANGE_START

__all__ = [
    "DimensionJoin",
    "FactJoin",
    "QuerySpec",
    "query_spec",
    "QUERY_SPECS",
    "date_sk_for",
]

#: d_date_sk assigned to the first generated calendar day (1998-01-01).
_BASE_DATE_SK = 2_450_815


def date_sk_for(iso_date: str) -> int:
    """Return the ``d_date_sk`` surrogate key of an ISO calendar date."""
    day = _dt.date.fromisoformat(iso_date)
    return _BASE_DATE_SK + (day - DATE_RANGE_START).days


@dataclass(frozen=True)
class DimensionJoin:
    """One fact-to-dimension join edge of a query."""

    collection: str
    primary_key: str
    fact_field: str
    #: ``where`` conditions on the dimension (empty = no filter, join only).
    filter: Mapping[str, Any] = field(default_factory=dict)
    #: True when the dimension's attributes appear in the aggregation output,
    #: so the normalized algorithm must embed it into the intermediate
    #: collection (Figure 4.8, steps 8-9).
    embed_for_aggregation: bool = False

    @property
    def has_filter(self) -> bool:
        """True when the dimension carries a ``where`` clause."""
        return bool(self.filter)


@dataclass(frozen=True)
class FactJoin:
    """A fact-to-fact equi-join (only Query 50 uses one)."""

    collection: str
    #: pairs of (primary-fact field, secondary-fact field) that must be equal.
    join_fields: tuple[tuple[str, str], ...]
    #: dimension joins hanging off the secondary fact.
    dimensions: tuple[DimensionJoin, ...] = ()
    #: field of the primary fact's denormalized document that holds the
    #: embedded secondary-fact document.
    embed_as: str = "ss_return"


@dataclass(frozen=True)
class QuerySpec:
    """Structured description of one evaluation query."""

    query_id: int
    fact_collection: str
    dimensions: tuple[DimensionJoin, ...]
    fact_join: FactJoin | None = None
    output_collection: str = ""

    def filtered_dimensions(self) -> tuple[DimensionJoin, ...]:
        """Dimensions that carry a ``where`` filter (Figure 4.8, step 4)."""
        return tuple(dim for dim in self.dimensions if dim.has_filter)

    def embedded_dimensions(self) -> tuple[DimensionJoin, ...]:
        """Dimensions whose attributes are needed by the aggregation."""
        return tuple(dim for dim in self.dimensions if dim.embed_for_aggregation)


def _query7_spec(params: Mapping[str, Any]) -> QuerySpec:
    return QuerySpec(
        query_id=7,
        fact_collection="store_sales",
        output_collection="query7_output",
        dimensions=(
            DimensionJoin(
                collection="customer_demographics",
                primary_key="cd_demo_sk",
                fact_field="ss_cdemo_sk",
                filter={
                    "cd_gender": params["gender"],
                    "cd_marital_status": params["marital_status"],
                    "cd_education_status": params["education_status"],
                },
            ),
            DimensionJoin(
                collection="date_dim",
                primary_key="d_date_sk",
                fact_field="ss_sold_date_sk",
                filter={"d_year": params["year"]},
            ),
            DimensionJoin(
                collection="promotion",
                primary_key="p_promo_sk",
                fact_field="ss_promo_sk",
                filter={"$or": [{"p_channel_email": "N"}, {"p_channel_event": "N"}]},
            ),
            DimensionJoin(
                collection="item",
                primary_key="i_item_sk",
                fact_field="ss_item_sk",
                embed_for_aggregation=True,
            ),
        ),
    )


def _query21_spec(params: Mapping[str, Any]) -> QuerySpec:
    sales_date = params["sales_date"]
    window_start = (_dt.date.fromisoformat(sales_date) - _dt.timedelta(days=30)).isoformat()
    window_end = (_dt.date.fromisoformat(sales_date) + _dt.timedelta(days=30)).isoformat()
    return QuerySpec(
        query_id=21,
        fact_collection="inventory",
        output_collection="query21_output",
        dimensions=(
            DimensionJoin(
                collection="item",
                primary_key="i_item_sk",
                fact_field="inv_item_sk",
                filter={
                    "i_current_price": {"$gte": params["price_min"], "$lte": params["price_max"]}
                },
                embed_for_aggregation=True,
            ),
            DimensionJoin(
                collection="date_dim",
                primary_key="d_date_sk",
                fact_field="inv_date_sk",
                filter={"d_date": {"$gte": window_start, "$lte": window_end}},
                embed_for_aggregation=True,
            ),
            DimensionJoin(
                collection="warehouse",
                primary_key="w_warehouse_sk",
                fact_field="inv_warehouse_sk",
                embed_for_aggregation=True,
            ),
        ),
    )


def _query46_spec(params: Mapping[str, Any]) -> QuerySpec:
    cities = [city.strip().strip("'") for city in str(params["cities"]).split(",")]
    years = [params["year"], params["year"] + 1, params["year"] + 2]
    return QuerySpec(
        query_id=46,
        fact_collection="store_sales",
        output_collection="query46_output",
        dimensions=(
            DimensionJoin(
                collection="store",
                primary_key="s_store_sk",
                fact_field="ss_store_sk",
                filter={"s_city": {"$in": sorted(set(cities))}},
            ),
            DimensionJoin(
                collection="date_dim",
                primary_key="d_date_sk",
                fact_field="ss_sold_date_sk",
                filter={"d_dow": {"$in": [6, 0]}, "d_year": {"$in": years}},
            ),
            DimensionJoin(
                collection="household_demographics",
                primary_key="hd_demo_sk",
                fact_field="ss_hdemo_sk",
                filter={
                    "$or": [
                        {"hd_dep_count": params["dep_count"]},
                        {"hd_vehicle_count": params["vehicle_count"]},
                    ]
                },
            ),
            DimensionJoin(
                collection="customer_address",
                primary_key="ca_address_sk",
                fact_field="ss_addr_sk",
                embed_for_aggregation=True,
            ),
            DimensionJoin(
                collection="customer",
                primary_key="c_customer_sk",
                fact_field="ss_customer_sk",
                embed_for_aggregation=True,
            ),
        ),
    )


def _query50_spec(params: Mapping[str, Any]) -> QuerySpec:
    return QuerySpec(
        query_id=50,
        fact_collection="store_sales",
        output_collection="query50_output",
        dimensions=(
            DimensionJoin(
                collection="store",
                primary_key="s_store_sk",
                fact_field="ss_store_sk",
                embed_for_aggregation=True,
            ),
            DimensionJoin(
                collection="date_dim",
                primary_key="d_date_sk",
                fact_field="ss_sold_date_sk",
            ),
        ),
        fact_join=FactJoin(
            collection="store_returns",
            join_fields=(
                ("ss_ticket_number", "sr_ticket_number"),
                ("ss_item_sk", "sr_item_sk"),
                ("ss_customer_sk", "sr_customer_sk"),
            ),
            dimensions=(
                DimensionJoin(
                    collection="date_dim",
                    primary_key="d_date_sk",
                    fact_field="sr_returned_date_sk",
                    filter={"d_year": params["year"], "d_moy": params["month"]},
                ),
            ),
            embed_as="ss_return",
        ),
    )


_SPEC_BUILDERS: dict[int, Callable[[Mapping[str, Any]], QuerySpec]] = {
    7: _query7_spec,
    21: _query21_spec,
    46: _query46_spec,
    50: _query50_spec,
}


def query_spec(query_id: int, parameters: Mapping[str, Any] | None = None) -> QuerySpec:
    """Return the structured spec of *query_id* with *parameters* applied."""
    if query_id not in _SPEC_BUILDERS:
        raise KeyError(f"no query spec for query {query_id}")
    params = query_parameters(query_id)
    if parameters:
        params.update(parameters)
    return _SPEC_BUILDERS[query_id](params)


#: Specs built with the default parameter values.
QUERY_SPECS: dict[int, QuerySpec] = {query_id: query_spec(query_id) for query_id in _SPEC_BUILDERS}
