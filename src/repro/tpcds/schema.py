"""TPC-DS schema description.

The benchmark's retail snowflake schema has 7 fact tables and 17 dimension
tables (24 in total, Section 3.4).  The reproduction describes every table —
its columns, primary key, and foreign-key relationships — with full column
detail for the 12 tables touched by the four evaluation queries (3 fact
tables and 9 dimension tables, Figures 3.2–3.4) and compact column sets for
the remaining tables, which only participate in the data-load experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ColumnType",
    "Column",
    "TableSchema",
    "ForeignKey",
    "TPCDS_TABLES",
    "FACT_TABLES",
    "DIMENSION_TABLES",
    "QUERY_TABLES",
    "table_schema",
]


class ColumnType:
    """Column type tags used by the generator and the ``.dat`` reader."""

    INTEGER = "integer"
    DECIMAL = "decimal"
    STRING = "string"
    DATE = "date"
    IDENTIFIER = "identifier"  # surrogate key


@dataclass(frozen=True)
class Column:
    """One table column."""

    name: str
    type: str
    nullable: bool = False


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key relationship between a fact/dimension pair."""

    column: str
    references_table: str
    references_column: str


@dataclass(frozen=True)
class TableSchema:
    """A TPC-DS table: columns, key, and relationships."""

    name: str
    columns: tuple[Column, ...]
    primary_key: str
    is_fact: bool = False
    foreign_keys: tuple[ForeignKey, ...] = field(default_factory=tuple)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Ordered column names."""
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> Column:
        """Return the column called *name*."""
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(f"{self.name} has no column {name!r}")


def _columns(*specs: tuple[str, str]) -> tuple[Column, ...]:
    return tuple(Column(name=name, type=type_) for name, type_ in specs)


_I = ColumnType.IDENTIFIER
_N = ColumnType.INTEGER
_D = ColumnType.DECIMAL
_S = ColumnType.STRING
_DT = ColumnType.DATE


# ---------------------------------------------------------------------------
# Dimension tables used by the evaluation queries
# ---------------------------------------------------------------------------

DATE_DIM = TableSchema(
    name="date_dim",
    primary_key="d_date_sk",
    columns=_columns(
        ("d_date_sk", _I),
        ("d_date_id", _S),
        ("d_date", _DT),
        ("d_month_seq", _N),
        ("d_week_seq", _N),
        ("d_quarter_seq", _N),
        ("d_year", _N),
        ("d_dow", _N),
        ("d_moy", _N),
        ("d_dom", _N),
        ("d_qoy", _N),
        ("d_fy_year", _N),
        ("d_day_name", _S),
        ("d_quarter_name", _S),
        ("d_holiday", _S),
        ("d_weekend", _S),
    ),
)

ITEM = TableSchema(
    name="item",
    primary_key="i_item_sk",
    columns=_columns(
        ("i_item_sk", _I),
        ("i_item_id", _S),
        ("i_rec_start_date", _DT),
        ("i_item_desc", _S),
        ("i_current_price", _D),
        ("i_wholesale_cost", _D),
        ("i_brand_id", _N),
        ("i_brand", _S),
        ("i_class_id", _N),
        ("i_class", _S),
        ("i_category_id", _N),
        ("i_category", _S),
        ("i_manufact_id", _N),
        ("i_manufact", _S),
        ("i_size", _S),
        ("i_color", _S),
        ("i_units", _S),
        ("i_product_name", _S),
    ),
)

CUSTOMER_DEMOGRAPHICS = TableSchema(
    name="customer_demographics",
    primary_key="cd_demo_sk",
    columns=_columns(
        ("cd_demo_sk", _I),
        ("cd_gender", _S),
        ("cd_marital_status", _S),
        ("cd_education_status", _S),
        ("cd_purchase_estimate", _N),
        ("cd_credit_rating", _S),
        ("cd_dep_count", _N),
        ("cd_dep_employed_count", _N),
        ("cd_dep_college_count", _N),
    ),
)

PROMOTION = TableSchema(
    name="promotion",
    primary_key="p_promo_sk",
    columns=_columns(
        ("p_promo_sk", _I),
        ("p_promo_id", _S),
        ("p_start_date_sk", _N),
        ("p_end_date_sk", _N),
        ("p_item_sk", _N),
        ("p_cost", _D),
        ("p_response_target", _N),
        ("p_promo_name", _S),
        ("p_channel_dmail", _S),
        ("p_channel_email", _S),
        ("p_channel_catalog", _S),
        ("p_channel_tv", _S),
        ("p_channel_radio", _S),
        ("p_channel_press", _S),
        ("p_channel_event", _S),
        ("p_channel_demo", _S),
        ("p_purpose", _S),
        ("p_discount_active", _S),
    ),
)

STORE = TableSchema(
    name="store",
    primary_key="s_store_sk",
    columns=_columns(
        ("s_store_sk", _I),
        ("s_store_id", _S),
        ("s_store_name", _S),
        ("s_number_employees", _N),
        ("s_floor_space", _N),
        ("s_hours", _S),
        ("s_manager", _S),
        ("s_market_id", _N),
        ("s_company_id", _N),
        ("s_company_name", _S),
        ("s_street_number", _S),
        ("s_street_name", _S),
        ("s_street_type", _S),
        ("s_suite_number", _S),
        ("s_city", _S),
        ("s_county", _S),
        ("s_state", _S),
        ("s_zip", _S),
        ("s_country", _S),
        ("s_tax_precentage", _D),
    ),
)

HOUSEHOLD_DEMOGRAPHICS = TableSchema(
    name="household_demographics",
    primary_key="hd_demo_sk",
    columns=_columns(
        ("hd_demo_sk", _I),
        ("hd_income_band_sk", _N),
        ("hd_buy_potential", _S),
        ("hd_dep_count", _N),
        ("hd_vehicle_count", _N),
    ),
    foreign_keys=(ForeignKey("hd_income_band_sk", "income_band", "ib_income_band_sk"),),
)

CUSTOMER_ADDRESS = TableSchema(
    name="customer_address",
    primary_key="ca_address_sk",
    columns=_columns(
        ("ca_address_sk", _I),
        ("ca_address_id", _S),
        ("ca_street_number", _S),
        ("ca_street_name", _S),
        ("ca_street_type", _S),
        ("ca_suite_number", _S),
        ("ca_city", _S),
        ("ca_county", _S),
        ("ca_state", _S),
        ("ca_zip", _S),
        ("ca_country", _S),
        ("ca_gmt_offset", _D),
        ("ca_location_type", _S),
    ),
)

CUSTOMER = TableSchema(
    name="customer",
    primary_key="c_customer_sk",
    columns=_columns(
        ("c_customer_sk", _I),
        ("c_customer_id", _S),
        ("c_current_cdemo_sk", _N),
        ("c_current_hdemo_sk", _N),
        ("c_current_addr_sk", _N),
        ("c_first_shipto_date_sk", _N),
        ("c_first_sales_date_sk", _N),
        ("c_salutation", _S),
        ("c_first_name", _S),
        ("c_last_name", _S),
        ("c_preferred_cust_flag", _S),
        ("c_birth_day", _N),
        ("c_birth_month", _N),
        ("c_birth_year", _N),
        ("c_birth_country", _S),
        ("c_email_address", _S),
    ),
    foreign_keys=(
        ForeignKey("c_current_cdemo_sk", "customer_demographics", "cd_demo_sk"),
        ForeignKey("c_current_hdemo_sk", "household_demographics", "hd_demo_sk"),
        ForeignKey("c_current_addr_sk", "customer_address", "ca_address_sk"),
    ),
)

WAREHOUSE = TableSchema(
    name="warehouse",
    primary_key="w_warehouse_sk",
    columns=_columns(
        ("w_warehouse_sk", _I),
        ("w_warehouse_id", _S),
        ("w_warehouse_name", _S),
        ("w_warehouse_sq_ft", _N),
        ("w_street_number", _S),
        ("w_street_name", _S),
        ("w_city", _S),
        ("w_county", _S),
        ("w_state", _S),
        ("w_zip", _S),
        ("w_country", _S),
    ),
)


# ---------------------------------------------------------------------------
# Fact tables used by the evaluation queries
# ---------------------------------------------------------------------------

STORE_SALES = TableSchema(
    name="store_sales",
    primary_key="ss_ticket_number",
    is_fact=True,
    columns=_columns(
        ("ss_sold_date_sk", _N),
        ("ss_sold_time_sk", _N),
        ("ss_item_sk", _I),
        ("ss_customer_sk", _N),
        ("ss_cdemo_sk", _N),
        ("ss_hdemo_sk", _N),
        ("ss_addr_sk", _N),
        ("ss_store_sk", _N),
        ("ss_promo_sk", _N),
        ("ss_ticket_number", _I),
        ("ss_quantity", _N),
        ("ss_wholesale_cost", _D),
        ("ss_list_price", _D),
        ("ss_sales_price", _D),
        ("ss_ext_discount_amt", _D),
        ("ss_ext_sales_price", _D),
        ("ss_coupon_amt", _D),
        ("ss_net_paid", _D),
        ("ss_net_profit", _D),
    ),
    foreign_keys=(
        ForeignKey("ss_sold_date_sk", "date_dim", "d_date_sk"),
        ForeignKey("ss_sold_time_sk", "time_dim", "t_time_sk"),
        ForeignKey("ss_item_sk", "item", "i_item_sk"),
        ForeignKey("ss_customer_sk", "customer", "c_customer_sk"),
        ForeignKey("ss_cdemo_sk", "customer_demographics", "cd_demo_sk"),
        ForeignKey("ss_hdemo_sk", "household_demographics", "hd_demo_sk"),
        ForeignKey("ss_addr_sk", "customer_address", "ca_address_sk"),
        ForeignKey("ss_store_sk", "store", "s_store_sk"),
        ForeignKey("ss_promo_sk", "promotion", "p_promo_sk"),
    ),
)

STORE_RETURNS = TableSchema(
    name="store_returns",
    primary_key="sr_ticket_number",
    is_fact=True,
    columns=_columns(
        ("sr_returned_date_sk", _N),
        ("sr_return_time_sk", _N),
        ("sr_item_sk", _I),
        ("sr_customer_sk", _N),
        ("sr_cdemo_sk", _N),
        ("sr_hdemo_sk", _N),
        ("sr_addr_sk", _N),
        ("sr_store_sk", _N),
        ("sr_reason_sk", _N),
        ("sr_ticket_number", _I),
        ("sr_return_quantity", _N),
        ("sr_return_amt", _D),
        ("sr_return_tax", _D),
        ("sr_fee", _D),
        ("sr_return_ship_cost", _D),
        ("sr_refunded_cash", _D),
        ("sr_net_loss", _D),
    ),
    foreign_keys=(
        ForeignKey("sr_returned_date_sk", "date_dim", "d_date_sk"),
        ForeignKey("sr_return_time_sk", "time_dim", "t_time_sk"),
        ForeignKey("sr_item_sk", "item", "i_item_sk"),
        ForeignKey("sr_customer_sk", "customer", "c_customer_sk"),
        ForeignKey("sr_cdemo_sk", "customer_demographics", "cd_demo_sk"),
        ForeignKey("sr_hdemo_sk", "household_demographics", "hd_demo_sk"),
        ForeignKey("sr_addr_sk", "customer_address", "ca_address_sk"),
        ForeignKey("sr_store_sk", "store", "s_store_sk"),
        ForeignKey("sr_reason_sk", "reason", "r_reason_sk"),
    ),
)

INVENTORY = TableSchema(
    name="inventory",
    primary_key="inv_item_sk",
    is_fact=True,
    columns=_columns(
        ("inv_date_sk", _N),
        ("inv_item_sk", _I),
        ("inv_warehouse_sk", _N),
        ("inv_quantity_on_hand", _N),
    ),
    foreign_keys=(
        ForeignKey("inv_date_sk", "date_dim", "d_date_sk"),
        ForeignKey("inv_item_sk", "item", "i_item_sk"),
        ForeignKey("inv_warehouse_sk", "warehouse", "w_warehouse_sk"),
    ),
)


# ---------------------------------------------------------------------------
# Remaining tables (participate in data loading only)
# ---------------------------------------------------------------------------

CALL_CENTER = TableSchema(
    name="call_center",
    primary_key="cc_call_center_sk",
    columns=_columns(
        ("cc_call_center_sk", _I),
        ("cc_call_center_id", _S),
        ("cc_name", _S),
        ("cc_class", _S),
        ("cc_employees", _N),
        ("cc_city", _S),
        ("cc_state", _S),
    ),
)

CATALOG_PAGE = TableSchema(
    name="catalog_page",
    primary_key="cp_catalog_page_sk",
    columns=_columns(
        ("cp_catalog_page_sk", _I),
        ("cp_catalog_page_id", _S),
        ("cp_department", _S),
        ("cp_catalog_number", _N),
        ("cp_catalog_page_number", _N),
        ("cp_description", _S),
        ("cp_type", _S),
    ),
)

CATALOG_SALES = TableSchema(
    name="catalog_sales",
    primary_key="cs_order_number",
    is_fact=True,
    columns=_columns(
        ("cs_sold_date_sk", _N),
        ("cs_item_sk", _I),
        ("cs_bill_customer_sk", _N),
        ("cs_order_number", _I),
        ("cs_quantity", _N),
        ("cs_list_price", _D),
        ("cs_sales_price", _D),
        ("cs_net_profit", _D),
    ),
    foreign_keys=(
        ForeignKey("cs_sold_date_sk", "date_dim", "d_date_sk"),
        ForeignKey("cs_item_sk", "item", "i_item_sk"),
        ForeignKey("cs_bill_customer_sk", "customer", "c_customer_sk"),
    ),
)

CATALOG_RETURNS = TableSchema(
    name="catalog_returns",
    primary_key="cr_order_number",
    is_fact=True,
    columns=_columns(
        ("cr_returned_date_sk", _N),
        ("cr_item_sk", _I),
        ("cr_refunded_customer_sk", _N),
        ("cr_order_number", _I),
        ("cr_return_quantity", _N),
        ("cr_return_amount", _D),
        ("cr_net_loss", _D),
    ),
    foreign_keys=(
        ForeignKey("cr_returned_date_sk", "date_dim", "d_date_sk"),
        ForeignKey("cr_item_sk", "item", "i_item_sk"),
    ),
)

INCOME_BAND = TableSchema(
    name="income_band",
    primary_key="ib_income_band_sk",
    columns=_columns(
        ("ib_income_band_sk", _I),
        ("ib_lower_bound", _N),
        ("ib_upper_bound", _N),
    ),
)

REASON = TableSchema(
    name="reason",
    primary_key="r_reason_sk",
    columns=_columns(
        ("r_reason_sk", _I),
        ("r_reason_id", _S),
        ("r_reason_desc", _S),
    ),
)

SHIP_MODE = TableSchema(
    name="ship_mode",
    primary_key="sm_ship_mode_sk",
    columns=_columns(
        ("sm_ship_mode_sk", _I),
        ("sm_ship_mode_id", _S),
        ("sm_type", _S),
        ("sm_code", _S),
        ("sm_carrier", _S),
        ("sm_contract", _S),
    ),
)

TIME_DIM = TableSchema(
    name="time_dim",
    primary_key="t_time_sk",
    columns=_columns(
        ("t_time_sk", _I),
        ("t_time_id", _S),
        ("t_time", _N),
        ("t_hour", _N),
        ("t_minute", _N),
        ("t_second", _N),
        ("t_am_pm", _S),
        ("t_shift", _S),
    ),
)

WEB_PAGE = TableSchema(
    name="web_page",
    primary_key="wp_web_page_sk",
    columns=_columns(
        ("wp_web_page_sk", _I),
        ("wp_web_page_id", _S),
        ("wp_creation_date_sk", _N),
        ("wp_url", _S),
        ("wp_type", _S),
        ("wp_char_count", _N),
    ),
)

WEB_SALES = TableSchema(
    name="web_sales",
    primary_key="ws_order_number",
    is_fact=True,
    columns=_columns(
        ("ws_sold_date_sk", _N),
        ("ws_item_sk", _I),
        ("ws_bill_customer_sk", _N),
        ("ws_order_number", _I),
        ("ws_quantity", _N),
        ("ws_list_price", _D),
        ("ws_sales_price", _D),
        ("ws_net_profit", _D),
    ),
    foreign_keys=(
        ForeignKey("ws_sold_date_sk", "date_dim", "d_date_sk"),
        ForeignKey("ws_item_sk", "item", "i_item_sk"),
        ForeignKey("ws_bill_customer_sk", "customer", "c_customer_sk"),
    ),
)

WEB_RETURNS = TableSchema(
    name="web_returns",
    primary_key="wr_order_number",
    is_fact=True,
    columns=_columns(
        ("wr_returned_date_sk", _N),
        ("wr_item_sk", _I),
        ("wr_refunded_customer_sk", _N),
        ("wr_order_number", _I),
        ("wr_return_quantity", _N),
        ("wr_return_amt", _D),
        ("wr_net_loss", _D),
    ),
    foreign_keys=(
        ForeignKey("wr_returned_date_sk", "date_dim", "d_date_sk"),
        ForeignKey("wr_item_sk", "item", "i_item_sk"),
    ),
)

WEB_SITE = TableSchema(
    name="web_site",
    primary_key="web_site_sk",
    columns=_columns(
        ("web_site_sk", _I),
        ("web_site_id", _S),
        ("web_name", _S),
        ("web_class", _S),
        ("web_manager", _S),
        ("web_city", _S),
        ("web_state", _S),
    ),
)


#: Every TPC-DS table, keyed by name.
TPCDS_TABLES: dict[str, TableSchema] = {
    table.name: table
    for table in (
        CALL_CENTER,
        CATALOG_PAGE,
        CATALOG_RETURNS,
        CATALOG_SALES,
        CUSTOMER,
        CUSTOMER_ADDRESS,
        CUSTOMER_DEMOGRAPHICS,
        DATE_DIM,
        HOUSEHOLD_DEMOGRAPHICS,
        INCOME_BAND,
        INVENTORY,
        ITEM,
        PROMOTION,
        REASON,
        SHIP_MODE,
        STORE,
        STORE_RETURNS,
        STORE_SALES,
        TIME_DIM,
        WAREHOUSE,
        WEB_PAGE,
        WEB_RETURNS,
        WEB_SALES,
        WEB_SITE,
    )
}

#: Names of the 7 fact tables.
FACT_TABLES: tuple[str, ...] = tuple(
    sorted(name for name, table in TPCDS_TABLES.items() if table.is_fact)
)

#: Names of the 17 dimension tables.
DIMENSION_TABLES: tuple[str, ...] = tuple(
    sorted(name for name, table in TPCDS_TABLES.items() if not table.is_fact)
)

#: The 12 tables used by queries 7, 21, 46, and 50 (3 facts + 9 dimensions).
QUERY_TABLES: tuple[str, ...] = (
    "store_sales",
    "store_returns",
    "inventory",
    "date_dim",
    "item",
    "customer_demographics",
    "promotion",
    "store",
    "household_demographics",
    "customer_address",
    "customer",
    "warehouse",
)


def table_schema(name: str) -> TableSchema:
    """Return the schema of the table called *name*."""
    try:
        return TPCDS_TABLES[name]
    except KeyError:
        raise KeyError(f"unknown TPC-DS table {name!r}") from None
