"""Synthetic TPC-DS data generator (``dsdgen`` substitute).

The generator produces deterministic, seedable row sets for every TPC-DS
table at a reproduction scale (see :mod:`repro.tpcds.scaling`).  The value
distributions are simplified relative to the official ``dsdgen`` but preserve
the correlations the four evaluation queries depend on:

* ``date_dim`` covers 1998-01-01 .. 2003-12-31 contiguously, so the year,
  month, day-of-week, and ±30-day window predicates of Q7/Q21/Q46/Q50 select
  realistic fractions of the fact data;
* ``customer_demographics`` enumerates the gender × marital-status ×
  education cross product (Q7's ``M / M / 4 yr Degree`` bucket exists);
* ``store`` and ``customer_address`` concentrate on a small set of cities
  including ``Midway`` and ``Fairview`` (Q46);
* ``store_returns`` has its Table 3.6 row count (scaled like the other
  scaling tables), and each row is a distinct ``store_sales`` row's return,
  with the same ticket number, item, and customer, between 5 and 150 days
  after the sale (Q50's aging buckets);
* ``item`` prices straddle the ``0.99 .. 1.49`` band used by Q21.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from .scaling import (
    DATE_RANGE_END,
    DATE_RANGE_START,
    ScaleProfile,
    SCALE_SMALL,
    generation_row_counts,
)
from .schema import TPCDS_TABLES, table_schema

__all__ = ["TPCDSGenerator", "GeneratedDataset"]


_GENDERS = ("M", "F")
_MARITAL_STATUSES = ("M", "S", "D", "W", "U")
_EDUCATION_LEVELS = (
    "Primary",
    "Secondary",
    "College",
    "2 yr Degree",
    "4 yr Degree",
    "Advanced Degree",
    "Unknown",
)
_CREDIT_RATINGS = ("Low Risk", "Good", "High Risk", "Unknown")
_BUY_POTENTIALS = ("0-500", "501-1000", "1001-5000", "5001-10000", ">10000", "Unknown")
_CITIES = (
    "Midway",
    "Fairview",
    "Oak Grove",
    "Glendale",
    "Pleasant Hill",
    "Centerville",
    "Riverside",
    "Salem",
    "Union",
    "Wildwood",
)
_STREET_NAMES = ("Jackson", "Main", "Oak", "Maple", "Washington", "Park", "Elm", "Lake")
_STREET_TYPES = ("Parkway", "Street", "Avenue", "Boulevard", "Court", "Drive", "Lane")
_STATES = ("CA", "TX", "OH", "GA", "NY", "WA", "TN", "IL", "MI", "VA")
_COUNTIES = ("Williamson County", "Ziebach County", "Walker County", "Daviess County")
_FIRST_NAMES = (
    "Earl", "Anna", "James", "Maria", "Robert", "Linda", "David", "Susan",
    "John", "Karen", "Michael", "Nancy", "William", "Lisa", "Richard", "Betty",
)
_LAST_NAMES = (
    "Garrison", "Smith", "Johnson", "Williams", "Brown", "Jones", "Miller",
    "Davis", "Wilson", "Anderson", "Thomas", "Moore", "Martin", "Lee",
)
_ITEM_CATEGORIES = ("Books", "Electronics", "Home", "Jewelry", "Music", "Shoes", "Sports", "Women")
_ITEM_CLASSES = ("accent", "classical", "dresses", "fiction", "fitness", "portable", "wallpaper")
_WAREHOUSE_NAMES = (
    "Conventional childr",
    "Important issues liv",
    "Doors canno",
    "Bad cards must make",
    "Rooms cook ",
    "Eyes hold rather",
    "Slow engines test",
)
_YES_NO = ("Y", "N")


def _item_id(index: int) -> str:
    return f"AAAAAAAA{index:08d}"


@dataclass
class GeneratedDataset:
    """All generated rows for one scale, keyed by table name."""

    profile: ScaleProfile
    tables: dict[str, list[dict[str, Any]]] = field(default_factory=dict)

    def row_counts(self) -> dict[str, int]:
        """Row count per table."""
        return {name: len(rows) for name, rows in self.tables.items()}

    def __getitem__(self, table_name: str) -> list[dict[str, Any]]:
        return self.tables[table_name]


class TPCDSGenerator:
    """Deterministic generator for one reproduction scale."""

    def __init__(
        self,
        profile: ScaleProfile = SCALE_SMALL,
        *,
        seed: int = 20151109,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.row_counts = generation_row_counts(profile)
        self._cache: dict[str, list[dict[str, Any]]] = {}

    # ------------------------------------------------------------- public API

    def generate_table(self, table_name: str) -> list[dict[str, Any]]:
        """Generate (and memoize) the rows of *table_name*."""
        if table_name not in TPCDS_TABLES:
            raise KeyError(f"unknown TPC-DS table {table_name!r}")
        if table_name not in self._cache:
            generator = getattr(self, f"_generate_{table_name}", None)
            if generator is None:
                rows = self._generate_generic(table_name)
            else:
                rows = generator()
            self._cache[table_name] = rows
        return self._cache[table_name]

    def generate_all(self) -> GeneratedDataset:
        """Generate every table and return the complete dataset."""
        dataset = GeneratedDataset(profile=self.profile)
        for table_name in sorted(TPCDS_TABLES):
            dataset.tables[table_name] = self.generate_table(table_name)
        return dataset

    # ---------------------------------------------------------------- helpers

    def _rng(self, table_name: str) -> random.Random:
        """Per-table RNG so tables are independent of generation order."""
        return random.Random((self.seed, table_name, self.profile.name).__repr__())

    def _count(self, table_name: str) -> int:
        return self.row_counts[table_name]

    def _date_rows(self) -> list[dict[str, Any]]:
        return self.generate_table("date_dim")

    # ------------------------------------------------------------- dimensions

    def _generate_date_dim(self) -> list[dict[str, Any]]:
        rows = []
        import datetime as dt

        day = DATE_RANGE_START
        base_sk = 2_450_815 + (DATE_RANGE_START - dt.date(1998, 1, 1)).days
        index = 0
        while day <= DATE_RANGE_END:
            date_sk = base_sk + index
            quarter = (day.month - 1) // 3 + 1
            rows.append(
                {
                    "d_date_sk": date_sk,
                    "d_date_id": f"AAAAAAAA{date_sk:08d}",
                    "d_date": day.isoformat(),
                    "d_month_seq": (day.year - 1900) * 12 + day.month - 1,
                    "d_week_seq": (date_sk - base_sk) // 7,
                    "d_quarter_seq": (day.year - 1900) * 4 + quarter - 1,
                    "d_year": day.year,
                    # TPC-DS convention: 0 = Sunday ... 6 = Saturday.
                    "d_dow": (day.weekday() + 1) % 7,
                    "d_moy": day.month,
                    "d_dom": day.day,
                    "d_qoy": quarter,
                    "d_fy_year": day.year,
                    "d_day_name": day.strftime("%A"),
                    "d_quarter_name": f"{day.year}Q{quarter}",
                    "d_holiday": "N",
                    "d_weekend": "Y" if day.weekday() >= 5 else "N",
                }
            )
            day += dt.timedelta(days=1)
            index += 1
        return rows

    def _generate_item(self) -> list[dict[str, Any]]:
        rng = self._rng("item")
        rows = []
        for index in range(1, self._count("item") + 1):
            category = rng.choice(_ITEM_CATEGORIES)
            price = round(rng.uniform(0.49, 4.99), 2)
            rows.append(
                {
                    "i_item_sk": index,
                    "i_item_id": _item_id(index),
                    "i_rec_start_date": "1997-10-27",
                    "i_item_desc": f"Synthetic item {index} in {category}",
                    "i_current_price": price,
                    "i_wholesale_cost": round(price * rng.uniform(0.4, 0.8), 2),
                    "i_brand_id": rng.randint(1_001_001, 10_016_017),
                    "i_brand": f"brand#{rng.randint(1, 10)}",
                    "i_class_id": rng.randint(1, 16),
                    "i_class": rng.choice(_ITEM_CLASSES),
                    "i_category_id": _ITEM_CATEGORIES.index(category) + 1,
                    "i_category": category,
                    "i_manufact_id": rng.randint(1, 1000),
                    "i_manufact": f"manufact#{rng.randint(1, 100)}",
                    "i_size": rng.choice(("small", "medium", "large", "N/A")),
                    "i_color": rng.choice(("azure", "beige", "coral", "khaki", "rose")),
                    "i_units": rng.choice(("Each", "Dozen", "Case", "Pound")),
                    "i_product_name": f"product{index}",
                }
            )
        return rows

    def _generate_customer_demographics(self) -> list[dict[str, Any]]:
        rows = []
        count = self._count("customer_demographics")
        rng = self._rng("customer_demographics")
        index = 0
        while len(rows) < count:
            for gender in _GENDERS:
                for marital_status in _MARITAL_STATUSES:
                    for education in _EDUCATION_LEVELS:
                        if len(rows) >= count:
                            break
                        index += 1
                        rows.append(
                            {
                                "cd_demo_sk": index,
                                "cd_gender": gender,
                                "cd_marital_status": marital_status,
                                "cd_education_status": education,
                                "cd_purchase_estimate": rng.choice((500, 1000, 5000, 10000)),
                                "cd_credit_rating": rng.choice(_CREDIT_RATINGS),
                                "cd_dep_count": rng.randint(0, 6),
                                "cd_dep_employed_count": rng.randint(0, 6),
                                "cd_dep_college_count": rng.randint(0, 6),
                            }
                        )
        return rows

    def _generate_household_demographics(self) -> list[dict[str, Any]]:
        rng = self._rng("household_demographics")
        rows = []
        for index in range(1, self._count("household_demographics") + 1):
            rows.append(
                {
                    "hd_demo_sk": index,
                    "hd_income_band_sk": (index - 1) % 20 + 1,
                    "hd_buy_potential": rng.choice(_BUY_POTENTIALS),
                    "hd_dep_count": (index - 1) % 10,
                    "hd_vehicle_count": (index - 1) % 6 - 1,
                }
            )
        return rows

    def _generate_income_band(self) -> list[dict[str, Any]]:
        rows = []
        for index in range(1, self._count("income_band") + 1):
            rows.append(
                {
                    "ib_income_band_sk": index,
                    "ib_lower_bound": (index - 1) * 10_000,
                    "ib_upper_bound": index * 10_000,
                }
            )
        return rows

    def _generate_promotion(self) -> list[dict[str, Any]]:
        rng = self._rng("promotion")
        rows = []
        for index in range(1, self._count("promotion") + 1):
            rows.append(
                {
                    "p_promo_sk": index,
                    "p_promo_id": f"AAAAAAAA{index:08d}",
                    "p_start_date_sk": 2_450_100 + rng.randint(0, 2000),
                    "p_end_date_sk": 2_450_100 + rng.randint(2000, 4000),
                    "p_item_sk": rng.randint(1, max(1, self._count("item"))),
                    "p_cost": 1000.0,
                    "p_response_target": 1,
                    "p_promo_name": rng.choice(("ought", "able", "pri", "ese", "anti")),
                    "p_channel_dmail": rng.choice(_YES_NO),
                    "p_channel_email": "N" if rng.random() < 0.85 else "Y",
                    "p_channel_catalog": rng.choice(_YES_NO),
                    "p_channel_tv": rng.choice(_YES_NO),
                    "p_channel_radio": rng.choice(_YES_NO),
                    "p_channel_press": rng.choice(_YES_NO),
                    "p_channel_event": "N" if rng.random() < 0.85 else "Y",
                    "p_channel_demo": rng.choice(_YES_NO),
                    "p_purpose": "Unknown",
                    "p_discount_active": rng.choice(_YES_NO),
                }
            )
        return rows

    def _generate_store(self) -> list[dict[str, Any]]:
        rng = self._rng("store")
        rows = []
        for index in range(1, self._count("store") + 1):
            # Roughly half of the stores sit in the two Q46 cities.
            city = _CITIES[index % 4] if index % 2 else rng.choice(_CITIES)
            rows.append(
                {
                    "s_store_sk": index,
                    "s_store_id": f"AAAAAAAA{index:08d}",
                    "s_store_name": rng.choice(("ought", "able", "pri", "ese", "anti", "cally")),
                    "s_number_employees": rng.randint(200, 300),
                    "s_floor_space": rng.randint(5_000_000, 9_999_999),
                    "s_hours": rng.choice(("8AM-4PM", "8AM-8AM", "8AM-12AM")),
                    "s_manager": f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}",
                    "s_market_id": rng.randint(1, 10),
                    "s_company_id": 1,
                    "s_company_name": "Unknown",
                    "s_street_number": str(rng.randint(1, 999)),
                    "s_street_name": rng.choice(_STREET_NAMES),
                    "s_street_type": rng.choice(_STREET_TYPES),
                    "s_suite_number": f"Suite {rng.randint(0, 450)}",
                    "s_city": city,
                    "s_county": rng.choice(_COUNTIES),
                    "s_state": rng.choice(_STATES),
                    "s_zip": f"{rng.randint(10000, 99999)}",
                    "s_country": "United States",
                    "s_tax_precentage": round(rng.uniform(0.0, 0.11), 2),
                }
            )
        return rows

    def _generate_customer_address(self) -> list[dict[str, Any]]:
        rng = self._rng("customer_address")
        rows = []
        for index in range(1, self._count("customer_address") + 1):
            rows.append(
                {
                    "ca_address_sk": index,
                    "ca_address_id": f"AAAAAAAA{index:08d}",
                    "ca_street_number": str(rng.randint(1, 999)),
                    "ca_street_name": rng.choice(_STREET_NAMES),
                    "ca_street_type": rng.choice(_STREET_TYPES),
                    "ca_suite_number": f"Suite {rng.randint(0, 450)}",
                    "ca_city": rng.choice(_CITIES),
                    "ca_county": rng.choice(_COUNTIES),
                    "ca_state": rng.choice(_STATES),
                    "ca_zip": f"{rng.randint(10000, 99999)}",
                    "ca_country": "United States",
                    "ca_gmt_offset": rng.choice((-5.0, -6.0, -7.0, -8.0)),
                    "ca_location_type": rng.choice(("apartment", "condo", "single family")),
                }
            )
        return rows

    def _generate_customer(self) -> list[dict[str, Any]]:
        rng = self._rng("customer")
        cdemo_count = self._count("customer_demographics")
        hdemo_count = self._count("household_demographics")
        address_count = self._count("customer_address")
        rows = []
        for index in range(1, self._count("customer") + 1):
            rows.append(
                {
                    "c_customer_sk": index,
                    "c_customer_id": f"AAAAAAAA{index:08d}",
                    "c_current_cdemo_sk": rng.randint(1, cdemo_count),
                    "c_current_hdemo_sk": rng.randint(1, hdemo_count),
                    "c_current_addr_sk": rng.randint(1, address_count),
                    "c_first_shipto_date_sk": 2_450_815 + rng.randint(0, 2000),
                    "c_first_sales_date_sk": 2_450_815 + rng.randint(0, 2000),
                    "c_salutation": rng.choice(("Mr.", "Ms.", "Dr.", "Mrs.", "Sir")),
                    "c_first_name": rng.choice(_FIRST_NAMES),
                    "c_last_name": rng.choice(_LAST_NAMES),
                    "c_preferred_cust_flag": rng.choice(_YES_NO),
                    "c_birth_day": rng.randint(1, 28),
                    "c_birth_month": rng.randint(1, 12),
                    "c_birth_year": rng.randint(1930, 1995),
                    "c_birth_country": "UNITED STATES",
                    "c_email_address": f"customer{index}@example.com",
                }
            )
        return rows

    def _generate_warehouse(self) -> list[dict[str, Any]]:
        rng = self._rng("warehouse")
        rows = []
        for index in range(1, self._count("warehouse") + 1):
            rows.append(
                {
                    "w_warehouse_sk": index,
                    "w_warehouse_id": f"AAAAAAAA{index:08d}",
                    "w_warehouse_name": _WAREHOUSE_NAMES[(index - 1) % len(_WAREHOUSE_NAMES)],
                    "w_warehouse_sq_ft": rng.randint(50_000, 999_999),
                    "w_street_number": str(rng.randint(1, 999)),
                    "w_street_name": rng.choice(_STREET_NAMES),
                    "w_city": rng.choice(_CITIES),
                    "w_county": rng.choice(_COUNTIES),
                    "w_state": rng.choice(_STATES),
                    "w_zip": f"{rng.randint(10000, 99999)}",
                    "w_country": "United States",
                }
            )
        return rows

    def _generate_time_dim(self) -> list[dict[str, Any]]:
        rows = []
        for index in range(self._count("time_dim")):
            hour, minute = divmod(index, 60)
            rows.append(
                {
                    "t_time_sk": index,
                    "t_time_id": f"AAAAAAAA{index:08d}",
                    "t_time": index * 60,
                    "t_hour": hour % 24,
                    "t_minute": minute,
                    "t_second": 0,
                    "t_am_pm": "AM" if hour % 24 < 12 else "PM",
                    "t_shift": ("first", "second", "third")[(hour % 24) // 8],
                }
            )
        return rows

    def _generate_reason(self) -> list[dict[str, Any]]:
        reasons = (
            "Package was damaged", "Stopped working", "Did not fit",
            "Not the product that was ordred", "Parts missing", "Does not work with a product",
            "Gift exchange", "Did not like the color", "Did not like the model",
            "Did not like the make", "Found a better price", "Found a better extended warranty",
            "No service location in my area", "unauthoized purchase", "duplicate purchase",
            "its is a boy", "it is a girl", "reason 18", "reason 19", "reason 20",
        )
        rows = []
        for index in range(1, self._count("reason") + 1):
            rows.append(
                {
                    "r_reason_sk": index,
                    "r_reason_id": f"AAAAAAAA{index:08d}",
                    "r_reason_desc": reasons[(index - 1) % len(reasons)],
                }
            )
        return rows

    # ------------------------------------------------------------- fact tables

    def _generate_store_sales(self) -> list[dict[str, Any]]:
        rng = self._rng("store_sales")
        dates = self._date_rows()
        date_keys = [row["d_date_sk"] for row in dates]
        item_count = self._count("item")
        customer_count = self._count("customer")
        cdemo_count = self._count("customer_demographics")
        hdemo_count = self._count("household_demographics")
        address_count = self._count("customer_address")
        store_count = self._count("store")
        promo_count = self._count("promotion")

        rows: list[dict[str, Any]] = []
        ticket_number = 0
        target = self._count("store_sales")
        while len(rows) < target:
            ticket_number += 1
            items_on_ticket = min(rng.randint(1, 3), target - len(rows))
            customer = rng.randint(1, customer_count)
            address = rng.randint(1, address_count)
            hdemo = rng.randint(1, hdemo_count)
            cdemo = rng.randint(1, cdemo_count)
            store = rng.randint(1, store_count)
            sold_date = rng.choice(date_keys)
            chosen_items = rng.sample(range(1, item_count + 1), k=min(items_on_ticket, item_count))
            for item_sk in chosen_items:
                quantity = rng.randint(1, 100)
                list_price = round(rng.uniform(1.0, 200.0), 2)
                sales_price = round(list_price * rng.uniform(0.2, 1.0), 2)
                coupon_amt = round(sales_price * quantity * rng.uniform(0.0, 0.3), 2)
                wholesale = round(list_price * rng.uniform(0.3, 0.7), 2)
                net_paid = round(sales_price * quantity - coupon_amt, 2)
                rows.append(
                    {
                        "ss_sold_date_sk": sold_date,
                        "ss_sold_time_sk": rng.randint(0, max(1, self._count("time_dim") - 1)),
                        "ss_item_sk": item_sk,
                        "ss_customer_sk": customer,
                        "ss_cdemo_sk": cdemo,
                        "ss_hdemo_sk": hdemo,
                        "ss_addr_sk": address,
                        "ss_store_sk": store,
                        "ss_promo_sk": rng.randint(1, promo_count),
                        "ss_ticket_number": ticket_number,
                        "ss_quantity": quantity,
                        "ss_wholesale_cost": wholesale,
                        "ss_list_price": list_price,
                        "ss_sales_price": sales_price,
                        "ss_ext_discount_amt": round(coupon_amt * 0.5, 2),
                        "ss_ext_sales_price": round(sales_price * quantity, 2),
                        "ss_coupon_amt": coupon_amt,
                        "ss_net_paid": net_paid,
                        "ss_net_profit": round(net_paid - wholesale * quantity, 2),
                    }
                )
        return rows

    def _generate_store_returns(self) -> list[dict[str, Any]]:
        rng = self._rng("store_returns")
        sales = self.generate_table("store_sales")
        dates = self._date_rows()
        date_keys = [row["d_date_sk"] for row in dates]
        min_date, max_date = date_keys[0], date_keys[-1]
        target = self._count("store_returns")
        candidates = list(range(len(sales)))
        rng.shuffle(candidates)
        chosen = sorted(candidates[: min(target, len(sales))])

        rows = []
        for position in chosen:
            sale = sales[position]
            lag_days = rng.randint(5, 150)
            returned_date = min(max_date, max(min_date, sale["ss_sold_date_sk"] + lag_days))
            quantity = rng.randint(1, sale["ss_quantity"])
            return_amt = round(sale["ss_sales_price"] * quantity, 2)
            rows.append(
                {
                    "sr_returned_date_sk": returned_date,
                    "sr_return_time_sk": rng.randint(0, max(1, self._count("time_dim") - 1)),
                    "sr_item_sk": sale["ss_item_sk"],
                    "sr_customer_sk": sale["ss_customer_sk"],
                    "sr_cdemo_sk": sale["ss_cdemo_sk"],
                    "sr_hdemo_sk": sale["ss_hdemo_sk"],
                    "sr_addr_sk": sale["ss_addr_sk"],
                    "sr_store_sk": sale["ss_store_sk"],
                    "sr_reason_sk": rng.randint(1, self._count("reason")),
                    "sr_ticket_number": sale["ss_ticket_number"],
                    "sr_return_quantity": quantity,
                    "sr_return_amt": return_amt,
                    "sr_return_tax": round(return_amt * 0.08, 2),
                    "sr_fee": round(rng.uniform(0.5, 100.0), 2),
                    "sr_return_ship_cost": round(rng.uniform(0.0, 50.0), 2),
                    "sr_refunded_cash": round(return_amt * rng.uniform(0.5, 1.0), 2),
                    "sr_net_loss": round(rng.uniform(0.5, 500.0), 2),
                }
            )
        return rows

    def _generate_inventory(self) -> list[dict[str, Any]]:
        rng = self._rng("inventory")
        dates = self._date_rows()
        # Inventory snapshots are weekly in TPC-DS.
        weekly_dates = [row["d_date_sk"] for row in dates if row["d_dow"] == 0]
        item_count = self._count("item")
        warehouse_count = self._count("warehouse")
        target = self._count("inventory")

        rows = []
        index = 0
        while len(rows) < target:
            date_sk = weekly_dates[index % len(weekly_dates)]
            item_sk = (index // len(weekly_dates)) % item_count + 1
            warehouse_sk = (index // (len(weekly_dates) * item_count)) % warehouse_count + 1
            rows.append(
                {
                    "inv_date_sk": date_sk,
                    "inv_item_sk": item_sk,
                    "inv_warehouse_sk": warehouse_sk,
                    "inv_quantity_on_hand": rng.randint(0, 1000),
                }
            )
            index += 1
        return rows

    # ------------------------------------------------ generic small/fact tables

    def _generate_generic(self, table_name: str) -> list[dict[str, Any]]:
        """Plausible rows for tables that only matter for load benchmarks."""
        rng = self._rng(table_name)
        schema = table_schema(table_name)
        dates = [row["d_date_sk"] for row in self._date_rows()]
        item_count = max(1, self._count("item"))
        customer_count = max(1, self._count("customer"))
        rows = []
        for index in range(1, self._count(table_name) + 1):
            row: dict[str, Any] = {}
            for column in schema.columns:
                name = column.name
                if name == schema.primary_key:
                    row[name] = index
                elif name.endswith("_date_sk"):
                    row[name] = rng.choice(dates)
                elif name.endswith("_item_sk"):
                    row[name] = rng.randint(1, item_count)
                elif name.endswith("_customer_sk") or name.endswith("customer_sk"):
                    row[name] = rng.randint(1, customer_count)
                elif column.type == "identifier":
                    row[name] = index
                elif column.type == "integer":
                    row[name] = rng.randint(1, 1000)
                elif column.type == "decimal":
                    row[name] = round(rng.uniform(1.0, 500.0), 2)
                elif column.type == "date":
                    row[name] = "2001-01-01"
                else:
                    row[name] = f"{table_name}_{name}_{index % 17}"
            rows.append(row)
        return rows
