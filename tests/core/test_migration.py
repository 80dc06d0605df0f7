"""Tests for the data-migration algorithm (Figure 4.3)."""

from __future__ import annotations

import pytest

from repro.core.migration import migrate_generated_dataset, migrate_rows, row_to_document
from repro.core.experiments import tiny_profile
from repro.documentstore import DocumentStoreClient
from repro.tpcds import TPCDSGenerator
from repro.tpcds.schema import QUERY_TABLES, TPCDS_TABLES, ColumnType, table_schema

#: The Python type a stored value of each schema column type has.
STORED_TYPE = {
    ColumnType.IDENTIFIER: int,
    ColumnType.INTEGER: int,
    ColumnType.DECIMAL: float,
    ColumnType.STRING: str,
    ColumnType.DATE: str,
}


class TestRowToDocument:
    def test_columns_become_keys(self):
        row = {"ca_address_sk": 1, "ca_city": "Midway"}
        assert row_to_document(row) == row

    def test_null_columns_are_omitted(self):
        """Section 4.1.2: null column values produce no key/value pair."""
        row = {"ca_address_sk": 1, "ca_suite_number": None, "ca_city": "Midway"}
        document = row_to_document(row)
        assert "ca_suite_number" not in document
        assert document["ca_address_sk"] == 1

    def test_empty_row_gives_empty_document(self):
        assert row_to_document({"a": None}) == {}


class TestMigrateRows:
    def test_inserts_every_row(self, standalone_db):
        collection = standalone_db["scratch_rows"]
        result = migrate_rows(collection, [{"k": i} for i in range(25)], batch_size=10)
        assert result.documents_inserted == 25
        assert collection.count_documents({}) == 25
        collection.drop()

    def test_reports_a_duration(self, standalone_db):
        collection = standalone_db["scratch_rows2"]
        result = migrate_rows(collection, [{"k": i} for i in range(10)])
        assert result.seconds >= 0
        collection.drop()


class TestMigrateGeneratedDataset:
    def test_creates_one_collection_per_table(self, tiny_generator):
        client = DocumentStoreClient()
        database = client["Dataset_tiny"]
        report = migrate_generated_dataset(database, tiny_generator, tables=QUERY_TABLES)
        assert set(report.results) == set(QUERY_TABLES)
        assert database["store_sales"].count_documents({}) == report.results[
            "store_sales"
        ].documents_inserted

    def test_report_totals(self, tiny_generator):
        client = DocumentStoreClient()
        report = migrate_generated_dataset(
            client["d"], tiny_generator, tables=("store", "warehouse")
        )
        assert report.total_documents == 12 + 5
        assert report.total_seconds > 0

    def test_document_count_matches_generator(self, standalone_db, tiny_generator):
        for table in ("store_sales", "inventory", "item"):
            assert standalone_db[table].count_documents({}) == len(
                tiny_generator.generate_table(table)
            )
        stored = standalone_db["item"].find_one({"i_item_sk": 1})
        assert isinstance(stored["i_item_sk"], int)
        assert isinstance(stored["i_current_price"], float)

    @pytest.mark.parametrize("table", sorted(TPCDS_TABLES))
    def test_every_table_stores_its_rows_typed_by_the_schema(self, tiny_generator, table):
        """Table 4.3 loads all 24 tables; each stores one typed document per row."""
        database = DocumentStoreClient()["load"]
        report = migrate_generated_dataset(database, tiny_generator, tables=(table,))
        rows = tiny_generator.generate_table(table)
        stored = list(database[table].find({}, {"_id": 0}))
        assert report.results[table].documents_inserted == len(rows)
        assert stored == [row_to_document(row) for row in rows]
        for document in stored:
            for column in table_schema(table).columns:
                if column.name in document:
                    assert type(document[column.name]) is STORED_TYPE[column.type]

    def test_loading_through_sharded_router(self, sharded_env, tiny_generator):
        cluster, routed = sharded_env
        expected = len(tiny_generator.generate_table("store_sales"))
        assert routed["store_sales"].count_documents({}) == expected
        distribution = cluster.data_distribution(
            "Dataset_1GB", "store_sales"
        )
        assert sum(distribution.values()) == expected
        # hashed shard key spreads the fact across every shard
        assert all(count > 0 for count in distribution.values())

    def test_load_report_tracks_ratio_between_scales(self):
        """Observation (ii) of Section 4.3: load time scales with row count."""
        small = TPCDSGenerator(tiny_profile(1.0 / 20_000.0), seed=1)
        large = TPCDSGenerator(tiny_profile(1.0 / 5_000.0), seed=1)
        client = DocumentStoreClient()
        small_report = migrate_generated_dataset(client["s"], small, tables=("store_sales",))
        large_report = migrate_generated_dataset(client["l"], large, tables=("store_sales",))
        small_result = small_report.results["store_sales"]
        large_result = large_report.results["store_sales"]
        row_ratio = large_result.documents_inserted / small_result.documents_inserted
        assert row_ratio > 2
