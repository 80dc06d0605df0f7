"""Tests for the denormalization / EmbedDocuments algorithms (Figs. 4.6, 4.7)."""

from __future__ import annotations

import pytest

from repro.core.denormalize import (
    INVENTORY_EMBEDDING_PLAN,
    STORE_SALES_EMBEDDING_PLAN,
    create_denormalized_collection,
    embed_documents,
)
from repro.core.queryspec import DimensionJoin
from repro.documentstore import DocumentStoreClient


@pytest.fixture()
def book_database():
    """The publisher/book example of Section 2.1.1, as two collections."""
    client = DocumentStoreClient()
    database = client["library"]
    database["publisher"].insert_many(
        [
            {"publisher_id": 1, "publisher": "O'Reilly Media", "founded": 1978},
            {"publisher_id": 2, "publisher": "Elsevier", "founded": 1880},
        ]
    )
    database["book"].insert_many(
        [
            {"title": "MongoDB", "publisher_id": 1, "pages": 216},
            {"title": "Java in a Nutshell", "publisher_id": 1, "pages": 418},
            {"title": "Data Modeling", "publisher_id": 2, "pages": 300},
            {"title": "Orphan Book", "publisher_id": 99, "pages": 10},
        ]
    )
    return database


class TestEmbedDocuments:
    def test_foreign_key_replaced_by_dimension_document(self, book_database):
        report = embed_documents(
            book_database["book"],
            book_database["publisher"],
            fact_field="publisher_id",
            dimension_primary_key="publisher_id",
        )
        embedded = book_database["book"].find_one({"title": "MongoDB"})
        assert embedded["publisher_id"]["publisher"] == "O'Reilly Media"
        assert report.dimension_documents == 2
        assert report.fact_documents_updated == 3

    def test_embedded_document_has_no_id_field(self, book_database):
        embed_documents(
            book_database["book"],
            book_database["publisher"],
            fact_field="publisher_id",
            dimension_primary_key="publisher_id",
        )
        embedded = book_database["book"].find_one({"title": "MongoDB"})
        assert "_id" not in embedded["publisher_id"]

    def test_unreferenced_keys_leave_facts_untouched(self, book_database):
        embed_documents(
            book_database["book"],
            book_database["publisher"],
            fact_field="publisher_id",
            dimension_primary_key="publisher_id",
        )
        orphan = book_database["book"].find_one({"title": "Orphan Book"})
        assert orphan["publisher_id"] == 99

    def test_dimension_filter_restricts_embedding(self, book_database):
        embed_documents(
            book_database["book"],
            book_database["publisher"],
            fact_field="publisher_id",
            dimension_primary_key="publisher_id",
            dimension_filter={"founded": {"$gte": 1900}},
        )
        modern = book_database["book"].find_one({"title": "MongoDB"})
        older = book_database["book"].find_one({"title": "Data Modeling"})
        assert isinstance(modern["publisher_id"], dict)
        assert older["publisher_id"] == 2

    def test_dimension_collection_is_not_modified(self, book_database):
        embed_documents(
            book_database["book"],
            book_database["publisher"],
            fact_field="publisher_id",
            dimension_primary_key="publisher_id",
        )
        assert book_database["publisher"].count_documents({}) == 2
        assert book_database["publisher"].find_one({"publisher_id": 1})["founded"] == 1978


class TestCreateDenormalizedCollection:
    def test_creates_separate_target_collection(self, book_database):
        report = create_denormalized_collection(
            book_database,
            "book",
            [DimensionJoin("publisher", "publisher_id", "publisher_id")],
        )
        assert report.target_collection == "book_denormalized"
        assert book_database["book_denormalized"].count_documents({}) == 4
        # The source collection keeps its scalar foreign keys.
        assert book_database["book"].find_one({"title": "MongoDB"})["publisher_id"] == 1

    def test_report_lists_embeddings(self, book_database):
        report = create_denormalized_collection(
            book_database,
            "book",
            [DimensionJoin("publisher", "publisher_id", "publisher_id")],
        )
        assert len(report.embeddings) == 1
        assert report.embeddings[0].dimension_collection == "publisher"
        assert report.seconds > 0


class TestFactTablePlans:
    def test_store_sales_plan_covers_query_dimensions(self):
        fields = [dimension.fact_field for dimension in STORE_SALES_EMBEDDING_PLAN]
        for field in (
            "ss_sold_date_sk",
            "ss_item_sk",
            "ss_cdemo_sk",
            "ss_store_sk",
            "ss_promo_sk",
            "ss_customer_sk",
        ):
            assert field in fields
        assert "ss_customer_sk.c_current_addr_sk" in fields

    def test_inventory_plan(self):
        assert [d.collection for d in INVENTORY_EMBEDDING_PLAN] == [
            "date_dim",
            "item",
            "warehouse",
        ]


class TestDenormalizedFactCollections:
    """Structure checks on the session-scoped denormalized tiny dataset."""

    def test_denormalized_collections_exist(self, denormalized_db):
        names = denormalized_db.list_collection_names()
        for name in (
            "store_sales_denormalized",
            "store_returns_denormalized",
            "inventory_denormalized",
        ):
            assert name in names

    def test_document_counts_match_source_facts(self, denormalized_db):
        assert denormalized_db["store_sales_denormalized"].count_documents(
            {}
        ) == denormalized_db["store_sales"].count_documents({})
        assert denormalized_db["inventory_denormalized"].count_documents(
            {}
        ) == denormalized_db["inventory"].count_documents({})

    def test_foreign_keys_replaced_by_documents(self, denormalized_db):
        document = denormalized_db["store_sales_denormalized"].find_one({})
        assert isinstance(document["ss_sold_date_sk"], dict)
        assert "d_year" in document["ss_sold_date_sk"]
        assert isinstance(document["ss_item_sk"], dict)
        assert isinstance(document["ss_store_sk"], dict)

    def test_measures_stay_scalar(self, denormalized_db):
        document = denormalized_db["store_sales_denormalized"].find_one({})
        assert isinstance(document["ss_quantity"], int)
        assert isinstance(document["ss_ticket_number"], int)

    def test_nested_customer_address_embedding(self, denormalized_db):
        document = denormalized_db["store_sales_denormalized"].find_one({})
        customer = document["ss_customer_sk"]
        assert isinstance(customer, dict)
        assert isinstance(customer["c_current_addr_sk"], dict)
        assert "ca_city" in customer["c_current_addr_sk"]

    def test_matching_returns_embedded_for_query50(self, denormalized_db):
        with_return = denormalized_db["store_sales_denormalized"].find_one(
            {"ss_return": {"$exists": True}}
        )
        assert with_return is not None
        embedded_return = with_return["ss_return"]
        assert embedded_return["sr_ticket_number"] == with_return["ss_ticket_number"]
        assert embedded_return["sr_item_sk"] == with_return["ss_item_sk"]["i_item_sk"]
        assert "d_year" in embedded_return["sr_returned_date"]

    def test_denormalization_grows_document_size(self, denormalized_db):
        """Embedding repeats dimension data per fact document (Section 4.1.2)."""
        normalized_stats = denormalized_db["store_sales"].stats()
        denormalized_stats = denormalized_db["store_sales_denormalized"].stats()
        assert denormalized_stats.avg_document_size > 3 * normalized_stats.avg_document_size

    def test_inventory_denormalized_structure(self, denormalized_db):
        document = denormalized_db["inventory_denormalized"].find_one({})
        assert isinstance(document["inv_date_sk"], dict)
        assert isinstance(document["inv_item_sk"], dict)
        assert isinstance(document["inv_warehouse_sk"], dict)
        assert isinstance(document["inv_quantity_on_hand"], int)
