"""Tests for collection CRUD, cursors, and the query planner integration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.documentstore import (
    Collection,
    DocumentStoreClient,
    DocumentTooLargeError,
    DuplicateKeyError,
    InvalidUpdateError,
    OperationFailure,
)
from repro.documentstore.update import is_update_document


@pytest.fixture()
def people():
    collection = Collection(None, "people")
    collection.insert_many(
        [
            {"name": "earl", "age": 36, "city": "Midway", "tags": ["a", "b"]},
            {"name": "anna", "age": 28, "city": "Fairview"},
            {"name": "james", "age": 51, "city": "Midway"},
            {"name": "maria", "age": 28, "city": "Salem"},
        ]
    )
    return collection


class TestInsert:
    def test_insert_one_assigns_objectid(self):
        collection = Collection(None, "c")
        result = collection.insert_one({"a": 1})
        assert result.inserted_id is not None
        assert collection.count_documents({}) == 1

    def test_insert_preserves_explicit_id(self):
        collection = Collection(None, "c")
        collection.insert_one({"_id": 7, "a": 1})
        assert collection.find_one({"_id": 7})["a"] == 1

    def test_insert_many_returns_all_ids(self):
        collection = Collection(None, "c")
        result = collection.insert_many([{"i": i} for i in range(5)])
        assert len(result.inserted_ids) == 5

    def test_duplicate_id_rejected(self):
        collection = Collection(None, "c")
        collection.insert_one({"_id": 1})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": 1})

    def test_inserted_document_is_copied(self):
        collection = Collection(None, "c")
        source = {"nested": {"v": 1}}
        collection.insert_one(source)
        source["nested"]["v"] = 99
        assert collection.find_one({})["nested"]["v"] == 1

    def test_oversized_document_rejected(self):
        collection = Collection(None, "c")
        with pytest.raises(DocumentTooLargeError):
            collection.insert_one({"payload": "x" * (17 * 1024 * 1024)})

    def test_invalid_collection_name_rejected(self):
        with pytest.raises(OperationFailure):
            Collection(None, "")


class TestFind:
    def test_find_all(self, people):
        assert len(people.find({}).to_list()) == 4

    def test_find_with_filter(self, people):
        assert {doc["name"] for doc in people.find({"city": "Midway"})} == {"earl", "james"}

    def test_find_one_returns_none_when_missing(self, people):
        assert people.find_one({"name": "nobody"}) is None

    def test_cursor_sort_skip_limit(self, people):
        names = [doc["name"] for doc in people.find({}).sort("age", 1).skip(1).limit(2)]
        assert names == ["maria", "earl"] or names == ["anna", "earl"]

    def test_cursor_sort_descending(self, people):
        ages = [doc["age"] for doc in people.find({}).sort("age", -1)]
        assert ages == sorted(ages, reverse=True)

    def test_cursor_has_next_protocol(self, people):
        cursor = people.find({"city": "Midway"})
        seen = []
        while cursor.alive:
            seen.append(cursor.next()["name"])
        assert len(seen) == 2

    def test_cursor_cannot_be_modified_after_iteration(self, people):
        cursor = people.find({})
        list(cursor)
        with pytest.raises(OperationFailure):
            cursor.limit(1)

    def test_projection_inclusion(self, people):
        document = people.find_one({"name": "earl"}, {"name": 1, "_id": 0})
        assert document == {"name": "earl"}

    def test_projection_exclusion(self, people):
        document = people.find_one({"name": "earl"}, {"tags": 0, "_id": 0})
        assert "tags" not in document and "age" in document

    def test_returned_documents_are_copies(self, people):
        document = people.find_one({"name": "earl"})
        document["age"] = 999
        assert people.find_one({"name": "earl"})["age"] == 36

    def test_count_documents(self, people):
        assert people.count_documents({"age": 28}) == 2
        assert people.count_documents({}) == 4

    def test_distinct(self, people):
        assert sorted(people.distinct("city")) == ["Fairview", "Midway", "Salem"]

    def test_distinct_unwinds_arrays(self, people):
        assert sorted(people.distinct("tags")) == ["a", "b"]


class TestPlannerIntegration:
    def test_collscan_without_index(self, people):
        plan = people.explain({"age": 36})["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "COLLSCAN"

    def test_ixscan_with_index(self, people):
        people.create_index("age")
        plan = people.explain({"age": 36})["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "IXSCAN"
        assert plan["indexName"] == "age_1"

    def test_index_and_collscan_return_same_results(self, people):
        without_index = {doc["name"] for doc in people.find({"age": {"$gte": 30}})}
        people.create_index("age")
        with_index = {doc["name"] for doc in people.find({"age": {"$gte": 30}})}
        assert with_index == without_index

    def test_compound_index_prefix_used(self, people):
        people.create_index([("city", 1), ("age", 1)])
        plan = people.explain({"city": "Midway"})["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "IXSCAN"

    def test_or_query_falls_back_to_collscan(self, people):
        people.create_index("age")
        plan = people.explain({"$or": [{"age": 36}, {"city": "Salem"}]})
        assert plan["queryPlanner"]["winningPlan"]["stage"] == "COLLSCAN"

    def test_index_information_lists_id_index(self, people):
        assert "_id_" in people.index_information()

    def test_drop_index(self, people):
        name = people.create_index("age")
        people.drop_index(name)
        assert name not in people.index_information()

    def test_cannot_drop_id_index(self, people):
        with pytest.raises(OperationFailure):
            people.drop_index("_id_")


class TestUpdateAndDelete:
    def test_update_one_modifies_first_match(self, people):
        result = people.update_one({"age": 28}, {"$set": {"flag": True}})
        assert result.matched_count == 1
        assert people.count_documents({"flag": True}) == 1

    def test_update_many_modifies_all_matches(self, people):
        result = people.update_many({"age": 28}, {"$set": {"flag": True}})
        assert result.modified_count == 2

    def test_update_maintains_indexes(self, people):
        people.create_index("age")
        people.update_many({"name": "earl"}, {"$set": {"age": 99}})
        assert people.find_one({"age": 99})["name"] == "earl"
        assert people.explain({"age": 99})["queryPlanner"]["winningPlan"]["stage"] == "IXSCAN"

    def test_upsert_inserts_when_no_match(self, people):
        result = people.update_one({"name": "newbie"}, {"$set": {"age": 1}}, upsert=True)
        assert result.upserted_id is not None
        assert people.find_one({"name": "newbie"})["age"] == 1

    def test_update_cannot_change_id(self, people):
        with pytest.raises(OperationFailure):
            people.update_one({"name": "earl"}, {"$set": {"_id": 123}})

    def test_replace_one(self, people):
        people.replace_one({"name": "earl"}, {"name": "earl", "replaced": True})
        document = people.find_one({"name": "earl"})
        assert document["replaced"] is True
        assert "age" not in document

    def test_update_many_requires_operators(self, people):
        with pytest.raises(OperationFailure):
            people.update_many({"name": "earl"}, {"plain": "replacement"})

    @pytest.fixture()
    def classifications(self, monkeypatch):
        """Every ``is_update_document`` call, whichever module makes it."""
        from repro.documentstore import collection as collection_module
        from repro.documentstore import update as update_module

        seen = []

        def counting(update):
            seen.append(update)
            return is_update_document(update)

        monkeypatch.setattr(collection_module, "is_update_document", counting)
        monkeypatch.setattr(update_module, "is_update_document", counting)
        return seen

    def test_an_update_is_classified_once_however_many_documents_match(
        self, people, classifications
    ):
        assert people.update_many({"age": {"$gt": 0}}, {"$set": {"seen": 1}}).modified_count == 4
        assert people.update_one({"age": 28}, {"$inc": {"age": 1}}).modified_count == 1
        assert people.replace_one({"name": "earl"}, {"name": "earl"}).modified_count == 1
        assert len(classifications) == 3

    def test_mixed_operator_and_field_update_raises_exactly_once(self, people, classifications):
        mixed = {"$set": {"age": 1}, "city": "Salem"}
        with pytest.raises(InvalidUpdateError):
            people.update_many({"age": 28}, mixed)
        assert classifications == [mixed]
        assert people.count_documents({"city": "Salem"}) == 1  # nothing was applied
        with pytest.raises(InvalidUpdateError):
            people.update_one({"age": 28}, mixed)
        with pytest.raises(InvalidUpdateError):
            people.replace_one({"age": 28}, mixed)
        assert len(classifications) == 3

    def test_delete_one(self, people):
        assert people.delete_one({"age": 28}).deleted_count == 1
        assert people.count_documents({"age": 28}) == 1

    def test_delete_many(self, people):
        assert people.delete_many({"age": 28}).deleted_count == 2

    def test_delete_maintains_indexes(self, people):
        people.create_index("age")
        people.delete_many({"city": "Midway"})
        assert people.count_documents({"age": 36}) == 0

    def test_drop_empties_collection(self, people):
        people.create_index("age")
        people.drop()
        assert people.count_documents({}) == 0
        assert list(people.index_information()) == ["_id_"]


class TestStats:
    def test_stats_counts_and_sizes(self, people):
        stats = people.stats()
        assert stats.count == 4
        assert stats.size_bytes > 0
        assert stats.as_dict()["count"] == 4

    def test_operation_counters_track_activity(self, people):
        people.find({"age": 36}).to_list()
        assert people.operation_counters["queries"] >= 1
        assert people.operation_counters["inserts"] == 4


class TestDatabaseAndClient:
    def test_database_creates_collections_lazily(self):
        client = DocumentStoreClient()
        database = client["db1"]
        database["c1"].insert_one({"a": 1})
        assert database.list_collection_names() == ["c1"]

    def test_create_collection_twice_fails(self):
        client = DocumentStoreClient()
        database = client["db1"]
        database.create_collection("c1")
        from repro.documentstore import CollectionInvalid

        with pytest.raises(CollectionInvalid):
            database.create_collection("c1")

    def test_drop_collection(self):
        client = DocumentStoreClient()
        database = client["db1"]
        database["c1"].insert_one({"a": 1})
        database.drop_collection("c1")
        assert database.list_collection_names() == []

    def test_database_stats_aggregate_collections(self):
        client = DocumentStoreClient()
        database = client["db1"]
        database["c1"].insert_many([{"a": 1}, {"a": 2}])
        stats = database.stats()
        assert stats["objects"] == 2
        assert stats["dataSize"] > 0

    def test_client_lists_and_drops_databases(self):
        client = DocumentStoreClient()
        client["db1"]["c"].insert_one({})
        client["db2"]["c"].insert_one({})
        assert client.list_database_names() == ["db1", "db2"]
        client.drop_database("db1")
        assert client["db1"]["c"].count_documents({}) == 0

    def test_attribute_access(self):
        client = DocumentStoreClient()
        client.analytics.events.insert_one({"type": "click"})
        assert client["analytics"]["events"].count_documents({}) == 1

    def test_server_info(self):
        assert "version" in DocumentStoreClient().server_info()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries({"k": st.integers(0, 20), "v": st.integers(-5, 5)}),
        min_size=1,
        max_size=40,
    ),
    st.integers(0, 20),
)
def test_find_agrees_with_python_filter(rows, needle):
    """Property: collection filtering matches an equivalent list comprehension."""
    collection = Collection(None, "props")
    collection.insert_many(rows)
    expected = sorted(row["v"] for row in rows if row["k"] == needle)
    actual = sorted(doc["v"] for doc in collection.find({"k": needle}))
    assert actual == expected


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries({"k": st.integers(0, 10), "v": st.integers(-5, 5)}),
        min_size=1,
        max_size=40,
    )
)
def test_update_many_touches_exactly_matching_documents(rows):
    """Property: update_many modifies exactly the matching documents."""
    collection = Collection(None, "props")
    collection.insert_many(rows)
    expected_matches = sum(1 for row in rows if row["k"] >= 5)
    result = collection.update_many({"k": {"$gte": 5}}, {"$set": {"touched": True}})
    assert result.matched_count == expected_matches
    assert collection.count_documents({"touched": True}) == expected_matches


# -- stored documents are immutable and shared (README, collection.py) -------------


def scribble(value):
    """Write into every container reachable from *value*."""
    if isinstance(value, dict):
        for nested in list(value.values()):
            scribble(nested)
        value["scribbled"] = True
    elif isinstance(value, list):
        for nested in value:
            scribble(nested)
        value.append("scribbled")


class TestStoredDocumentsAreImmutableAndShared:
    @pytest.fixture()
    def embedded(self):
        """Three facts with the same dimension document embedded (Figure 4.7)."""
        collection = Collection(None, "facts")
        collection.insert_many(
            [{"_id": key, "g": key % 2, "fk": 7, "keep": {"deep": [1, 2]}} for key in range(3)]
        )
        self.item = {"sk": 7, "tags": ["a"], "brand": {"name": "x"}}
        collection.update_many({"fk": 7}, {"$set": {"fk": self.item}})
        return collection

    def test_an_update_copies_the_spine_and_shares_the_rest(self, embedded):
        stored = list(embedded._documents.values())
        assert stored[0]["fk"] is stored[1]["fk"] is stored[2]["fk"]
        assert stored[0]["fk"] is not self.item and stored[0]["fk"] == self.item
        embedded.update_one({"_id": 0}, {"$set": {"fk.brand.name": "y"}, "$push": {"fk.tags": "b"}})
        updated = next(doc for doc in embedded._documents.values() if doc["_id"] == 0)
        assert updated["keep"] is stored[0]["keep"]  # untouched: shared with the old version
        assert updated["fk"]["brand"] == {"name": "y"} and updated["fk"]["tags"] == ["a", "b"]
        # ... and neither the old version nor its siblings saw the write.
        assert stored[0]["fk"] == stored[1]["fk"] == self.item
        assert embedded.find_one({"_id": 1})["fk"] == self.item

    def test_no_reader_hands_out_a_stored_subtree(self, embedded):
        expected = embedded.find({}).to_list()
        readers = [
            lambda: embedded.find({}).to_list(),
            lambda: embedded.find({}, {"fk": 1, "keep": 1}).to_list(),
            lambda: embedded.find_one({"_id": 1}),
            lambda: embedded.execute_find(embedded.find({}).sort("_id", -1).limit(2).spec),
            lambda: list(embedded.all_documents()),
            lambda: embedded.distinct("fk"),
            lambda: embedded.distinct("fk.tags"),
            lambda: embedded.aggregate([{"$match": {}}]),
            lambda: embedded.aggregate([{"$sort": {"_id": -1}}, {"$limit": 2}]),
            lambda: embedded.aggregate([{"$group": {"_id": "$g", "all": {"$push": "$fk"}}}]),
            lambda: embedded.aggregate([{"$group": {"_id": "$keep", "one": {"$first": "$fk"}}}]),
            lambda: embedded.aggregate([{"$addFields": {"again": "$fk.brand"}}]),
            lambda: embedded.aggregate([{"$unwind": "$fk.tags"}]),
        ]
        for position, read in enumerate(readers):
            scribble(read())
            assert embedded.find({}).to_list() == expected, position
