"""Tests for the batched write engine (bulk insert_many, bulk_load, rollback)."""

from __future__ import annotations

import pytest

from repro.documentstore import (
    Collection,
    DeleteMany,
    DeleteOne,
    DuplicateKeyError,
    UpdateMany,
    UpdateOne,
)
from repro.documentstore import collection as collection_module
from repro.documentstore.indexes import Index, IndexSpec

#: Index configurations for the bulk-vs-sequential parity matrix.
INDEX_CONFIGS = {
    "single": [("store", {})],
    "multikey": [("tags", {})],
    "hashed": [({"k": "hashed"}, {})],
    "compound": [([("store", 1), ("q", -1)], {})],
    "unique": [("sk", {"unique": True})],
    "mixed": [
        ("store", {}),
        ("tags", {}),
        ([("store", 1), ("q", -1)], {}),
        ("sk", {"unique": True}),
        ({"k": "hashed"}, {}),
    ],
}


def sample_documents(count: int = 120) -> list[dict]:
    return [
        {
            "_id": i,
            "sk": i,
            "store": i % 7,
            "q": i % 5,
            "k": f"v{i % 11}",
            "tags": [i % 3, i % 4, {"n": i % 2}],
        }
        for i in range(count)
    ]


def build_collection(config: str) -> Collection:
    collection = Collection(None, "c")
    for keys, options in INDEX_CONFIGS[config]:
        collection.create_index(keys, **options)
    return collection


def index_state(collection: Collection) -> dict:
    """Observable per-index state: record ids in key order plus order-safety."""
    return {
        name: {
            "entries": list(index.ordered_doc_ids()),
            "order_safe": index.order_safe,
            "unsafe_count": index._order_unsafe_entries,
        }
        for name, index in collection._indexes.items()
    }


class TestBulkSequentialParity:
    @pytest.mark.parametrize("config", sorted(INDEX_CONFIGS))
    def test_same_documents_and_index_entries(self, config):
        documents = sample_documents()
        bulk = build_collection(config)
        bulk.insert_many(documents)
        sequential = build_collection(config)
        for document in documents:
            sequential.insert_one(document)

        assert bulk.find({}).to_list() == sequential.find({}).to_list()
        assert index_state(bulk) == index_state(sequential)
        assert (
            bulk.operation_counters["inserts"]
            == sequential.operation_counters["inserts"]
            == len(documents)
        )

    @pytest.mark.parametrize("config", sorted(INDEX_CONFIGS))
    def test_parity_on_presorted_and_reversed_batches(self, config):
        # Pre-sorted batches exercise the append fast path; reversed ones the merge.
        for order in (1, -1):
            documents = sample_documents()[::order]
            bulk = build_collection(config)
            bulk.insert_many(documents)
            sequential = build_collection(config)
            for document in documents:
                sequential.insert_one(document)
            assert index_state(bulk) == index_state(sequential)

    def test_incremental_batches_match_one_batch(self):
        documents = sample_documents()
        one_shot = build_collection("mixed")
        one_shot.insert_many(documents)
        incremental = build_collection("mixed")
        for start in range(0, len(documents), 17):
            incremental.insert_many(documents[start:start + 17])
        assert index_state(one_shot) == index_state(incremental)

    def test_mid_batch_unique_violation_keeps_prefix(self):
        # Ordered mode: documents before the offending one stay inserted,
        # the offender and everything after it do not.
        batch = [{"u": 1}, {"u": 2}, {"u": 3}, {"u": 2}, {"u": 4}]
        bulk = Collection(None, "b")
        bulk.create_index("u", unique=True)
        with pytest.raises(DuplicateKeyError):
            bulk.insert_many(batch)
        sequential = Collection(None, "s")
        sequential.create_index("u", unique=True)
        with pytest.raises(DuplicateKeyError):
            for document in batch:
                sequential.insert_one(document)
        assert [doc["u"] for doc in bulk.find({}).to_list()] == [1, 2, 3]
        assert len(bulk._indexes["u_1"]) == len(sequential._indexes["u_1"]) == 3
        assert (
            bulk.operation_counters["inserts"]
            == sequential.operation_counters["inserts"]
            == 3
        )

    def test_duplicate_against_existing_documents(self):
        collection = Collection(None, "c")
        collection.create_index("sk", unique=True)
        collection.insert_many([{"sk": 1}, {"sk": 2}])
        with pytest.raises(DuplicateKeyError):
            collection.insert_many([{"sk": 3}, {"sk": 2}])
        assert sorted(doc["sk"] for doc in collection.find({})) == [1, 2, 3]

    def test_duplicate_id_within_batch_rolls_back_secondaries(self):
        collection = Collection(None, "c")
        collection.create_index("a")
        with pytest.raises(DuplicateKeyError):
            collection.insert_many([{"_id": 1, "a": 1}, {"_id": 1, "a": 2}])
        assert len(collection) == 1
        assert len(collection._indexes["a_1"]) == 1


class TestInsertRollback:
    def test_secondary_unique_violation_rolls_back_all_indexes(self):
        # Regression: a DuplicateKeyError raised by the k-th secondary index
        # used to leave the document's entries in indexes 1..k-1.
        collection = Collection(None, "c")
        collection.create_index("a")
        collection.create_index("b", unique=True)
        collection.insert_one({"a": 1, "b": 9})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"a": 2, "b": 9})
        assert len(collection._indexes["a_1"]) == 1
        assert len(collection._indexes["b_1"]) == 1
        assert len(collection._id_index) == 1
        assert collection.count_documents({"a": 2}) == 0

    def test_bulk_violation_on_later_index_leaves_no_trace(self):
        collection = Collection(None, "c")
        collection.create_index("a")
        collection.create_index("u", unique=True)
        collection.insert_one({"_id": 0, "a": 0, "u": 100})
        with pytest.raises(DuplicateKeyError):
            collection.insert_many(
                [{"_id": 1, "a": 1, "u": 1}, {"_id": 2, "a": 2, "u": 100}]
            )
        # Ordered semantics: the first batch document survives, the second
        # (the offender) is fully rolled back from every index.
        assert sorted(doc["_id"] for doc in collection.find({})) == [0, 1]
        assert len(collection._indexes["a_1"]) == 2
        assert len(collection._indexes["u_1"]) == 2
        assert len(collection._id_index) == 2


class TestIndexBulkOperations:
    def test_bulk_insert_matches_sequential_inserts(self):
        documents = [(i, doc) for i, doc in enumerate(sample_documents(50))]
        bulk_index = Index(IndexSpec.from_key_specification("store"))
        bulk_index.bulk_insert(documents)
        seq_index = Index(IndexSpec.from_key_specification("store"))
        for doc_id, document in documents:
            seq_index.insert(document, doc_id)
        assert list(bulk_index.ordered_doc_ids()) == list(seq_index.ordered_doc_ids())

    def test_bulk_insert_rollback_restores_merge_and_append_paths(self):
        index = Index(IndexSpec.from_key_specification("v"))
        index.insert({"v": 5}, 1)
        before = list(index.ordered_doc_ids())
        # Append path (all keys after the existing one), then roll back.
        undo = index.bulk_insert([(2, {"v": 7}), (3, {"v": 9})])
        assert len(index) == 3
        undo.rollback()
        assert list(index.ordered_doc_ids()) == before
        # Merge path (keys interleave), then roll back.
        undo = index.bulk_insert([(4, {"v": 1}), (5, {"v": 6})])
        assert len(index) == 3
        undo.rollback()
        assert list(index.ordered_doc_ids()) == before

    def test_bulk_insert_unique_violation_leaves_index_untouched(self):
        index = Index(IndexSpec.from_key_specification("v", unique=True))
        index.insert({"v": 5}, 1)
        with pytest.raises(DuplicateKeyError):
            index.bulk_insert([(2, {"v": 4}), (3, {"v": 5})])
        assert list(index.ordered_doc_ids()) == index.prefix_lookup((5,)) == [1]

    def test_rollback_restores_order_unsafe_count(self):
        index = Index(IndexSpec.from_key_specification("tags"))
        undo = index.bulk_insert([(1, {"tags": [1, 2]})])
        assert not index.order_safe
        undo.rollback()
        assert index.order_safe

    def test_rebuild_matches_incremental_build(self):
        documents = {i: doc for i, doc in enumerate(sample_documents(40))}
        rebuilt = Index(IndexSpec.from_key_specification([("store", 1), ("q", -1)]))
        rebuilt.rebuild(documents.items())
        incremental = Index(IndexSpec.from_key_specification([("store", 1), ("q", -1)]))
        for doc_id, document in documents.items():
            incremental.insert(document, doc_id)
        assert list(rebuilt.ordered_doc_ids()) == list(incremental.ordered_doc_ids())
        assert rebuilt._order_unsafe_entries == incremental._order_unsafe_entries

    def test_rebuild_detects_unique_violation(self):
        index = Index(IndexSpec.from_key_specification("v", unique=True))
        with pytest.raises(DuplicateKeyError):
            index.rebuild([(1, {"v": 5}), (2, {"v": 5})])


class TestBulkLoad:
    def test_deferred_rebuild_produces_complete_indexes(self):
        collection = Collection(None, "c")
        collection.create_index("store")
        with collection.bulk_load():
            collection.insert_many(sample_documents(80))
            # Maintenance is deferred: the secondary index is still empty...
            assert len(collection._indexes["store_1"]) == 0
            # ...but queries remain correct (the planner ignores stale indexes).
            assert collection.count_documents({"store": 3}) == 11
            assert (
                collection.explain({"store": 3})["queryPlanner"]["winningPlan"]["stage"]
                == "COLLSCAN"
            )
        assert len(collection._indexes["store_1"]) == 80
        assert collection.count_documents({"store": 3}) == 11
        assert (
            collection.explain({"store": 3})["queryPlanner"]["winningPlan"]["stage"]
            == "IXSCAN"
        )

    def test_bulk_load_matches_plain_insert(self):
        documents = sample_documents(60)
        plain = build_collection("mixed")
        plain.insert_many(documents)
        deferred = build_collection("mixed")
        with deferred.bulk_load():
            deferred.insert_many(documents)
        assert index_state(plain) == index_state(deferred)

    def test_create_index_inside_bulk_load_is_deferred(self):
        collection = Collection(None, "c")
        with collection.bulk_load():
            collection.insert_many(sample_documents(30))
            collection.create_index("q")
            assert len(collection._indexes["q_1"]) == 0
        assert len(collection._indexes["q_1"]) == 30

    def test_create_index_defer_and_explicit_rebuild(self):
        collection = Collection(None, "c")
        collection.insert_many(sample_documents(25))
        collection.create_index("store", defer=True)
        assert len(collection._indexes["store_1"]) == 0
        # The planner must not use the pending (empty) index.
        assert (
            collection.explain({"store": 1})["queryPlanner"]["winningPlan"]["stage"]
            == "COLLSCAN"
        )
        assert collection.rebuild_indexes() == ["store_1"]
        assert len(collection._indexes["store_1"]) == 25
        assert (
            collection.explain({"store": 1})["queryPlanner"]["winningPlan"]["stage"]
            == "IXSCAN"
        )

    def test_updates_and_deletes_during_bulk_load_are_reflected(self):
        collection = Collection(None, "c")
        collection.create_index("store")
        with collection.bulk_load():
            collection.insert_many(sample_documents(40))
            collection.update_many({"store": 1}, {"$set": {"store": 100}})
            collection.delete_many({"store": 2})
        matched = collection.find({"store": 100}).to_list()
        assert len(matched) == 6
        assert collection.count_documents({"store": 2}) == 0
        # Index entries agree with the surviving documents.
        assert len(collection._indexes["store_1"]) == len(collection)

    def test_no_op_bulk_load_skips_rebuild(self):
        collection = Collection(None, "c")
        collection.create_index("store")
        collection.insert_many(sample_documents(10))
        entries_before = list(collection._indexes["store_1"].ordered_doc_ids())
        with collection.bulk_load():
            pass
        assert list(collection._indexes["store_1"].ordered_doc_ids()) == entries_before

    def test_hint_on_deferred_index_falls_back_to_collscan(self):
        collection = Collection(None, "c")
        collection.create_index("store")
        collection.insert_many(sample_documents(20))
        with collection.bulk_load():
            # The hinted index exists but is hidden while deferred: the
            # query plans without it instead of raising.
            docs = collection.find({"store": 1}, hint="store_1").to_list()
            assert len(docs) == 3
        assert (
            collection.find({"store": 1}, hint="store_1").explain()["queryPlanner"][
                "winningPlan"
            ]["stage"]
            == "IXSCAN"
        )

    def test_body_exception_not_masked_by_deferred_unique_violation(self):
        collection = Collection(None, "c")
        collection.create_index("u", unique=True)

        class LoaderError(Exception):
            pass

        with pytest.raises(LoaderError):  # not DuplicateKeyError
            with collection.bulk_load():
                collection.insert_many([{"u": 1}, {"u": 1}])  # deferred violation
                raise LoaderError("load aborted")
        # The offending index stays pending; an explicit rebuild re-raises.
        with pytest.raises(DuplicateKeyError):
            collection.rebuild_indexes()

    def test_deferred_unique_violation_raises_on_clean_exit(self):
        collection = Collection(None, "c")
        collection.create_index("u", unique=True)
        with pytest.raises(DuplicateKeyError):
            with collection.bulk_load():
                collection.insert_many([{"u": 1}, {"u": 1}])

    def test_nested_bulk_load_rebuilds_once_at_outermost_exit(self):
        collection = Collection(None, "c")
        collection.create_index("store")
        with collection.bulk_load():
            with collection.bulk_load():
                collection.insert_many(sample_documents(20))
            # Inner exit does not rebuild.
            assert len(collection._indexes["store_1"]) == 0
        assert len(collection._indexes["store_1"]) == 20


def one_at_a_time(collection: Collection, operations: list) -> dict:
    """Summed counts of *operations* issued through the public single calls."""
    counts = {"matched": 0, "modified": 0, "deleted": 0, "upserted": {}}
    for index, operation in enumerate(operations):
        if isinstance(operation, (DeleteOne, DeleteMany)):
            delete = collection.delete_one if isinstance(operation, DeleteOne) else collection.delete_many
            counts["deleted"] += delete(operation.filter).deleted_count
            continue
        update = collection.update_one if isinstance(operation, UpdateOne) else collection.update_many
        outcome = update(operation.filter, operation.update, upsert=operation.upsert)
        counts["matched"] += outcome.matched_count
        counts["modified"] += outcome.modified_count
        if outcome.upserted_id is not None:
            counts["upserted"][index] = outcome.upserted_id
    return counts


def counts_of(result) -> dict:
    return {
        "matched": result.matched_count,
        "modified": result.modified_count,
        "deleted": result.deleted_count,
        "upserted": result.upserted_ids,
    }


class TestOnePlanPerFilterShape:
    """``bulk_write`` plans a filter shape once and runs only what can match."""

    @staticmethod
    def facts() -> Collection:
        collection = Collection(None, "facts")
        collection.create_index("fk")
        collection.insert_many([{"_id": i, "fk": i % 5, "q": i % 3} for i in range(20)])
        return collection

    @staticmethod
    def count_calls(monkeypatch, *names: str) -> dict:
        calls = dict.fromkeys(names, 0)
        for name in names:
            function = getattr(collection_module, name)

            def counted(*args, _name=name, _function=function, **kwargs):
                calls[_name] += 1
                return _function(*args, **kwargs)

            monkeypatch.setattr(collection_module, name, counted)
        return calls

    def test_a_batch_that_mostly_misses_plans_once_and_compiles_only_for_candidates(
        self, monkeypatch
    ):
        # 500 keys in a scattered order; only 0..4 have documents.
        operations = [
            UpdateMany({"fk": key * 101 % 500}, {"$set": {"fk": {"d_sk": key, "name": "x"}}})
            for key in range(500)
        ]
        reference = self.facts()
        expected = one_at_a_time(reference, operations)
        collection = self.facts()
        calls = self.count_calls(monkeypatch, "plan_query", "compile_matcher")
        result = collection.bulk_write(operations, ordered=False)
        # One plan for the one shape, and one inside the public call of each
        # of the 5 operations that have candidates; ungrouped, 500 of each.
        assert calls == {"plan_query": 1 + 5, "compile_matcher": 5}
        assert counts_of(result) == expected
        assert expected["matched"] == 20
        assert collection.find({}).to_list() == reference.find({}).to_list()
        assert collection.operation_counters == reference.operation_counters

    @pytest.mark.parametrize("ordered", [True, False])
    def test_mixed_shapes_upserts_and_collection_scans_equal_the_reference(self, ordered):
        operations = [
            UpdateMany({"fk": 9}, {"$set": {"a": 1}}),  # shape (fk,), misses
            UpdateOne({"fk": 1, "q": 1}, {"$inc": {"n": 1}}),  # shape (fk, q), hits
            UpdateOne({"fk": 1, "q": 2}, {"$inc": {"n": 1}}),  # shape (fk, q), misses
            UpdateMany({"q": 2}, {"$set": {"b": 2}}),  # no index on q: a collection scan
            UpdateMany({"q": 7}, {"$set": {"b": 3}}),  # collection scan, misses
            UpdateOne({"_id": 42, "fk": 42}, {"$set": {"c": 1}}, upsert=True),  # upsert, misses
            UpdateMany({"fk": 42}, {"$set": {"d": 1}}),  # hits the upserted document
            UpdateOne({"_id": 77}, {"v": "replacement"}),  # shape (_id,), misses
            DeleteOne({"_id": 3}),
            DeleteOne({"_id": 3}),  # misses: deleted just before
            DeleteMany({"fk": 4}),
            DeleteMany({"fk": 4, "q": 1}),  # shape (fk, q), misses after the delete
            UpdateMany({"fk": 2}, {"$set": {"fk": 3}}),
            UpdateMany({"fk": 2}, {"$set": {"e": 1}}),  # misses: moved to fk 3 just before
        ]
        reference, collection = self.facts(), self.facts()
        expected = one_at_a_time(reference, operations)
        assert counts_of(collection.bulk_write(operations, ordered=ordered)) == expected
        assert expected["upserted"] == {5: 42}
        assert collection.find({}).to_list() == reference.find({}).to_list()
        assert collection.operation_counters == reference.operation_counters
