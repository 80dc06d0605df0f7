"""Tests for secondary indexes (single-field, compound, hashed, multikey)."""

from __future__ import annotations

import dataclasses
import datetime

import pytest
from hypothesis import example, given, strategies as st

from repro.documentstore import DocumentStoreClient, DuplicateKeyError, OperationFailure
from repro.documentstore.indexes import ASCENDING, DESCENDING, HASHED, Index, IndexSpec, hashed_value
from repro.documentstore.matching import values_equal


def build_index(keys, *, unique=False, documents=()):
    index = Index(IndexSpec.from_key_specification(keys, unique=unique))
    for doc_id, document in enumerate(documents, start=1):
        index.insert(document, doc_id)
    return index


class TestIndexSpec:
    def test_name_is_generated_from_keys(self):
        spec = IndexSpec.from_key_specification([("age", ASCENDING), ("name", DESCENDING)])
        assert spec.name == "age_1_name_-1"

    def test_string_shorthand(self):
        spec = IndexSpec.from_key_specification("age")
        assert spec.keys == (("age", ASCENDING),)

    def test_mapping_shorthand(self):
        spec = IndexSpec.from_key_specification({"age": 1, "name": -1})
        assert spec.fields == ("age", "name")

    def test_empty_keys_rejected(self):
        with pytest.raises(OperationFailure):
            IndexSpec(keys=())

    def test_hashed_compound_rejected(self):
        with pytest.raises(OperationFailure):
            IndexSpec(keys=(("a", HASHED), ("b", 1)))

    def test_is_hashed(self):
        assert IndexSpec.from_key_specification({"a": HASHED}).is_hashed
        assert not IndexSpec.from_key_specification("a").is_hashed

    def test_derived_attributes_are_computed_once_and_are_not_part_of_the_value(self):
        spec = IndexSpec.from_key_specification([("a", 1), ("b", -1)], unique=True)
        assert spec.fields is spec.fields == ("a", "b")
        assert spec.is_hashed is False
        # Frozen, hashable, equal by value — the derived attributes change none of it.
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.fields = ("x",)
        twin = IndexSpec(keys=(("a", 1), ("b", -1)), unique=True)
        assert twin == spec and hash(twin) == hash(spec) and len({spec, twin}) == 1
        assert spec != IndexSpec(keys=(("a", 1), ("b", -1)))
        assert "fields" not in repr(spec) and "is_hashed" not in repr(spec)
        with pytest.raises(TypeError):
            IndexSpec(keys=(("a", 1),), fields=("a",))
        # ... and they never reach describe(), so neither WAL nor snapshot carry them.
        assert set(spec.describe()) == {"name", "type", "keys", "unique"}
        assert IndexSpec.from_key_specification(spec.describe()) == spec

    def test_structured_spec(self):
        spec = IndexSpec.from_key_specification(
            {"keys": [["store", 1], ["amount", -1]], "type": "btree", "unique": True}
        )
        assert spec.keys == (("store", 1), ("amount", -1))
        assert spec.unique is True
        assert spec.describe()["type"] == "btree"
        # "type" may be left out: every index is a btree.
        assert IndexSpec.from_key_specification({"keys": ["store"]}).keys == (("store", 1),)

    def test_structured_fields_follow_the_normalized_keys(self):
        spec = IndexSpec.from_key_specification({"keys": ["a", ["b", -1]], "name": "ab"})
        assert spec.keys == (("a", ASCENDING), ("b", DESCENDING))
        assert spec.fields == ("a", "b") and spec.name == "ab" and not spec.is_hashed

    def test_unknown_structured_field_rejected(self):
        with pytest.raises(OperationFailure, match="bogus"):
            IndexSpec.from_key_specification({"keys": ["a"], "bogus": 1})

    @pytest.mark.parametrize(
        "spec",
        [
            {"keys": ["a"], "type": "btree", "dims": 4},
            {"keys": ["a"], "metric": "l2"},
            {"keys": ["a"], "nlist": 8},
            {"keys": ["embedding"], "type": "vector", "dims": 3},
            {"keys": ["a"], "type": "text"},
        ],
    )
    def test_only_btree_specs_are_accepted(self, spec):
        with pytest.raises(OperationFailure):
            IndexSpec.from_key_specification(spec)

    @pytest.mark.parametrize("direction", ["vector", "text", 2, None])
    def test_unknown_key_direction_rejected(self, direction):
        with pytest.raises(OperationFailure, match="direction"):
            IndexSpec.from_key_specification([("a", direction)])

    def test_legacy_sugar_still_works(self):
        collection = DocumentStoreClient()["db"]["items"]
        assert collection.create_index("store") == "store_1"
        assert collection.create_index([("a", 1), ("b", -1)]) == "a_1_b_-1"
        assert collection.create_index({"h": "hashed"}) == "h_hashed"


class TestPointAndPrefixLookups:
    def test_point_lookup_single_field(self):
        index = build_index("age", documents=[{"age": 30}, {"age": 25}, {"age": 30}])
        assert sorted(index.prefix_lookup((30,))) == [1, 3]
        assert index.prefix_lookup((99,)) == []

    def test_missing_field_indexes_null(self):
        index = build_index("age", documents=[{"age": 30}, {"name": "no-age"}])
        assert index.prefix_lookup((None,)) == [2]

    def test_compound_point_lookup(self):
        index = build_index(
            [("last", 1), ("first", 1)],
            documents=[
                {"last": "Smith", "first": "Anna"},
                {"last": "Smith", "first": "Earl"},
                {"last": "Jones", "first": "Anna"},
            ],
        )
        assert index.prefix_lookup(("Smith", "Earl")) == [2]

    def test_prefix_lookup_uses_leading_fields(self):
        """A compound index answers queries on its prefix (Section 2.1.2)."""
        index = build_index(
            [("last", 1), ("first", 1), ("gender", 1)],
            documents=[
                {"last": "Smith", "first": "Anna", "gender": "F"},
                {"last": "Smith", "first": "Earl", "gender": "M"},
                {"last": "Jones", "first": "Anna", "gender": "F"},
            ],
        )
        assert sorted(index.prefix_lookup(("Smith",))) == [1, 2]
        assert index.prefix_lookup(("Smith", "Anna"))[0] == 1

    def test_multikey_index_fans_out_over_arrays(self):
        index = build_index("tags", documents=[{"tags": ["red", "blue"]}, {"tags": ["green"]}])
        assert index.prefix_lookup(("red",)) == [1]
        assert index.prefix_lookup(("green",)) == [2]


class TestRangeLookups:
    def test_range_lookup_inclusive(self):
        index = build_index("price", documents=[{"price": p} for p in (0.5, 0.99, 1.2, 1.49, 2.0)])
        assert sorted(index.range_lookup(0.99, 1.49)) == [2, 3, 4]

    def test_range_lookup_exclusive_bounds(self):
        index = build_index("price", documents=[{"price": p} for p in (1, 2, 3, 4)])
        assert sorted(
            index.range_lookup(1, 4, include_lower=False, include_upper=False)
        ) == [2, 3]

    def test_open_ended_ranges(self):
        index = build_index("price", documents=[{"price": p} for p in (1, 2, 3)])
        assert sorted(index.range_lookup(lower=2)) == [2, 3]
        assert sorted(index.range_lookup(upper=2)) == [1, 2]

    def test_hashed_index_rejects_range_scan(self):
        index = build_index({"key": HASHED}, documents=[{"key": 5}])
        with pytest.raises(OperationFailure):
            index.range_lookup(1, 10)

    def test_ordered_doc_ids_follow_key_order(self):
        index = build_index("v", documents=[{"v": 3}, {"v": 1}, {"v": 2}])
        assert list(index.ordered_doc_ids()) == [2, 3, 1]
        assert list(index.ordered_doc_ids(reverse=True)) == [1, 3, 2]

    def test_counts_are_the_lookup_lengths(self):
        index = build_index(
            [("a", 1), ("b", 1)],
            documents=[{"a": a % 3, "b": b} for a in range(9) for b in (1, "x", None)],
        )
        for prefix in [(0,), (1, "x"), (2, None), (5,), (0, 1.0)]:
            assert index.count_prefix(prefix) == len(index.prefix_lookup(prefix))
        for bounds in [(0, 1), (None, 1), (1, None), (0, 0), (2, 0)]:
            assert index.count_range(*bounds) == len(index.range_lookup(*bounds))
        assert index.count_range(0, 1, include_lower=False) == 9

    def test_a_range_stays_inside_its_operands_type_bracket(self):
        index = build_index("v", documents=[{"v": v} for v in (None, False, 1, 2.5, "s", [3])])
        assert sorted(index.range_lookup(lower=0)) == [3, 4, 6]
        assert sorted(index.range_lookup(upper="z")) == [5]


class TestMaintenance:
    def test_remove_deletes_only_matching_entry(self):
        index = build_index("age", documents=[{"age": 30}, {"age": 30}])
        index.remove({"age": 30}, 1)
        assert index.prefix_lookup((30,)) == [2]

    def test_replace_moves_entry(self):
        index = build_index("age", documents=[{"age": 30}])
        index.replace({"age": 30}, {"age": 31}, 1)
        assert index.prefix_lookup((30,)) == []
        assert index.prefix_lookup((31,)) == [1]

    def test_unique_index_rejects_duplicates(self):
        index = build_index("email", unique=True, documents=[{"email": "a@x.com"}])
        with pytest.raises(DuplicateKeyError):
            index.insert({"email": "a@x.com"}, 2)

    @pytest.mark.parametrize("path", ["insert", "bulk_insert", "rebuild"])
    @pytest.mark.parametrize(
        "keys, first, second, collided",
        [
            ("tags", {"tags": ["red", "blue"]}, {"tags": ["green", "red"]}, ("red",)),
            ("s.a", {"s": [{"a": 1}, {"a": 2}]}, {"s": [{"a": 3}, {"a": 2}]}, (2,)),
            ([("a", 1), ("b", 1)], {"a": [1, 2], "b": "x"}, {"a": [3, 2], "b": "x"}, (2, "x")),
        ],
    )
    def test_unique_violation_names_the_key_that_collided(
        self, path, keys, first, second, collided
    ):
        index = Index(IndexSpec.from_key_specification(keys, unique=True))
        with pytest.raises(DuplicateKeyError) as raised:
            if path == "rebuild":
                index.rebuild([(1, first), (2, second)])
            elif path == "bulk_insert":
                index.insert(first, 1)
                index.bulk_insert([(2, second)])
            else:
                index.insert(first, 1)
                index.insert(second, 2)
        assert raised.value.key == collided

    def test_clear_empties_index(self):
        index = build_index("age", documents=[{"age": 1}, {"age": 2}])
        index.clear()
        assert len(index) == 0

    def test_equal_keys_stay_in_record_id_order_after_updates(self):
        index = build_index("age", documents=[{"age": 30}, {"age": 30}, {"age": 31}])
        index.replace({"age": 30}, {"age": 31}, 1)
        index.replace({"age": 31}, {"age": 31, "name": "x"}, 3)
        assert index.prefix_lookup((31,)) == [1, 3]


class TestHashedIndex:
    def test_hashed_point_lookup(self):
        index = build_index({"key": HASHED}, documents=[{"key": i} for i in range(20)])
        assert index.prefix_lookup((7,)) == [8]

    def test_hashed_lookup_finds_every_number_the_matcher_calls_equal(self):
        index = build_index({"key": HASHED}, documents=[{"key": v} for v in (0, -0.0, 0.0, 1, 1.0)])
        assert index.prefix_lookup((0,)) == [1, 2, 3]
        assert index.prefix_lookup((1.0,)) == [4, 5]

    def test_hashed_value_is_deterministic(self):
        assert hashed_value(42) == hashed_value(42)
        assert hashed_value("abc") == hashed_value("abc")

    def test_hashed_value_spreads_nearby_keys(self):
        values = {hashed_value(i) for i in range(100)}
        assert len(values) == 100


#: Top-level scalars of every kind, and values that equal them in another type.
HASHED_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**64), 2**64),
    st.floats(),
    st.text(max_size=3),
    st.dates(),
    st.datetimes(),
    st.datetimes(timezones=st.sampled_from(
        [datetime.timezone.utc, datetime.timezone(datetime.timedelta(hours=-5))]
    )),
)


def equal_forms(value):
    """Values of another type (or sign, or zone) that ``values_equal`` equates with *value*."""
    forms = [value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, float) and value.is_integer():
            forms += [int(value), -value] if value == 0 else [int(value)]
        elif isinstance(value, int) and float(value) == value:
            forms.append(float(value))
    elif isinstance(value, datetime.datetime):
        if value.tzinfo is None:
            forms.append(value.replace(tzinfo=datetime.timezone.utc))
        else:
            forms.append(value.astimezone(datetime.timezone.utc).replace(tzinfo=None))
        if value.time() == datetime.time() and value.tzinfo is None:
            forms.append(value.date())
    elif isinstance(value, datetime.date):
        forms.append(datetime.datetime.combine(value, datetime.time()))
    return forms


@given(value=HASHED_SCALARS, data=st.data())
@example(value=1, data=None)
@example(value=-0.0, data=None)
@example(value=datetime.date(2000, 1, 2), data=None)
def test_equal_scalars_hash_alike(value, data):
    """A hashed shard key routes equal values to one chunk (``1``/``1.0``, ``0``/``-0.0``, a
    date and its midnight): ``values_equal(a, b)`` implies ``hashed_value(a) == hashed_value(b)``."""
    others = equal_forms(value)
    if data is not None:
        others.append(data.draw(st.one_of(st.sampled_from(others), HASHED_SCALARS)))
    for other in others:
        if values_equal(value, other):
            assert hashed_value(value) == hashed_value(other), (value, other)
    assert hashed_value(True) != hashed_value(1) and hashed_value("1") != hashed_value(1)


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=60))
def test_range_lookup_matches_linear_filter(values):
    """Property: index range scans agree with a straightforward filter."""
    documents = [{"v": value} for value in values]
    index = build_index("v", documents=documents)
    lower, upper = -100, 100
    expected = sorted(
        doc_id for doc_id, document in enumerate(documents, start=1)
        if lower <= document["v"] <= upper
    )
    assert sorted(index.range_lookup(lower, upper)) == expected


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60))
def test_point_lookup_matches_linear_filter(values):
    documents = [{"v": value} for value in values]
    index = build_index("v", documents=documents)
    needle = values[0]
    expected = sorted(
        doc_id for doc_id, document in enumerate(documents, start=1) if document["v"] == needle
    )
    assert sorted(index.prefix_lookup((needle,))) == expected


# -- bulk_insert: the merge against sequential insert ------------------------------

#: Index specifications the merge is checked on: plain, compound and hashed.
MERGED_SPECS = st.sampled_from(["v", [("v", ASCENDING), ("w", DESCENDING)], [("v", HASHED)]])
#: Existing keys sit in 100..200 (every second value), so a batch drawn from
#: 0..300 lands before, inside and after that range and repeats existing keys.
BATCHES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2)),
    min_size=1,
    max_size=600,
)


def arrays(index):
    return list(index.ordered_doc_ids()), index._order_unsafe_entries


@given(MERGED_SPECS, BATCHES)
def test_bulk_insert_equals_sequential_insert(keys, batch):
    """Merged entries == sequential ``insert``: same keys, equal keys by record id."""
    existing = [{"v": value, "w": value % 3} for value in range(100, 200, 2)]
    merged = build_index(keys, documents=existing)
    sequential = build_index(keys, documents=existing)
    before = arrays(merged)
    documents = [
        (doc_id, {"v": v, "w": w}) for doc_id, (v, w) in enumerate(batch, start=len(existing) + 1)
    ]
    undo = merged.bulk_insert(documents)
    for doc_id, document in documents:
        sequential.insert(document, doc_id)
    assert arrays(merged) == arrays(sequential)
    undo.rollback()
    assert arrays(merged) == before


@given(BATCHES, st.sampled_from(range(100, 200, 2)), st.booleans())
def test_failed_unique_bulk_insert_leaves_the_index_untouched(batch, taken, inside_batch):
    """A duplicate — of an existing key, or inside the batch — changes nothing."""
    existing = [{"v": value} for value in range(100, 200, 2)]
    index = build_index("v", unique=True, documents=existing)
    before = arrays(index)
    fresh = sorted({v for v, _w in batch if not (100 <= v < 200 and v % 2 == 0)})
    values = fresh + [fresh[0]] if inside_batch and fresh else fresh + [taken]
    with pytest.raises(DuplicateKeyError):
        index.bulk_insert((doc_id, {"v": v}) for doc_id, v in enumerate(values, start=1000))
    assert arrays(index) == before
    index.bulk_insert((doc_id, {"v": v}) for doc_id, v in enumerate(fresh, start=2000))
    values = {doc_id: d["v"] for doc_id, d in enumerate(existing, start=1)}
    values.update(enumerate(fresh, start=2000))
    assert [values[doc_id] for doc_id in index.ordered_doc_ids()] == sorted(values.values())


# --------------------------------------------------------------------------
# A collection's indexes: catalog, planner use and maintenance by writes.
# --------------------------------------------------------------------------


def tagged_collection(n=20):
    collection = DocumentStoreClient()["db"]["items"]
    collection.insert_many([{"_id": i, "tag": i % 3, "rank": i * 7 % 13} for i in range(n)])
    return collection


def ids_through(collection, index_name, query):
    """The ``_id`` values *query* finds when it is answered from *index_name*."""
    return sorted(doc["_id"] for doc in collection.find(query).hint(index_name))


def winning_stage(collection, query):
    return collection.explain(query)["queryPlanner"]["winningPlan"]["stage"]


class TestCollectionIndexes:
    def test_create_and_list_index(self):
        collection = tagged_collection()
        name = collection.create_index({"keys": [["tag", 1], ["rank", -1]], "unique": True})
        assert name == "tag_1_rank_-1"
        specs = {spec["name"]: spec for spec in collection.list_indexes()}
        assert specs[name] == {
            "name": name,
            "type": "btree",
            "keys": [["tag", 1], ["rank", -1]],
            "unique": True,
        }
        assert specs["_id_"]["type"] == "btree"
        info = collection.index_information()[name]
        assert info["type"] == "btree" and info["unique"] is True

    def test_a_secondary_index_serves_finds(self):
        collection = tagged_collection()
        collection.create_index("tag")
        plan = collection.explain({"tag": 1})["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "IXSCAN" and plan["indexName"] == "tag_1"

    def test_insert_update_delete_maintain_index(self):
        collection = tagged_collection()
        collection.create_index("tag")
        collection.insert_one({"_id": 999, "tag": 7})
        assert ids_through(collection, "tag_1", {"tag": 7}) == [999]
        collection.update_one({"_id": 999}, {"$set": {"tag": 8}})
        assert ids_through(collection, "tag_1", {"tag": 7}) == []
        assert ids_through(collection, "tag_1", {"tag": 8}) == [999]
        collection.delete_many({"_id": 999})
        assert ids_through(collection, "tag_1", {"tag": 8}) == []

    def test_documents_without_the_field_are_indexed_as_null(self):
        collection = tagged_collection(5)
        collection.create_index("tag")
        collection.insert_one({"_id": 1000})
        assert ids_through(collection, "tag_1", {"tag": None}) == [1000]

    def test_a_unique_violation_stores_only_the_prefix(self):
        collection = tagged_collection(5)
        collection.create_index("rank", unique=True)
        with pytest.raises(DuplicateKeyError):
            collection.insert_many([{"_id": 2000, "rank": 100}, {"_id": 2001, "rank": 0}])
        assert collection.count_documents({"_id": {"$gte": 2000}}) == 1
        assert ids_through(collection, "rank_1", {"rank": 0}) == [0]
        assert ids_through(collection, "rank_1", {"rank": 100}) == [2000]

    def test_a_refused_update_leaves_the_old_entry(self):
        collection = tagged_collection(5)
        collection.create_index("rank", unique=True)
        with pytest.raises(DuplicateKeyError):
            collection.update_one({"_id": 1}, {"$set": {"rank": 0}})
        assert ids_through(collection, "rank_1", {"rank": 7}) == [1]
        assert ids_through(collection, "rank_1", {"rank": 0}) == [0]

    def test_a_refused_update_leaves_every_index_as_it_was(self):
        collection = tagged_collection(5)
        collection.create_index("tag")
        collection.create_index("rank", unique=True)
        # ``tag_1`` is re-keyed before ``rank_1`` refuses the update.
        with pytest.raises(DuplicateKeyError):
            collection.update_one({"_id": 1}, {"$set": {"tag": 9, "rank": 0}})
        assert collection.find_one({"_id": 1}) == {"_id": 1, "tag": 1, "rank": 7}
        assert ids_through(collection, "tag_1", {"tag": 9}) == []
        assert ids_through(collection, "tag_1", {"tag": 1}) == [1, 4]
        assert ids_through(collection, "rank_1", {"rank": 7}) == [1]

    def test_deferred_build_via_bulk_load(self):
        collection = DocumentStoreClient()["db"]["items"]
        with collection.bulk_load():
            collection.create_index("tag", defer=True)
            collection.insert_many([{"_id": i, "tag": i % 3} for i in range(30)])
            assert winning_stage(collection, {"tag": 1}) == "COLLSCAN"
        assert ids_through(collection, "tag_1", {"tag": 1}) == list(range(1, 30, 3))
        assert winning_stage(collection, {"tag": 1}) == "IXSCAN"
