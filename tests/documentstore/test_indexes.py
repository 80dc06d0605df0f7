"""Tests for secondary indexes (single-field, compound, hashed, multikey)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.documentstore import DuplicateKeyError, OperationFailure
from repro.documentstore.indexes import ASCENDING, DESCENDING, HASHED, Index, IndexSpec, hashed_value


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

    def test_vector_spec_fields_follow_the_normalized_keys(self):
        spec = IndexSpec.from_key_specification({"keys": ["embedding"], "type": "vector", "dims": 4})
        assert spec.keys == (("embedding", "vector"),)
        assert spec.fields == ("embedding",) and not spec.is_hashed


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
