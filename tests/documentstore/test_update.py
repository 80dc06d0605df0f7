"""Tests for update-operator application."""

from __future__ import annotations

import pytest

from repro.documentstore import Collection, InvalidUpdateError
from repro.documentstore.update import (
    OperatorUpdate,
    apply_update,
    build_upsert_document,
    is_update_document,
)


class TestIsUpdateDocument:
    def test_operator_document(self):
        assert is_update_document({"$set": {"a": 1}})

    def test_replacement_document(self):
        assert not is_update_document({"a": 1})

    def test_empty_document(self):
        assert not is_update_document({})
        assert not is_update_document(None)  # so update_many(q, None) is an OperationFailure

    def test_mixed_document_rejected(self):
        with pytest.raises(InvalidUpdateError):
            is_update_document({"$set": {"a": 1}, "b": 2})

    @pytest.mark.parametrize("update", [{1: 2}, {"$set": {"a": 1}, 1: 2}, {1: 2, "a": 3}])
    def test_non_string_key_rejected(self, update):
        """It leaked ``AttributeError`` from ``key.startswith``."""
        with pytest.raises(InvalidUpdateError):
            is_update_document(update)


class TestSet:
    def test_set_top_level_field(self):
        assert apply_update({"a": 1}, {"$set": {"b": 2}}) == {"a": 1, "b": 2}

    def test_set_overwrites(self):
        assert apply_update({"a": 1}, {"$set": {"a": 9}}) == {"a": 9}

    def test_set_dotted_path_creates_parents(self):
        updated = apply_update({}, {"$set": {"address.city": "Midway"}})
        assert updated == {"address": {"city": "Midway"}}

    def test_set_replaces_foreign_key_with_document(self):
        """The EmbedDocuments update of Figure 4.7, step 10."""
        sale = {"ss_item_sk": 42, "ss_quantity": 3}
        item = {"i_item_sk": 42, "i_item_id": "AAAA42"}
        updated = apply_update(sale, {"$set": {"ss_item_sk": item}})
        assert updated["ss_item_sk"] == item
        assert updated["ss_quantity"] == 3

    def test_original_document_is_not_mutated(self):
        original = {"a": {"b": 1}}
        apply_update(original, {"$set": {"a.b": 2}})
        assert original == {"a": {"b": 1}}

    def test_set_value_is_copied(self):
        payload = {"nested": [1, 2]}
        updated = apply_update({}, {"$set": {"field": payload}})
        payload["nested"].append(3)
        assert updated["field"]["nested"] == [1, 2]


class TestArithmeticOperators:
    def test_inc(self):
        assert apply_update({"n": 5}, {"$inc": {"n": 3}})["n"] == 8

    def test_inc_missing_field_starts_at_zero(self):
        assert apply_update({}, {"$inc": {"n": 3}})["n"] == 3

    def test_inc_non_numeric_rejected(self):
        with pytest.raises(InvalidUpdateError):
            apply_update({"n": "text"}, {"$inc": {"n": 1}})

    def test_inc_boolean_target_rejected(self):
        with pytest.raises(InvalidUpdateError):
            apply_update({"n": True}, {"$inc": {"n": 1}})

    def test_inc_by_a_float(self):
        assert apply_update({"n": 1}, {"$inc": {"n": 0.5}})["n"] == 1.5

    def test_inc_dotted_path_creates_parents(self):
        assert apply_update({}, {"$inc": {"a.b": 2}}) == {"a": {"b": 2}}

    def test_inc_an_array_element(self):
        assert apply_update({"a": [1, 2]}, {"$inc": {"a.1": 5}}) == {"a": [1, 7]}

    def test_set_and_inc_in_one_update(self):
        updated = apply_update({"n": 1, "s": 0}, {"$set": {"s": "x"}, "$inc": {"n": -3}})
        assert updated == {"n": -2, "s": "x"}


class TestReplacementAndUpsert:
    def test_replacement_keeps_id(self):
        updated = apply_update({"_id": 7, "a": 1}, {"b": 2})
        assert updated == {"b": 2, "_id": 7}

    def test_unknown_operator_rejected(self):
        with pytest.raises(InvalidUpdateError):
            apply_update({}, {"$explode": {"a": 1}})

    def test_upsert_document_seeds_equality_fields(self):
        document = build_upsert_document({"sku": "X1", "qty": {"$gt": 5}}, {"$set": {"price": 2.5}})
        assert document == {"sku": "X1", "price": 2.5}


#: Operator updates that would store (or write through) a field name
#: ``insert_one`` refuses, or whose argument no document can take.
REFUSED_UPDATES = {
    "non-string path": {"$set": {1: 2}},
    "$-prefixed field": {"$set": {"$x": 1}},
    "$-prefixed step": {"$set": {"a.$x": 1}},
    "empty field": {"$set": {"": 1}},
    "empty step": {"$set": {"a..b": 1}},
    "trailing dot": {"$set": {"a.": 1}},
    "$inc by a string": {"$inc": {"a": "x"}},
    "$inc by a boolean": {"$inc": {"a": True}},
}


class TestRefusedAtConstruction:
    """Refused by ``OperatorUpdate`` itself, so whether or not anything matches."""

    @pytest.mark.parametrize("update", REFUSED_UPDATES.values(), ids=list(REFUSED_UPDATES))
    def test_refused_whether_or_not_anything_matches(self, update):
        with pytest.raises(InvalidUpdateError):
            OperatorUpdate(update)
        collection = Collection(None, "t")
        collection.insert_one({"_id": 1, "a": 1})
        for query in ({"_id": 1}, {"_id": 2}, {"a": 1}, {"a": 2}):
            for method in (collection.update_one, collection.update_many):
                with pytest.raises(InvalidUpdateError):
                    method(query, update)
        assert collection.find_one({}) == {"_id": 1, "a": 1}

    @pytest.mark.parametrize(
        ("document", "path"), [({"a": [1]}, "a.x"), ({"a": [1]}, "a.0.b"), ({"a": []}, "a.-1")]
    )
    def test_a_path_the_document_cannot_take_is_an_update_error(self, document, path):
        """A step through an array or a scalar leaked ValueError, TypeError or IndexError."""
        with pytest.raises(InvalidUpdateError):
            apply_update(document, {"$set": {path: 1}})

    def test_valid_paths_are_still_written(self):
        assert apply_update({"a": [1, {}]}, {"$set": {"a.1.b": 2, "c.0": 3}}) == {
            "a": [1, {"b": 2}],
            "c": {"0": 3},
        }
