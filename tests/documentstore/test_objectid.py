"""Tests for ObjectId generation and parsing."""

from __future__ import annotations

import pytest

from repro.documentstore import ObjectId


class TestGeneration:
    def test_new_ids_are_unique(self):
        ids = {str(ObjectId()) for _ in range(1000)}
        assert len(ids) == 1000

    def test_id_is_twelve_bytes(self):
        assert len(ObjectId().binary) == 12

    def test_hex_string_is_24_characters(self):
        assert len(str(ObjectId())) == 24

    def test_ids_sort_by_generation_time(self):
        older = ObjectId(timestamp=1_000_000_000)
        newer = ObjectId(timestamp=2_000_000_000)
        assert older < newer
        assert newer > older


class TestParsing:
    def test_round_trip_through_hex(self):
        original = ObjectId()
        assert ObjectId(str(original)) == original

    def test_round_trip_through_bytes(self):
        original = ObjectId()
        assert ObjectId(original.binary) == original

    def test_copy_constructor(self):
        original = ObjectId()
        assert ObjectId(original) == original

    def test_invalid_hex_length_rejected(self):
        with pytest.raises(ValueError):
            ObjectId("abc")

    def test_invalid_hex_characters_rejected(self):
        with pytest.raises(ValueError):
            ObjectId("zz" * 12)

    def test_invalid_bytes_length_rejected(self):
        with pytest.raises(ValueError):
            ObjectId(b"short")

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            ObjectId(12345)


class TestEqualityAndHashing:
    def test_equal_ids_hash_equal(self):
        oid = ObjectId()
        assert hash(ObjectId(str(oid))) == hash(oid)

    def test_inequality_with_other_types(self):
        assert ObjectId() != "not an oid"

    def test_usable_as_dict_key(self):
        oid = ObjectId()
        lookup = {oid: "value"}
        assert lookup[ObjectId(str(oid))] == "value"

    def test_repr_round_trips(self):
        oid = ObjectId()
        assert repr(oid) == f"ObjectId('{oid}')"

