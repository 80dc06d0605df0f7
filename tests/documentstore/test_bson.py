"""Tests for document validation, size accounting, and wire serialization."""

from __future__ import annotations

import datetime
import decimal
import json
import types
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.documentstore import (
    MAX_DOCUMENT_SIZE,
    DocumentStoreClient,
    DocumentTooLargeError,
    InvalidDocumentError,
    ObjectId,
    document_size,
    dump_database,
    load_database,
    validate_document,
)
from repro.documentstore.bson import (
    decode_batch,
    decode_document,
    deep_copy_document,
    encode_batch,
    encode_document,
)
from repro.documentstore.indexes import hashed_value
from repro.documentstore.recovery import snapshot_path
from repro.documentstore.snapshot import read_manifest
from repro.documentstore.wal import read_log


class TestValidation:
    def test_accepts_simple_document(self):
        validate_document({"name": "earl", "age": 36, "scores": [1, 2, 3]})

    def test_accepts_nested_documents_and_dates(self):
        validate_document(
            {
                "_id": ObjectId(),
                "address": {"city": "Midway", "zip": "45040"},
                "born": datetime.date(1979, 9, 25),
                "updated": datetime.datetime(2015, 11, 9, 12, 0),
            }
        )

    def test_rejects_non_mapping(self):
        with pytest.raises(InvalidDocumentError):
            validate_document(["not", "a", "document"])

    def test_rejects_non_string_keys(self):
        with pytest.raises(InvalidDocumentError):
            validate_document({1: "numeric key"})

    def test_rejects_dollar_prefixed_keys(self):
        with pytest.raises(InvalidDocumentError):
            validate_document({"$set": 1})

    def test_rejects_dotted_keys(self):
        with pytest.raises(InvalidDocumentError):
            validate_document({"a.b": 1})

    def test_rejects_unsupported_value_types(self):
        with pytest.raises(InvalidDocumentError):
            validate_document({"value": object()})

    def test_rejects_documents_over_16mb(self):
        huge = {"payload": "x" * (MAX_DOCUMENT_SIZE + 1)}
        with pytest.raises(DocumentTooLargeError):
            validate_document(huge)

    def test_nested_dollar_keys_rejected(self):
        with pytest.raises(InvalidDocumentError):
            validate_document({"outer": {"$inner": 1}})


class TestDocumentSize:
    def test_empty_document_has_minimal_size(self):
        assert document_size({}) == 5

    def test_size_grows_with_repeated_keys(self):
        """Repeating keys per document drives the ~9x growth of Section 4.1.2."""
        narrow = document_size({"a": 1})
        wide = document_size({"customer_address_street_name": 1})
        assert wide > narrow

    def test_string_size_includes_length(self):
        assert document_size({"k": "abcd"}) == document_size({"k": ""}) + 4

    def test_array_size_counts_elements(self):
        assert document_size({"k": [1, 2, 3]}) > document_size({"k": [1]})

    def test_size_of_unsupported_type_raises(self):
        with pytest.raises(InvalidDocumentError):
            document_size({"k": object()})


class TestDeepCopy:
    def test_copy_is_independent(self):
        original = {"nested": {"values": [1, 2, 3]}}
        copy = deep_copy_document(original)
        copy["nested"]["values"].append(4)
        assert original["nested"]["values"] == [1, 2, 3]

    def test_scalars_pass_through(self):
        assert deep_copy_document(42) == 42
        assert deep_copy_document("text") == "text"


class TestWireFormat:
    def test_round_trip_plain_document(self):
        document = {"name": "earl", "age": 36, "nested": {"tags": ["a", "b"]}}
        assert decode_document(encode_document(document)) == document

    def test_round_trip_objectid(self):
        document = {"_id": ObjectId()}
        decoded = decode_document(encode_document(document))
        assert decoded["_id"] == document["_id"]

    def test_null_objectid_envelope_is_refused_not_minted(self):
        # Found by the reference-codec property below: ObjectId(None) generates
        # a new id, so this payload used to decode differently every time.
        with pytest.raises(TypeError):
            decode_document(b'{"_id":{"$__type":"oid","v":null}}')

    def test_round_trip_dates(self):
        document = {
            "day": datetime.date(2002, 5, 29),
            "timestamp": datetime.datetime(2002, 5, 29, 10, 30),
        }
        decoded = decode_document(encode_document(document))
        assert decoded == document

    def test_round_trip_bytes(self):
        document = {"blob": b"\x00\x01\x02"}
        assert decode_document(encode_document(document)) == document

    def test_batch_round_trip(self):
        documents = [{"i": i} for i in range(10)]
        assert decode_batch(encode_batch(documents)) == documents


_KEYS = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet="xyz ", max_size=10)
)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        _KEYS,
        st.recursive(
            _SCALARS,
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(_KEYS, children, max_size=3),
            max_leaves=8,
        ),
        max_size=5,
    )
)
def test_wire_format_round_trips_arbitrary_documents(document):
    """Any JSON-like document survives the simulated wire."""
    try:
        validate_document(document, check_size=False)
    except InvalidDocumentError:
        return  # documents our validator rejects need not round-trip
    assert decode_document(encode_document(document)) == document


# --------------------------------------------------------------------------
# The wire format is pinned: hashed shard keys hash the encoded bytes, WAL /
# snapshot / cluster-metadata files outlive a commit, and the benchmark's byte
# counters are exact.  The reference below is the two-pass algorithm the codec
# replaced (recursive Python copy, then ``json``); the codec must agree with
# it byte for byte.
# --------------------------------------------------------------------------


def _reference_encode_value(value):
    if isinstance(value, ObjectId):
        return {"$__type": "oid", "v": str(value)}
    if isinstance(value, datetime.datetime):
        return {"$__type": "datetime", "v": value.isoformat()}
    if isinstance(value, datetime.date):
        return {"$__type": "date", "v": value.isoformat()}
    if isinstance(value, bytes):
        return {"$__type": "bytes", "v": value.hex()}
    if isinstance(value, Mapping):
        return {key: _reference_encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_encode_value(item) for item in value]
    return value


def _reference_encode(value) -> bytes:
    return json.dumps(_reference_encode_value(value), separators=(",", ":")).encode("utf-8")


def _reference_decode_value(value):
    if isinstance(value, dict):
        type_tag = value.get("$__type")
        if type_tag == "oid":
            if value["v"] is None:
                raise TypeError("ObjectId(None) mints a new id: not a decoding")
            return ObjectId(value["v"])
        if type_tag == "datetime":
            return datetime.datetime.fromisoformat(value["v"])
        if type_tag == "date":
            return datetime.date.fromisoformat(value["v"])
        if type_tag == "bytes":
            return bytes.fromhex(value["v"])
        return {key: _reference_decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_reference_decode_value(item) for item in value]
    return value


def _reference_decode(payload: bytes):
    return _reference_decode_value(json.loads(payload.decode("utf-8")))


# Keys include the envelope's own names, so user data can collide with it.
_WIRE_KEYS = st.sampled_from(["$__type", "v"]) | _KEYS
_WIRE_SCALARS = (
    _SCALARS
    | st.sampled_from(["oid", "datetime", "date", "bytes"])  # envelope tags as user data
    | st.integers()  # beyond 2**53
    | st.floats()  # NaN and infinities included
    | st.text(max_size=6)  # non-ASCII, quotes, control characters
    | st.builds(ObjectId, st.binary(min_size=12, max_size=12))
    | st.datetimes()
    | st.datetimes(timezones=st.timezones())
    | st.dates()
    | st.binary(max_size=8)
)
_WIRE_VALUES = st.recursive(
    _WIRE_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_WIRE_KEYS, children, max_size=3)
    | st.dictionaries(_WIRE_KEYS, children, max_size=3).map(types.MappingProxyType),
    max_leaves=12,
)
_WIRE_DICTS = st.dictionaries(_WIRE_KEYS, _WIRE_VALUES, max_size=5)
_WIRE_DOCUMENTS = _WIRE_DICTS | _WIRE_DICTS.map(types.MappingProxyType)


def _assert_decodes_like_reference(payload: bytes, decode) -> None:
    try:
        expected = _reference_decode(payload)
    except (TypeError, ValueError, KeyError):
        # User data impersonating the envelope ({"$__type": "oid", "v": 5}):
        # neither decoder can round-trip it, only the bytes are pinned.
        return
    # repr equality also holds for NaN, which the wire format carries.
    assert repr(decode(payload)) == repr(expected)


@settings(max_examples=300, deadline=None)
@given(_WIRE_DOCUMENTS)
def test_encode_document_matches_reference_bytes(document):
    payload = encode_document(document)
    assert payload == _reference_encode(document)
    _assert_decodes_like_reference(payload, decode_document)


@settings(max_examples=100, deadline=None)
@given(st.lists(_WIRE_DOCUMENTS, max_size=4), st.booleans())
def test_encode_batch_matches_reference_bytes(documents, as_generator):
    payload = encode_batch(iter(documents) if as_generator else documents)
    assert payload == _reference_encode(documents)
    _assert_decodes_like_reference(payload, decode_batch)


#: One document with every extended type, and its bytes as written by the
#: commit before the single-pass codec.
GOLDEN_DOCUMENT = {
    "_id": ObjectId("0123456789abcdef01234567"),
    "when": datetime.datetime(2015, 11, 9, 12, 30, 15, 250000),
    "day": datetime.date(2002, 5, 29),
    "blob": b"\x00\xffab",
    "tags": ("a", 1, 2.5, None, True),
    "nested": {
        "ids": [ObjectId("fedcba9876543210fedcba98")],
        "name": "caf\u00e9 \u2603",
        "ratio": 1e-07,
    },
    "big": 2**63,
    "neg": -0.0,
}
GOLDEN_BYTES = (
    b'{"_id":{"$__type":"oid","v":"0123456789abcdef01234567"},'
    b'"when":{"$__type":"datetime","v":"2015-11-09T12:30:15.250000"},'
    b'"day":{"$__type":"date","v":"2002-05-29"},'
    b'"blob":{"$__type":"bytes","v":"00ff6162"},'
    b'"tags":["a",1,2.5,null,true],'
    b'"nested":{"ids":[{"$__type":"oid","v":"fedcba9876543210fedcba98"}],'
    b'"name":"caf\\u00e9 \\u2603","ratio":1e-07},'
    b'"big":9223372036854775808,"neg":-0.0}'
)

#: A whole WAL segment (insert, update post-image, index DDL, delete) written
#: by that commit through ``DocumentStoreClient(data_dir=..., fsync="always")``.
GOLDEN_WAL_SEGMENT = (
    b'WL\x18\x01\x00\x005G$D{"db":"db","coll":"t","op":"insert","docs":[{"_id":1,'
    b'"when":{"$__type":"datetime","v":"2015-11-09T12:30:00"},'
    b'"oid":{"$__type":"oid","v":"0123456789abcdef01234567"},'
    b'"blob":{"$__type":"bytes","v":"0102"}},'
    b'{"_id":2,"day":{"$__type":"date","v":"2002-05-29"},"tags":["a",{"b":null}]}]}'
    b'WL~\x00\x00\x00n\x9f5J{"db":"db","coll":"t","op":"apply","docs":[{"_id":2,'
    b'"day":{"$__type":"date","v":"2002-05-29"},"tags":["a",{"b":null}],"n":5}]}'
    b'WLo\x00\x00\x00\x9e\xe3\xca\xf1{"db":"db","coll":"t","op":"create_index",'
    b'"spec":{"name":"n_1","type":"btree","keys":[["n",1]],"unique":false}}'
    b'WL.\x00\x00\x00\xc7\x94@\x83{"db":"db","coll":"t","op":"delete","ids":[1]}'
)


def _replay_golden_operations(data_dir) -> None:
    """The operations whose log is :data:`GOLDEN_WAL_SEGMENT`."""
    with DocumentStoreClient(data_dir=data_dir, fsync="always") as client:
        table = client["db"]["t"]
        table.insert_many(
            [
                {
                    "_id": 1,
                    "when": datetime.datetime(2015, 11, 9, 12, 30),
                    "oid": ObjectId("0123456789abcdef01234567"),
                    "blob": b"\x01\x02",
                },
                {"_id": 2, "day": datetime.date(2002, 5, 29), "tags": ["a", {"b": None}]},
            ]
        )
        table.update_many({"_id": 2}, {"$set": {"n": 5}})
        table.create_index("n")
        table.delete_many({"_id": 1})


class TestPinnedWireFormat:
    def test_golden_document_bytes(self):
        assert encode_document(GOLDEN_DOCUMENT) == GOLDEN_BYTES
        decoded = decode_document(GOLDEN_BYTES)
        assert decoded == {**GOLDEN_DOCUMENT, "tags": ["a", 1, 2.5, None, True]}
        assert type(decoded["when"]) is datetime.datetime
        assert type(decoded["day"]) is datetime.date

    def test_golden_hashed_values(self):
        """Hashed shard keys and persisted chunk tables hash the encoded bytes."""
        oid = ObjectId("0123456789abcdef01234567")
        assert hashed_value({"a": [1, oid]}) == 911376848130038715
        assert hashed_value([1, "x", datetime.date(2000, 1, 2)]) == 14056067151469403652

    @pytest.mark.parametrize("value", [{1, 2}, decimal.Decimal("1.5"), object()])
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            encode_document({"nested": [{"value": value}]})
        with pytest.raises(TypeError):
            encode_batch([{"value": value}])

    def test_wal_written_today_matches_the_previous_commit(self, tmp_path):
        _replay_golden_operations(tmp_path)
        assert (tmp_path / "wal-00000000.log").read_bytes() == GOLDEN_WAL_SEGMENT

    def test_wal_from_the_previous_commit_recovers(self, tmp_path):
        (tmp_path / "wal-00000000.log").write_bytes(GOLDEN_WAL_SEGMENT)
        with DocumentStoreClient(data_dir=tmp_path) as client:
            assert client.engine.recovery_report.records_replayed == 4
            table = client["db"]["t"]
            assert table.find({}).to_list() == [
                {"_id": 2, "day": datetime.date(2002, 5, 29), "tags": ["a", {"b": None}], "n": 5}
            ]
            assert [spec["name"] for spec in table.list_indexes()] == ["_id_", "n_1"]

    def test_no_golden_fixture_holds_a_bare_keys_index_entry(self, tmp_path):
        """``load_database`` and ``load_snapshot`` read structured index specs only.

        The golden segment's index DDL carries one, and so do the snapshot and
        the dump written from the store it recovers to; both load back.
        """
        (tmp_path / "wal-00000000.log").write_bytes(GOLDEN_WAL_SEGMENT)
        payloads, _length, _tail = read_log(tmp_path / "wal-00000000.log")
        records = [decode_document(payload) for payload in payloads]
        assert [record["spec"] for record in records if record["op"] == "create_index"] == [
            {"name": "n_1", "type": "btree", "keys": [["n", 1]], "unique": False}
        ]
        with DocumentStoreClient(data_dir=tmp_path) as client:
            client.checkpoint()
            dump_database(client["db"], tmp_path / "dump")
            indexes = client["db"]["t"].list_indexes()
        snapshot = read_manifest(snapshot_path(tmp_path, 1))["databases"]["db"]["t"]["indexes"]
        manifest = json.loads((tmp_path / "dump" / "__manifest__.json").read_text())
        dump = manifest["collections"]["t"]["indexes"]
        assert list(snapshot.values()) == list(dump.values()) == indexes[1:]
        restored = DocumentStoreClient()
        load_database(restored["db"], tmp_path / "dump")
        assert restored["db"]["t"].list_indexes() == indexes
        with DocumentStoreClient(data_dir=tmp_path) as reopened:  # from the snapshot
            assert reopened["db"]["t"].list_indexes() == indexes

    def test_wal_and_snapshot_directory_reopens_identically(self, tmp_path):
        documents = [
            {**GOLDEN_DOCUMENT, "_id": ObjectId(), "tags": list(GOLDEN_DOCUMENT["tags"]), "n": n}
            for n in range(40)
        ]
        with DocumentStoreClient(data_dir=tmp_path, fsync="always") as client:
            table = client["db"]["t"]
            table.insert_many(documents[:25])
            client.checkpoint()  # the first 25 live in a snapshot ...
            table.insert_many(documents[25:])  # ... the rest only in the WAL
            table.update_many({"n": {"$gte": 38}}, {"$set": {"blob": b"new"}})
            written = table.find({}, sort=[("n", 1)]).to_list()
        with DocumentStoreClient(data_dir=tmp_path) as reopened:
            report = reopened.engine.recovery_report
            assert report.snapshot_documents == 25
            assert report.records_replayed == 2
            assert reopened["db"]["t"].find({}, sort=[("n", 1)]).to_list() == written
        assert [doc["n"] for doc in written] == list(range(40))
        assert written[39]["blob"] == b"new" and written[0]["blob"] == b"\x00\xffab"
