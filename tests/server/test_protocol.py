"""Unit tests for the length-prefixed binary wire protocol."""

from __future__ import annotations

import datetime as dt

import pytest

from repro.documentstore import FindSpec, ObjectId
from repro.documentstore.errors import (
    DocumentTooLargeError,
    DuplicateKeyError,
    InvalidUpdateError,
    OperationFailure,
)
from repro.server import (
    ConnectionFailure,
    Opcode,
    ProtocolError,
    decode_findspec,
    encode_error,
    encode_findspec,
    encode_frame,
    raise_wire_error,
    recv_frame,
)
from repro.server.protocol import FLAG_HAS_MORE, MAGIC, MAX_FRAME_SIZE


class FakeSocket:
    """Feeds a byte buffer to ``recv_frame`` in deliberately small chunks."""

    def __init__(self, data: bytes, chunk: int = 5) -> None:
        self._data = data
        self._chunk = chunk

    def recv(self, count: int) -> bytes:
        take = min(count, self._chunk, len(self._data))
        piece, self._data = self._data[:take], self._data[take:]
        return piece


class TestFrames:
    def test_round_trip_with_extended_types(self):
        oid = ObjectId()
        document = {
            "batch": [
                {"_id": oid, "when": dt.datetime(2017, 3, 21, 12, 30), "blob": b"\x00\x01"},
                {"day": dt.date(2017, 3, 21), "nested": {"pi": 3.14, "none": None}},
            ],
            "has_more": True,
        }
        data = encode_frame(Opcode.REPLY, 42, document, flags=FLAG_HAS_MORE)
        frame = recv_frame(FakeSocket(data))
        assert frame is not None
        assert frame.request_id == 42
        assert frame.opcode == Opcode.REPLY
        assert frame.has_more
        assert frame.document == document
        assert frame.wire_size == len(data)

    def test_clean_eof_returns_none(self):
        assert recv_frame(FakeSocket(b"")) is None

    def test_truncated_frame_raises(self):
        data = encode_frame(Opcode.FIND, 1, {"db": "shop"})
        with pytest.raises(ProtocolError):
            recv_frame(FakeSocket(data[:-3]))

    def test_bad_magic_rejected(self):
        data = bytearray(encode_frame(Opcode.FIND, 1, {}))
        data[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            recv_frame(FakeSocket(bytes(data)))

    def test_oversized_body_length_rejected(self):
        header = (MAGIC).to_bytes(2, "big") + b"\x01" + (MAX_FRAME_SIZE + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="length"):
            recv_frame(FakeSocket(header))


class TestFindSpec:
    def test_round_trip_full_spec(self):
        spec = FindSpec.create(
            filter={"store": {"$gte": 1}},
            projection={"_id": 0, "order_id": 1},
            sort=[("amount", -1), ("order_id", 1)],
            skip=3,
            limit=20,
            batch_size=7,
            hint="amount_1",
        )
        assert decode_findspec(encode_findspec(spec)) == spec

    def test_round_trip_empty_spec(self):
        spec = FindSpec()
        assert decode_findspec(encode_findspec(spec)) == spec


class TestErrors:
    def test_generic_error_maps_to_class(self):
        payload = encode_error(InvalidUpdateError("empty update document"))
        with pytest.raises(InvalidUpdateError, match="empty update"):
            raise_wire_error(payload)

    def test_duplicate_key_reconstructed(self):
        payload = encode_error(DuplicateKeyError("order_id_1", 17))
        with pytest.raises(DuplicateKeyError) as excinfo:
            raise_wire_error(payload)
        assert excinfo.value.index_name == "order_id_1"

    def test_document_too_large_reconstructed(self):
        payload = encode_error(DocumentTooLargeError(20_000_000, 16_777_216))
        with pytest.raises(DocumentTooLargeError) as excinfo:
            raise_wire_error(payload)
        assert excinfo.value.size == 20_000_000

    def test_unknown_code_falls_back_to_operation_failure(self):
        with pytest.raises(OperationFailure, match="Mystery"):
            raise_wire_error({"code": "Mystery", "message": "boom"})

    def test_rejection_codes_map_to_connection_failure(self):
        with pytest.raises(ConnectionFailure):
            raise_wire_error({"code": "TooManyConnections", "message": "full"})
