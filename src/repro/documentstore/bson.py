"""BSON-style document validation, size accounting, and (de)serialization.

The store keeps documents as ordinary Python dictionaries, but it enforces the
same structural rules the paper relies on:

* keys are strings and may not start with ``$`` or contain ``.`` (those are
  reserved for operators and dotted paths);
* values are limited to the BSON-representable types used by the thesis
  workloads (null, bool, int, float, str, datetime/date, ObjectId, list,
  embedded document);
* a single document may not exceed :data:`MAX_DOCUMENT_SIZE` (16 MB), the
  limit that motivates the referenced data model in Section 2.1.1.

Size accounting follows the BSON wire layout closely enough that relative
sizes (and therefore the "dataset grows ~9x when keys are repeated per
document" observation of Section 4.1.2) are reproduced.
"""

from __future__ import annotations

import datetime as _dt
import json
from collections.abc import Iterable, Mapping  # fast isinstance on the copy/validate hot path
from typing import Any

from .errors import DocumentTooLargeError, InvalidDocumentError
from .objectid import ObjectId

__all__ = [
    "MAX_DOCUMENT_SIZE",
    "validate_document",
    "document_size",
    "require_mapping",
    "value_size",
    "deep_copy_document",
    "encode_document",
    "decode_document",
    "encode_batch",
    "decode_batch",
]

#: Maximum size of a single document, in bytes (16 MB, as in the paper).
MAX_DOCUMENT_SIZE = 16 * 1024 * 1024

_SCALAR_TYPES = (bool, int, float, str, bytes, ObjectId, _dt.datetime, _dt.date)
#: Exact types of the values nothing is left to check in (``None`` included).
EXACT_SCALARS = frozenset((type(None), *_SCALAR_TYPES))


def validate_document(document: Mapping[str, Any]) -> int:
    """Validate *document* for insertion and return its ``document_size``.

    Raises
    ------
    InvalidDocumentError
        If the document is not a mapping, has non-string keys, has keys that
        start with ``$`` or contain ``.``, or contains unsupported values.
    DocumentTooLargeError
        If the document exceeds :data:`MAX_DOCUMENT_SIZE`.
    """
    validate_value(require_mapping(document))
    size = document_size(document)
    if size > MAX_DOCUMENT_SIZE:
        raise DocumentTooLargeError(size, MAX_DOCUMENT_SIZE)
    return size


def require_mapping(document: Any) -> Mapping[str, Any]:
    """*document* itself; :class:`InvalidDocumentError` unless it is a mapping."""
    if not isinstance(document, Mapping):
        raise InvalidDocumentError(f"documents must be mappings, got {type(document).__name__}")
    return document


def validate_value(value: Any) -> None:
    """Raise :class:`InvalidDocumentError` unless *value* can be stored.

    A flat ``dict`` (exact scalar values; keys that join, as only ``str`` keys
    do, with no ``.`` and no key-leading ``$``) is proved valid in C.  Anything
    else takes the walk, the only code that raises; it tests exact types before
    the slow ``collections.abc`` checks and does not visit scalar members.
    """
    kind = type(value)
    if kind is dict and EXACT_SCALARS.issuperset(map(type, value.values())):
        try:
            keys = "\x00" + "\x00".join(value)
        except TypeError:  # a non-str key, which the walk names
            keys = "."
        if "." not in keys and "\x00$" not in keys:
            return
    if kind in EXACT_SCALARS or isinstance(value, _SCALAR_TYPES):
        return
    if kind is dict or (kind is not list and isinstance(value, Mapping)):
        for key, nested in value.items():
            if not isinstance(key, str):
                raise InvalidDocumentError(
                    f"document keys must be strings, got {type(key).__name__}"
                )
            if key.startswith("$"):
                raise InvalidDocumentError(
                    f"document keys may not start with '$': {key!r}"
                )
            if "." in key:
                raise InvalidDocumentError(
                    f"document keys may not contain '.': {key!r}"
                )
            if type(nested) not in EXACT_SCALARS:
                validate_value(nested)
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            if type(item) not in EXACT_SCALARS:
                validate_value(item)
        return
    raise InvalidDocumentError(
        f"unsupported value type {type(value).__name__}: {value!r}"
    )


def document_size(document: Mapping[str, Any]) -> int:
    """Return the approximate serialized size of *document*, in bytes.

    The estimate follows the BSON layout: 4-byte document length + 1-byte
    terminator, and per element 1 type byte + key bytes + NUL + value bytes.
    """
    return _mapping_size(document)


#: Value sizes that depend on the exact type alone.
_FIXED_SIZES = {
    type(None): 0, bool: 1, int: 8, float: 8, ObjectId: 12, _dt.date: 8, _dt.datetime: 8
}


def _mapping_size(mapping: Mapping[str, Any]) -> int:
    size = 5 + 2 * len(mapping)  # length prefix + NUL, per element a type byte + key NUL
    exact_keys = True
    width_of = _FIXED_SIZES.get
    for key, value in mapping.items():
        if type(key) is not str:
            exact_keys = False
        kind = type(value)
        width = width_of(kind)
        if width is not None:
            size += width
        elif kind is str:
            size += 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))
        elif kind is dict:
            size += _mapping_size(value)
        else:
            size += value_size(value)
    keys = "".join(mapping) if exact_keys else "".join(map(str, mapping))  # a subclass: str(key)
    return size + (len(keys) if keys.isascii() else len(keys.encode("utf-8")))


def value_size(value: Any) -> int:
    """The bytes *value* takes in a document, its key and type byte aside."""
    width = _FIXED_SIZES.get(type(value))
    if width is not None:
        return width
    if type(value) is dict:
        return _mapping_size(value)
    if isinstance(value, str):
        return 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))
    if isinstance(value, (int, float, _dt.date)):  # bool is never subclassed
        return 8
    if isinstance(value, bytes):
        return 5 + len(value)
    if isinstance(value, ObjectId):
        return 12
    if isinstance(value, Mapping):
        return _mapping_size(value)
    if isinstance(value, (list, tuple)):
        # Arrays are encoded as documents keyed by the stringified index.
        size = 5
        for index, item in enumerate(value):
            size += 2 + len(str(index)) + value_size(item)
        return size
    raise InvalidDocumentError(
        f"cannot compute size of unsupported type {type(value).__name__}"
    )


def deep_copy_document(document: Any) -> Any:
    """Deep-copy a document without copying immutable scalars.

    Collections hand out copies of stored documents so callers cannot mutate
    the store through returned references, mirroring driver behaviour.  An
    exact dict, list or tuple is one comprehension that shares exact scalars.
    """
    kind = type(document)
    if kind is dict:
        return {
            key: value if type(value) in EXACT_SCALARS else deep_copy_document(value)
            for key, value in document.items()
        }
    if kind is list or kind is tuple:
        return [
            item if type(item) in EXACT_SCALARS else deep_copy_document(item)
            for item in document
        ]
    if kind in EXACT_SCALARS:
        return document
    if isinstance(document, Mapping):
        return {key: deep_copy_document(value) for key, value in document.items()}
    if isinstance(document, (list, tuple)):
        return [deep_copy_document(item) for item in document]
    return document


# --------------------------------------------------------------------------
# Wire serialization: JSON with a small extended-type envelope plays the role
# of BSON wherever documents are stored or sent as bytes (wire frames, WAL
# records, snapshots).  Each direction is one pass driven from C.
# --------------------------------------------------------------------------

_TYPE_KEY = "$__type"


def _encode_extended(value: Any) -> Any:
    """``default`` hook: called only for values the C encoder cannot walk itself."""
    if isinstance(value, ObjectId):
        return {_TYPE_KEY: "oid", "v": str(value)}
    if isinstance(value, _dt.datetime):  # before date: datetime subclasses it
        return {_TYPE_KEY: "datetime", "v": value.isoformat()}
    if isinstance(value, _dt.date):
        return {_TYPE_KEY: "date", "v": value.isoformat()}
    if isinstance(value, bytes):
        return {_TYPE_KEY: "bytes", "v": value.hex()}
    if isinstance(value, Mapping):
        return dict(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _decode_extended(obj: dict[str, Any]) -> Any:
    """``object_hook``: runs once per JSON object, children already decoded."""
    type_tag = obj.get(_TYPE_KEY)
    if type_tag is None:
        return obj
    if type_tag == "oid":
        if obj["v"] is None:  # ObjectId(None) would mint a fresh id on every decode
            raise TypeError("an encoded ObjectId carries its hex string")
        return ObjectId(obj["v"])
    if type_tag == "datetime":
        return _dt.datetime.fromisoformat(obj["v"])
    if type_tag == "date":
        return _dt.date.fromisoformat(obj["v"])
    if type_tag == "bytes":
        return bytes.fromhex(obj["v"])
    return obj


_encode = json.JSONEncoder(separators=(",", ":"), default=_encode_extended).encode
_decode = json.JSONDecoder(object_hook=_decode_extended).decode


def encode_document(document: Mapping[str, Any]) -> bytes:
    """Serialize *document* to the simulated wire format."""
    return _encode(document).encode("utf-8")


def decode_document(payload: bytes) -> dict[str, Any]:
    """Deserialize a document previously produced by :func:`encode_document`."""
    return _decode(payload.decode("utf-8"))


def encode_batch(documents: Iterable[Mapping[str, Any]]) -> bytes:
    """Serialize a batch of documents for a single simulated network message."""
    return _encode(list(documents)).encode("utf-8")


def decode_batch(payload: bytes) -> list[dict[str, Any]]:
    """Deserialize a batch previously produced by :func:`encode_batch`."""
    return _decode(payload.decode("utf-8"))
