"""The obviously-correct reference for value validation.

This is the validator the store ran before ``bson.validate_value`` tested
exact types first, moved here unchanged apart from its names: every value
goes through the ``isinstance`` checks in one order — scalars, mappings,
lists and tuples — and every member is visited.  ``test_validate_properties.py``
checks that the store accepts and refuses exactly what it does, with the
same error class and message.
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Mapping
from typing import Any

from repro.documentstore.bson import MAX_DOCUMENT_SIZE, document_size
from repro.documentstore.errors import DocumentTooLargeError, InvalidDocumentError
from repro.documentstore.objectid import ObjectId

_SCALAR_TYPES = (bool, int, float, str, bytes, ObjectId, _dt.datetime, _dt.date)


def validate_document(document: Mapping[str, Any]) -> None:
    """Validate *document* for insertion."""
    if not isinstance(document, Mapping):
        raise InvalidDocumentError(
            f"documents must be mappings, got {type(document).__name__}"
        )
    validate_value(document)
    size = document_size(document)
    if size > MAX_DOCUMENT_SIZE:
        raise DocumentTooLargeError(size, MAX_DOCUMENT_SIZE)


def validate_value(value: Any) -> None:
    """Raise :class:`InvalidDocumentError` unless *value* can be stored."""
    if value is None or isinstance(value, _SCALAR_TYPES):
        return
    if isinstance(value, Mapping):
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
            validate_value(nested)
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            validate_value(item)
        return
    raise InvalidDocumentError(
        f"unsupported value type {type(value).__name__}: {value!r}"
    )
