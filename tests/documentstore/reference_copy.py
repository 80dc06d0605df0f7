"""The obviously-correct references for the per-document read kernels.

These are the copy, projection and size functions the store ran before they
dispatched on exact types, moved here unchanged apart from their names: every
value goes through the ``isinstance`` checks in one order, and a projection is
parsed again for every document.  ``test_kernel_properties.py`` checks
``bson.deep_copy_document``, ``cursor.compile_projection`` and
``bson.value_size``/``document_size`` against them.

``project_document`` is the old projection *including its bug*: a dotted
exclusion pops from the nested documents of its input, so the properties
only ever apply it to a private deep copy.
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Mapping
from typing import Any

from repro.documentstore.errors import InvalidDocumentError, OperationFailure
from repro.documentstore.matching import resolve_path_single
from repro.documentstore.objectid import ObjectId

_MISSING = object()


def deep_copy_document(document: Any) -> Any:
    """Deep-copy a document without copying immutable scalars."""
    if isinstance(document, Mapping):
        return {key: deep_copy_document(value) for key, value in document.items()}
    if isinstance(document, (list, tuple)):
        return [deep_copy_document(item) for item in document]
    return document


def project_document(
    document: Mapping[str, Any],
    projection: Mapping[str, Any] | None,
) -> dict[str, Any]:
    """Apply a find()-style inclusion/exclusion projection."""
    if not projection:
        return dict(document)
    inclusions = {k: v for k, v in projection.items() if k != "_id" and v}
    exclusions = {k: v for k, v in projection.items() if k != "_id" and not v}
    if inclusions and exclusions:
        raise OperationFailure("cannot mix inclusion and exclusion in a projection")
    include_id = bool(projection.get("_id", True))

    if inclusions:
        projected: dict[str, Any] = {}
        for path in inclusions:
            value = resolve_path_single(document, path, default=_MISSING)
            if value is _MISSING:
                continue
            _set_nested(projected, path, value)
        if include_id and "_id" in document:
            projected["_id"] = document["_id"]
        return projected

    projected = {k: v for k, v in document.items()}
    for path in exclusions:
        _remove_nested(projected, path)
    if not include_id:
        projected.pop("_id", None)
    return projected


def _set_nested(target: dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    node = target
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def _remove_nested(target: dict[str, Any], path: str) -> None:
    parts = path.split(".")
    node: Any = target
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            return
        node = node[part]
    if isinstance(node, dict):
        node.pop(parts[-1], None)


def document_size(document: Mapping[str, Any]) -> int:
    """Return the approximate serialized size of *document*, in bytes."""
    return _mapping_size(document)


def _mapping_size(mapping: Mapping[str, Any]) -> int:
    size = 5  # int32 length prefix + trailing NUL
    for key, value in mapping.items():
        size += 2 + len(str(key).encode("utf-8"))  # type byte + key + NUL
        size += value_size(value)
    return size


def value_size(value: Any) -> int:
    """The bytes *value* takes in a document, its key and type byte aside."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return 5 + len(value)
    if isinstance(value, ObjectId):
        return 12
    if isinstance(value, (_dt.datetime, _dt.date)):
        return 8
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
