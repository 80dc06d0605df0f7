"""Bulk writes: operation values, their result, and their error.

``bulk_write(operations, *, ordered=True)`` has one meaning on every surface
(``Collection``, ``RoutedCollection``, ``RemoteCollection``): apply a list of
the operation values below exactly as issuing them one at a time through
``insert_one`` / ``update_one`` / ``update_many`` / ``delete_one`` /
``delete_many`` would, but as **one** message per shard and **one** WAL
record per batch.

* ``ordered=True`` stops at the first failing operation; nothing after it is
  applied.
* ``ordered=False`` applies every operation that can be applied and reports
  every failing index.

Either way a failure raises :class:`BulkWriteError` carrying the failing
indexes and the :class:`BulkWriteResult` of what *was* applied.  Operations,
results and errors all have a plain-document wire form, shared by the
simulated shard network and the served protocol.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from .cursor import DeleteResult, InsertOneResult, UpdateResult
from .errors import DocumentStoreError, OperationFailure

__all__ = [
    "InsertOne",
    "UpdateOne",
    "UpdateMany",
    "DeleteOne",
    "DeleteMany",
    "BulkWriteResult",
    "BulkWriteError",
    "checked_operations",
    "encode_operation",
    "decode_operation",
    "apply_operations",
]


@dataclass(frozen=True, slots=True)
class InsertOne:
    """``insert_one(document)`` as a value."""

    document: Mapping[str, Any]

    def apply(self, collection: Any) -> InsertOneResult:
        return collection.insert_one(self.document)


@dataclass(frozen=True, slots=True)
class UpdateOne:
    """``update_one(filter, update, upsert=...)`` as a value."""

    filter: Mapping[str, Any] | None
    update: Mapping[str, Any]
    upsert: bool = False

    def apply(self, collection: Any) -> UpdateResult:
        return collection.update_one(self.filter, self.update, upsert=self.upsert)


@dataclass(frozen=True, slots=True)
class UpdateMany:
    """``update_many(filter, update, upsert=...)`` as a value."""

    filter: Mapping[str, Any] | None
    update: Mapping[str, Any]
    upsert: bool = False

    def apply(self, collection: Any) -> UpdateResult:
        return collection.update_many(self.filter, self.update, upsert=self.upsert)


@dataclass(frozen=True, slots=True)
class DeleteOne:
    """``delete_one(filter)`` as a value."""

    filter: Mapping[str, Any] | None

    def apply(self, collection: Any) -> DeleteResult:
        return collection.delete_one(self.filter)


@dataclass(frozen=True, slots=True)
class DeleteMany:
    """``delete_many(filter)`` as a value."""

    filter: Mapping[str, Any] | None

    def apply(self, collection: Any) -> DeleteResult:
        return collection.delete_many(self.filter)


_KINDS: dict[str, type] = {
    "insert_one": InsertOne,
    "update_one": UpdateOne,
    "update_many": UpdateMany,
    "delete_one": DeleteOne,
    "delete_many": DeleteMany,
}
_NAMES = {kind: name for name, kind in _KINDS.items()}


def checked_operations(operations: Iterable[Any]) -> list[Any]:
    """*operations* as a list, refusing anything that is not an operation value."""
    checked = list(operations)
    for operation in checked:
        if type(operation) not in _NAMES:
            raise TypeError(f"{operation!r} is not a bulk write operation")
    return checked


def encode_operation(operation: Any) -> dict[str, Any]:
    """The wire form of one operation value."""
    fields = {name: getattr(operation, name) for name in operation.__slots__}
    return {"op": _NAMES[type(operation)], **fields}


def decode_operation(document: Mapping[str, Any]) -> Any:
    """Rebuild an operation value from its wire form."""
    arguments = dict(document)
    kind = _KINDS.get(arguments.pop("op", None))
    try:
        if kind is None:
            raise TypeError("unknown operation kind")
        return kind(**arguments)
    except TypeError as error:
        raise OperationFailure(f"malformed bulk operation {dict(document)!r}: {error}") from None


_COUNTS = ("inserted_count", "matched_count", "modified_count", "deleted_count")


@dataclass
class BulkWriteResult:
    """Summed counts of the applied operations of one ``bulk_write``.

    ``upserted_ids`` maps the index of each upserting operation to the
    ``_id`` it inserted.
    """

    inserted_count: int = 0
    matched_count: int = 0
    modified_count: int = 0
    deleted_count: int = 0
    upserted_ids: dict[int, Any] = field(default_factory=dict)

    def merge(self, other: "BulkWriteResult") -> None:
        """Add the counts one shard reported for its share of the batch."""
        for name in _COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_document(self) -> dict[str, Any]:
        """The wire form (JSON object keys cannot be integers)."""
        pairs = [[index, _id] for index, _id in self.upserted_ids.items()]
        return {**vars(self), "upserted_ids": pairs}

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "BulkWriteResult":
        """Rebuild a result from :meth:`as_document`."""
        counts = {name: int(document.get(name) or 0) for name in _COUNTS}
        pairs = document.get("upserted_ids") or []
        return cls(**counts, upserted_ids={int(index): _id for index, _id in pairs})


def apply_operations(
    target: Any,
    numbered: Iterable[tuple[int, Any]],
    ordered: bool,
    result: BulkWriteResult,
    errors: list[dict[str, Any]],
) -> None:
    """Apply ``(index, operation)`` pairs to *target*, one at a time.

    Each outcome is summed into *result*; a failure becomes an entry of
    *errors* (see :class:`BulkWriteError`) and, when *ordered*, ends the run.
    The one loop behind ``bulk_write`` on a collection and on the router.
    """
    for index, operation in numbered:
        try:
            outcome = operation.apply(target)
        except DocumentStoreError as error:
            errors.append({"index": index, "code": type(error).__name__, "message": str(error)})
            if ordered:
                return
            continue
        if type(outcome) is UpdateResult:
            result.matched_count += outcome.matched_count
            result.modified_count += outcome.modified_count
            if outcome.upserted_id is not None:
                result.upserted_ids[index] = outcome.upserted_id
        elif type(outcome) is DeleteResult:
            result.deleted_count += outcome.deleted_count
        else:
            result.inserted_count += 1


class BulkWriteError(OperationFailure):
    """One or more operations of a ``bulk_write`` failed.

    ``errors`` lists ``{"index", "code", "message"}`` per failing operation
    in index order (exactly one entry in ordered mode); ``index`` is the
    first of them; ``result`` counts what was applied.
    """

    def __init__(self, errors: list[dict[str, Any]], result: BulkWriteResult) -> None:
        self.errors = sorted(errors, key=lambda entry: entry["index"])
        self.index: int = self.errors[0]["index"]
        self.result = result
        first = self.errors[0]
        more = f" (and {len(self.errors) - 1} more)" if len(self.errors) > 1 else ""
        super().__init__(
            f"bulk write failed at index {self.index}: {first['code']}: {first['message']}{more}"
        )
