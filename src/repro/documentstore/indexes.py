"""Secondary indexes.

Section 2.1.2 of the paper describes the index types the store must provide:
the default ``_id`` index, single-field indexes, compound indexes with index
prefixes, multikey indexes over arrays of embedded documents, and hashed
indexes (used for hash-based shard keys).  Geospatial and text indexes are not
needed by any thesis workload and are intentionally out of scope.

Indexes are kept as one sorted array of flat ``(key…, record id)`` tuples with
binary search for point, prefix and range lookups — an array-backed B-tree
stand-in with the same asymptotics for reads (``O(log n)`` lookups) that the
thesis analysis assumes in Section 4.1.3.1.1.
"""

from __future__ import annotations

import bisect
import datetime as _dt
import hashlib
import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from .bson import encode_document
from .errors import DuplicateKeyError, OperationFailure
from .matching import SCALAR_TYPES, collation_key, compile_path

__all__ = [
    "IndexSpec",
    "Index",
    "BulkUndo",
    "hashed_value",
    "ASCENDING",
    "DESCENDING",
    "HASHED",
]

ASCENDING = 1
DESCENDING = -1
HASHED = "hashed"

#: Fields allowed in a structured index spec document.
_STRUCTURED_SPEC_FIELDS = frozenset({"keys", "type", "unique", "name"})

_MISSING_KEY = None  # documents without the indexed field index a null key

#: Canonical index key stored for embedded-document values.  Indexing the
#: deep value of an embedded document is never useful to the reproduction's
#: query planner but is very expensive to keep sorted (the denormalization
#: algorithm replaces millions of scalar foreign keys with documents), so
#: every document-valued key collapses to this marker.  Lookups canonicalize
#: their operands the same way, which keeps index results a superset of the
#: true matches — the matcher always re-checks candidates.
_EMBEDDED_DOCUMENT_KEY = collation_key("\x00$embedded-document")


def _index_key(value: Any) -> tuple[int, Any]:
    """The collation key an index stores for a document value."""
    if type(value) in SCALAR_TYPES or not isinstance(value, Mapping):
        return collation_key(value)
    return _EMBEDDED_DOCUMENT_KEY


def hashed_value(value: Any) -> int:
    """Return the 64-bit hash hashed shard keys route on.

    Scalars that :func:`~.matching.values_equal` equates hash alike: an
    integral number as its ``int`` (``1.0`` as ``1``, ``-0.0`` as ``0``), a date
    or datetime as the naive UTC instant it denotes (a ``date`` as midnight).
    """
    if isinstance(value, (dict, list, tuple)):
        payload = encode_document({"v": value})
    else:
        if isinstance(value, _dt.date):
            value = collation_key(value)[1]
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            value = int(value) if isinstance(value, int) or value.is_integer() else float(value)
        payload = repr(value).encode("utf-8")
    digest = hashlib.md5(payload).digest()
    return int.from_bytes(digest[:8], "big", signed=False)


#: Appended to a key prefix, sorts after every entry that starts with it: the
#: slot that follows a prefix is always a type rank or a record id, both ints.
_AFTER = (math.inf,)


@dataclass(frozen=True)
class IndexSpec:
    """Declarative description of an index.

    ``keys`` is an ordered sequence of ``(field, direction)`` pairs where
    direction is ``1`` (ascending), ``-1`` (descending) or ``"hashed"``.
    """

    keys: tuple[tuple[str, Any], ...]
    unique: bool = False
    name: str = field(default="")
    #: Derived from ``keys`` once per spec — the planner reads both several
    #: times per operation.  Not part of the spec's value: excluded from
    #: ``==``, ``hash``, ``repr`` and :meth:`describe`.
    fields: tuple[str, ...] = field(init=False, compare=False, repr=False)
    is_hashed: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.keys:
            raise OperationFailure("an index requires at least one key")
        directions = [direction for _field, direction in self.keys]
        for direction in directions:
            if direction not in (ASCENDING, DESCENDING, HASHED):
                raise OperationFailure(
                    f"unsupported index key direction {direction!r} (expected 1, -1 or 'hashed')"
                )
        is_hashed = HASHED in directions
        if is_hashed and len(self.keys) > 1:
            raise OperationFailure("hashed indexes must be single-field")
        if not self.name:
            generated = "_".join(f"{field_}_{direction}" for field_, direction in self.keys)
            object.__setattr__(self, "name", generated)
        object.__setattr__(self, "fields", tuple(field_ for field_, _direction in self.keys))
        object.__setattr__(self, "is_hashed", is_hashed)

    @classmethod
    def from_key_specification(
        cls,
        keys: str | Sequence[tuple[str, Any]] | Mapping[str, Any],
        *,
        unique: bool = False,
        name: str = "",
    ) -> "IndexSpec":
        """Build a spec from the flexible forms accepted by ``create_index``.

        Accepts the legacy sugar forms — a field name, a ``{field: direction}``
        mapping, or a sequence of ``(field, direction)`` pairs — plus the
        structured spec document ``{"keys": [...], "unique": ..., "name":
        ..., "type": "btree"}`` (any mapping containing a ``"keys"`` entry).
        The structured form is what ``list_indexes`` returns, so specs
        round-trip.
        """
        if isinstance(keys, Mapping) and "keys" in keys:
            return cls._from_structured(keys, unique=unique, name=name)
        return cls(keys=_normalized_keys(keys), unique=unique, name=name)

    @classmethod
    def _from_structured(
        cls, spec: Mapping[str, Any], *, unique: bool = False, name: str = ""
    ) -> "IndexSpec":
        unknown = sorted(set(spec) - _STRUCTURED_SPEC_FIELDS)
        if unknown:
            raise OperationFailure(
                f"unknown index spec field(s) {unknown!r}; "
                f"allowed: {sorted(_STRUCTURED_SPEC_FIELDS)!r}"
            )
        # Every index is a btree: "type" is accepted so that described
        # specs round-trip, and refused for any other value.
        if spec.get("type", "btree") != "btree":
            raise OperationFailure(f"unknown index type {spec['type']!r} (expected 'btree')")
        return cls(
            keys=_normalized_keys(spec["keys"]),
            unique=bool(spec.get("unique", unique)),
            name=str(spec.get("name") or name or ""),
        )

    def describe(self) -> dict[str, Any]:
        """The structured spec document for this index (round-trippable).

        The returned mapping is accepted back by :meth:`from_key_specification`
        and is what ``list_indexes``, WAL index-DDL records, and the wire
        protocol's ``createIndexes`` command carry.  ``"type": "btree"`` is
        part of the logged bytes, so it stays.
        """
        return {
            "name": self.name,
            "type": "btree",
            "keys": [list(pair) for pair in self.keys],
            "unique": self.unique,
        }


def _normalized_keys(keys: Any) -> tuple[tuple[str, Any], ...]:
    """``(field, direction)`` pairs from a field name, a mapping or a sequence of pairs or names."""
    if isinstance(keys, str):
        return ((keys, ASCENDING),)
    if isinstance(keys, Mapping):
        return tuple((str(k), v) for k, v in keys.items())
    try:
        return tuple(
            (str(pair), ASCENDING) if isinstance(pair, str) else (str(pair[0]), pair[1])
            for pair in keys
        )
    except (TypeError, IndexError):
        raise OperationFailure(
            "index spec 'keys' must be a field name, a mapping, or a "
            "sequence of (field, direction) pairs"
        ) from None


class Index:
    """A sorted-array secondary index over one collection.

    Every entry is one flat tuple: the collation key of each indexed field —
    a type-rank slot and a payload (:func:`~.matching.collation_key`) — then
    the record id.  Python orders these tuples natively, in exactly
    :func:`~.matching.compare_values`' order and equal keys by record id
    (MongoDB's ``(key, RecordId)``), so ``bisect`` and ``sort`` find every
    entry — the one to remove included — with comparisons made in C.

    A hashed index keys its entries by the field value, as a single-field
    index does: it serves only point lookups, so its key order is never
    observed, and the value's own key keeps ``1``, ``1.0`` and ``-0.0`` one
    key, as the matcher does (:func:`hashed_value` does for scalars only).
    """

    def __init__(self, spec: IndexSpec) -> None:
        self.spec = spec
        self._entries: list[tuple[Any, ...]] = []
        # Entries whose key does not order like the underlying document value
        # (embedded documents collapse to a canonical marker, arrays fan out
        # into per-element keys).  The planner must not serve a sort from
        # this index while any such entry exists.
        self._order_unsafe_entries = 0
        self._resolvers = [compile_path(field_path) for field_path in spec.fields]
        #: The field of a single-field index on a top-level field (fast path).
        single = len(spec.fields) == 1 and "." not in spec.fields[0]
        self._field = spec.fields[0] if single else None

    # -- key extraction ----------------------------------------------------

    def _expand_keys(self, document: Mapping[str, Any]) -> tuple[list[tuple[Any, ...]], bool]:
        """Return ``(keys, order_safe)``: the key of every entry *document* makes.

        ``order_safe`` is False when any indexed value is an array (multikey
        fan-out indexes elements, not the array the sort comparator sees) or
        an embedded document (collapsed to a canonical marker) — either way
        the stored key order diverges from the document sort order.
        """
        if self._field is not None and type(document) is dict:
            value = document.get(self._field)
            if type(value) in SCALAR_TYPES:
                return [collation_key(value)], True
        keys, order_safe = self._fan_out(document, _index_key)
        if len(keys) > 1:
            keys = list(dict.fromkeys(keys))  # a key the fan-out repeats is indexed once
        return keys, order_safe

    def _fan_out(
        self, document: Mapping[str, Any], key_of: Callable[[Any], tuple[Any, ...]]
    ) -> tuple[list[tuple[Any, ...]], bool]:
        """``(keys, order_safe)``: ``key_of`` of each indexed value, joined per combination."""
        order_safe = True
        keys: list[tuple[Any, ...]] = [()]
        for resolve in self._resolvers:
            values = resolve(document) or [_MISSING_KEY]
            if len(values) > 1:
                order_safe = False  # a dotted path through an array of subdocuments
            field_keys = []
            for value in values:
                if isinstance(value, (list, tuple)):
                    # Multikey: each array element produces its own key.
                    order_safe = False
                    field_keys += [key_of(item) for item in value or [_MISSING_KEY]]
                else:
                    if isinstance(value, Mapping):
                        order_safe = False
                    field_keys.append(key_of(value))
            keys = [key + field_key for key in keys for field_key in field_keys]
        return keys, order_safe

    def _raise_duplicate(
        self, entry: tuple[Any, ...], batch: Iterable[tuple[int, Mapping[str, Any]]]
    ) -> None:
        """Raise the unique violation of *entry*, naming the field values that collided."""
        document = next(document for doc_id, document in batch if doc_id == entry[-1])
        keys, _safe = self._fan_out(document, _index_key)
        values, _safe = self._fan_out(document, lambda value: (value,))
        raise DuplicateKeyError(self.spec.name, values[keys.index(entry[:-1])])

    # -- maintenance ---------------------------------------------------------

    def insert(self, document: Mapping[str, Any], doc_id: int) -> None:
        """Index *document* stored under *doc_id*."""
        keys, order_safe = self._expand_keys(document)
        if self.spec.unique:
            for key in keys:
                start, stop = self._span(key)
                if stop > start:
                    self._raise_duplicate(key + (doc_id,), [(doc_id, document)])
        for key in keys:
            bisect.insort(self._entries, key + (doc_id,))
        if not order_safe:
            self._order_unsafe_entries += len(keys)

    def _sorted_batch(
        self, batch: list[tuple[int, Mapping[str, Any]]]
    ) -> tuple[list[tuple[Any, ...]], int]:
        """Every entry a batch makes, sorted, and how many of them are order-unsafe.

        Raises on a unique violation inside the batch.
        """
        additions: list[tuple[Any, ...]] = []
        unsafe = 0
        for doc_id, document in batch:
            keys, order_safe = self._expand_keys(document)
            additions += [key + (doc_id,) for key in keys]
            if not order_safe:
                unsafe += len(keys)
        additions.sort()
        if self.spec.unique:
            for previous, entry in zip(additions, additions[1:]):
                if previous[:-1] == entry[:-1]:
                    self._raise_duplicate(entry, batch)
        return additions, unsafe

    def bulk_insert(self, documents: Iterable[tuple[int, Mapping[str, Any]]]) -> "BulkUndo":
        """Index a whole batch in one pass; returns a rollback handle.

        The batch's entries are built and sorted once, then merged into the
        existing array — one binary search per new entry and one copy of
        the existing entries, instead of an O(n) ``list.insert`` per entry.
        Unique violations (within the batch or against existing entries)
        raise *before* the index is modified, so a failed ``bulk_insert``
        leaves the index untouched.
        """
        batch = list(documents)
        additions, unsafe = self._sorted_batch(batch)
        entries = self._entries
        if not additions or not entries or entries[-1] < additions[0]:
            # Append fast path: the whole batch sorts after the last existing
            # entry (sequential loads into the _id index always land here),
            # so no merge — and no array copy — is needed.
            if self.spec.unique and additions and entries and entries[-1][:-1] == additions[0][:-1]:
                self._raise_duplicate(additions[0], batch)
            undo = BulkUndo(self, truncate_to=len(entries), unsafe=unsafe)
            entries += additions
            self._order_unsafe_entries += unsafe
            return undo
        merged = self._merge_sorted(additions, batch)
        undo = BulkUndo(self, entries=entries, unsafe=self._order_unsafe_entries)
        self._entries = merged
        self._order_unsafe_entries += unsafe
        return undo

    def _merge_sorted(
        self, additions: list[tuple[Any, ...]], batch: list[tuple[int, Mapping[str, Any]]]
    ) -> list[tuple[Any, ...]]:
        """Merge sorted *additions* into a new entry array.

        One bisect per new entry finds where it goes, and the run of existing
        entries before it is copied as one slice.  A unique index holds at
        most one entry per key, which is then a neighbour of that position.
        """
        unique = self.spec.unique
        old = self._entries
        merged: list[tuple[Any, ...]] = []
        position = 0
        for entry in additions:
            end = bisect.bisect_left(old, entry, position)
            if unique and (
                (end and old[end - 1][:-1] == entry[:-1])
                or (end < len(old) and old[end][:-1] == entry[:-1])
            ):
                self._raise_duplicate(entry, batch)
            merged += old[position:end]
            merged.append(entry)
            position = end
        merged += old[position:]
        return merged

    def rebuild(self, documents: Iterable[tuple[int, Mapping[str, Any]]]) -> None:
        """Rebuild the index from scratch with a single sort.

        Used for deferred index builds (``create_index`` over a populated
        collection and ``bulk_load`` exit): one key extraction pass and one
        sort replace per-document ``list.insert`` maintenance.  Unique
        violations raise before the old entries are replaced.
        """
        self._entries, self._order_unsafe_entries = self._sorted_batch(list(documents))

    def remove(self, document: Mapping[str, Any], doc_id: int) -> None:
        """Remove the entries of *document* stored under *doc_id*."""
        keys, order_safe = self._expand_keys(document)
        entries = self._entries
        for key in keys:
            entry = key + (doc_id,)
            position = bisect.bisect_left(entries, entry)
            if position < len(entries) and entries[position] == entry:
                del entries[position]
                if not order_safe:
                    self._order_unsafe_entries -= 1

    def replace(
        self,
        old_document: Mapping[str, Any],
        new_document: Mapping[str, Any],
        doc_id: int,
    ) -> None:
        """Re-index *doc_id* after an update changed the document.

        A unique violation puts the old entries back before it propagates.
        """
        self.remove(old_document, doc_id)
        try:
            self.insert(new_document, doc_id)
        except DuplicateKeyError:
            self.insert(old_document, doc_id)
            raise

    def clear(self) -> None:
        """Drop every entry (used when a collection is emptied)."""
        self._entries.clear()
        self._order_unsafe_entries = 0

    @property
    def order_safe(self) -> bool:
        """True when every stored key orders exactly like its document value."""
        return self._order_unsafe_entries == 0

    # -- lookups -------------------------------------------------------------
    #
    # Each is two bisects and a slice; the counts are the two bisects alone.

    def __len__(self) -> int:
        return len(self._entries)

    def _span(self, prefix: tuple[Any, ...]) -> tuple[int, int]:
        """Positions of the first entry starting with *prefix* and of the first after them."""
        start = bisect.bisect_left(self._entries, prefix)
        return start, bisect.bisect_left(self._entries, prefix + _AFTER, start)

    def _prefix_span(self, prefix: Sequence[Any]) -> tuple[int, int]:
        return self._span(sum(map(_index_key, prefix), ()))

    def _range_span(
        self, lower: Any, upper: Any, include_lower: bool, include_upper: bool
    ) -> tuple[int, int]:
        """Positions bounding the entries whose first field lies in the range.

        A missing bound stops at the other bound's type bracket: a range
        predicate only matches values of its operand's type (``$gte: 0``
        never matches a string, a boolean or NaN).
        """
        if self.spec.is_hashed:
            raise OperationFailure("hashed indexes do not support range scans")
        entries = self._entries
        low = None if lower is None else _index_key(lower)
        high = None if upper is None else _index_key(upper)
        if low is None and high is None:
            return 0, len(entries)
        if low is None:
            start = bisect.bisect_left(entries, high[:1])
        else:
            start = bisect.bisect_left(entries, low if include_lower else low + _AFTER)
        if high is None:
            stop = bisect.bisect_left(entries, (low[0] + 1,), start)
        else:
            stop = bisect.bisect_left(entries, high + _AFTER if include_upper else high, start)
        return start, stop

    def prefix_lookup(self, prefix: Sequence[Any]) -> list[int]:
        """Document ids whose key starts with *prefix* (or is a full key), in key order."""
        start, stop = self._prefix_span(prefix)
        return [entry[-1] for entry in self._entries[start:stop]]

    def count_prefix(self, prefix: Sequence[Any]) -> int:
        """How many entries :meth:`prefix_lookup` would return."""
        start, stop = self._prefix_span(prefix)
        return stop - start

    def range_lookup(
        self,
        lower: Any = None,
        upper: Any = None,
        *,
        include_lower: bool = True,
        include_upper: bool = True,
    ) -> list[int]:
        """Range scan over the first indexed field.

        Hashed indexes cannot serve range scans; callers must fall back to a
        collection scan (this mirrors the behaviour the paper notes for
        hash-based partitioning in Section 2.1.3.3).
        """
        start, stop = self._range_span(lower, upper, include_lower, include_upper)
        return [entry[-1] for entry in self._entries[start:stop]]

    def count_range(
        self,
        lower: Any = None,
        upper: Any = None,
        *,
        include_lower: bool = True,
        include_upper: bool = True,
    ) -> int:
        """How many entries :meth:`range_lookup` would return."""
        start, stop = self._range_span(lower, upper, include_lower, include_upper)
        return stop - start

    def ordered_doc_ids(self, reverse: bool = False) -> Iterator[int]:
        """Document ids in index-key order (used to serve a sort)."""
        return map(_RECORD_ID, reversed(self._entries) if reverse else self._entries)


_RECORD_ID = itemgetter(-1)


class BulkUndo:
    """Rollback handle for one :meth:`Index.bulk_insert` call.

    A bulk insert that took the append fast path is undone by truncating the
    array back to its previous length; a merge is undone by restoring the
    previous array object (the merge builds a new list, so the old one stays
    valid).  Collections use this to remove a batch from every
    already-updated index when a later index raises a unique violation.
    """

    __slots__ = ("_index", "_entries", "_unsafe", "_truncate_to")

    def __init__(
        self,
        index: Index,
        *,
        entries: list | None = None,
        unsafe: int = 0,
        truncate_to: int | None = None,
    ) -> None:
        self._index = index
        self._entries = entries
        #: Truncate mode: the unsafe-entry count *added* by the bulk insert.
        #: Swap mode: the unsafe-entry count *before* the bulk insert.
        self._unsafe = unsafe
        self._truncate_to = truncate_to

    def rollback(self) -> None:
        """Restore the index to its state before the bulk insert."""
        index = self._index
        if self._truncate_to is not None:
            del index._entries[self._truncate_to:]
            index._order_unsafe_entries -= self._unsafe
        else:
            index._entries = self._entries
            index._order_unsafe_entries = self._unsafe
