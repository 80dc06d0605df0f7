"""Secondary indexes.

Section 2.1.2 of the paper describes the index types the store must provide:
the default ``_id`` index, single-field indexes, compound indexes with index
prefixes, multikey indexes over arrays of embedded documents, and hashed
indexes (used for hash-based shard keys).  Geospatial and text indexes are not
needed by any thesis workload and are intentionally out of scope.

Indexes are kept as sorted arrays of ``(key, document_id)`` pairs with binary
search for point and range lookups — an array-backed B-tree stand-in with the
same asymptotics for reads (``O(log n)`` lookups) that the thesis analysis
assumes in Section 4.1.3.1.1.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from .bson import encode_document
from .errors import DuplicateKeyError, OperationFailure
from .matching import compare_values, resolve_path
from .ordering import OrderedValue

__all__ = [
    "IndexSpec",
    "Index",
    "BulkUndo",
    "hashed_value",
    "ASCENDING",
    "DESCENDING",
    "HASHED",
    "VECTOR",
    "BTREE_TYPE",
    "VECTOR_TYPE",
    "VECTOR_METRICS",
]

ASCENDING = 1
DESCENDING = -1
HASHED = "hashed"
#: Key direction marker used by vector indexes (``[("embedding", "vector")]``).
VECTOR = "vector"

#: Index types accepted by the structured ``create_index`` spec.
BTREE_TYPE = "btree"
VECTOR_TYPE = "vector"

#: Similarity metrics a vector index can be declared with.
VECTOR_METRICS = ("cosine", "l2")

#: Fields allowed in a structured index spec document.
_STRUCTURED_SPEC_FIELDS = frozenset(
    {"keys", "type", "dims", "metric", "unique", "name", "nlist"}
)

_MISSING_KEY = None  # documents without the indexed field index a null key

#: Canonical index key stored for embedded-document values.  Indexing the
#: deep value of an embedded document is never useful to the reproduction's
#: query planner but is very expensive to keep sorted (the denormalization
#: algorithm replaces millions of scalar foreign keys with documents), so
#: every document-valued key collapses to this marker.  Lookups canonicalize
#: their operands the same way, which keeps index results a superset of the
#: true matches — the matcher always re-checks candidates.
_EMBEDDED_DOCUMENT_KEY = "\x00$embedded-document"


def _canonical_key_value(value: Any) -> Any:
    """Map a document value to the value actually stored in the index."""
    if isinstance(value, Mapping):
        return _EMBEDDED_DOCUMENT_KEY
    return value


def hashed_value(value: Any) -> int:
    """Return the 64-bit hash used by hashed indexes and hashed shard keys."""
    if isinstance(value, (dict, list, tuple)):
        payload = encode_document({"v": value})
    else:
        payload = repr(value).encode("utf-8")
    digest = hashlib.md5(payload).digest()
    return int.from_bytes(digest[:8], "big", signed=False)


# The index key arrays reuse the shared total-order wrapper so bisect, sort,
# and the aggregation layer agree on one value ordering.
_OrderedKey = OrderedValue


def _ordered_tuple(values: Sequence[Any]) -> tuple[_OrderedKey, ...]:
    return tuple(_OrderedKey(value) for value in values)


@dataclass(frozen=True)
class IndexSpec:
    """Declarative description of an index.

    ``keys`` is an ordered sequence of ``(field, direction)`` pairs where
    direction is ``1`` (ascending), ``-1`` (descending), ``"hashed"``, or
    ``"vector"`` (vector indexes only).  ``type`` selects the index family:
    ``"btree"`` (the sorted-array default) or ``"vector"`` (kNN/ANN over a
    single embedding field, configured by ``dims``/``metric``/``nlist``).
    """

    keys: tuple[tuple[str, Any], ...]
    unique: bool = False
    name: str = field(default="")
    type: str = BTREE_TYPE
    dims: int = 0
    metric: str = ""
    nlist: int = 0
    #: Derived from ``keys`` once per spec — the planner reads both several
    #: times per operation.  Not part of the spec's value: excluded from
    #: ``==``, ``hash``, ``repr`` and :meth:`describe`.
    fields: tuple[str, ...] = field(init=False, compare=False, repr=False)
    is_hashed: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.keys:
            raise OperationFailure("an index requires at least one key")
        if self.type == VECTOR_TYPE:
            self._validate_vector()
        elif self.type == BTREE_TYPE:
            self._validate_btree()
        else:
            raise OperationFailure(
                f"unknown index type {self.type!r} (expected 'btree' or 'vector')"
            )
        if not self.name:
            generated = "_".join(f"{field_}_{direction}" for field_, direction in self.keys)
            object.__setattr__(self, "name", generated)
        object.__setattr__(self, "fields", tuple(field_ for field_, _direction in self.keys))
        object.__setattr__(
            self, "is_hashed", any(direction == HASHED for _field, direction in self.keys)
        )

    def _validate_btree(self) -> None:
        hashed_fields = [f for f, direction in self.keys if direction == HASHED]
        if hashed_fields and len(self.keys) > 1:
            raise OperationFailure("hashed indexes must be single-field")
        if any(direction == VECTOR for _field, direction in self.keys):
            raise OperationFailure(
                "'vector' key direction requires an index of type 'vector'"
            )
        for option in ("dims", "metric", "nlist"):
            if getattr(self, option):
                raise OperationFailure(
                    f"{option!r} only applies to indexes of type 'vector'"
                )

    def _validate_vector(self) -> None:
        if len(self.keys) != 1:
            raise OperationFailure("a vector index covers exactly one field")
        field_path, direction = self.keys[0]
        if direction != VECTOR:
            # Normalize: structured specs may declare the key as a plain
            # field name; canonical form stores ("field", "vector").
            object.__setattr__(self, "keys", ((field_path, VECTOR),))
        if self.unique:
            raise OperationFailure("vector indexes cannot be unique")
        if not isinstance(self.dims, int) or isinstance(self.dims, bool) or self.dims <= 0:
            raise OperationFailure(
                "a vector index requires 'dims': a positive integer dimensionality"
            )
        if not self.metric:
            object.__setattr__(self, "metric", "cosine")
        if self.metric not in VECTOR_METRICS:
            raise OperationFailure(
                f"unknown vector metric {self.metric!r} "
                f"(expected one of {', '.join(VECTOR_METRICS)})"
            )
        if not isinstance(self.nlist, int) or isinstance(self.nlist, bool) or self.nlist < 0:
            raise OperationFailure("'nlist' must be a non-negative integer")

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
        structured spec document ``{"keys": [...], "type": ..., "dims": ...,
        "metric": ..., "unique": ..., "name": ..., "nlist": ...}`` (any mapping
        containing a ``"keys"`` entry).  The structured form is what
        ``list_indexes`` returns, so specs round-trip.
        """
        if isinstance(keys, Mapping) and "keys" in keys:
            return cls._from_structured(keys, unique=unique, name=name)
        if isinstance(keys, str):
            normalized: tuple[tuple[str, Any], ...] = ((keys, ASCENDING),)
        elif isinstance(keys, Mapping):
            normalized = tuple((str(k), v) for k, v in keys.items())
        else:
            normalized = tuple((str(k), v) for k, v in keys)
        return cls(keys=normalized, unique=unique, name=name)

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
        raw_keys = spec["keys"]
        if isinstance(raw_keys, str):
            normalized: tuple[tuple[str, Any], ...] = ((raw_keys, ASCENDING),)
        elif isinstance(raw_keys, Mapping):
            normalized = tuple((str(k), v) for k, v in raw_keys.items())
        else:
            try:
                normalized = tuple(
                    (str(pair), ASCENDING)
                    if isinstance(pair, str)
                    else (str(pair[0]), pair[1])
                    for pair in raw_keys
                )
            except (TypeError, IndexError):
                raise OperationFailure(
                    "index spec 'keys' must be a field name, a mapping, or a "
                    "sequence of (field, direction) pairs"
                ) from None
        index_type = str(spec.get("type") or BTREE_TYPE)
        dims = spec.get("dims", 0)
        nlist = spec.get("nlist", 0)
        if index_type == VECTOR_TYPE:
            # Plain field names in a vector spec's keys mean the vector field.
            normalized = tuple(
                (field_path, VECTOR if direction == ASCENDING else direction)
                for field_path, direction in normalized
            )
        return cls(
            keys=normalized,
            unique=bool(spec.get("unique", unique)),
            name=str(spec.get("name") or name or ""),
            type=index_type,
            dims=dims if dims is not None else 0,
            metric=str(spec.get("metric") or ""),
            nlist=nlist if nlist is not None else 0,
        )

    def describe(self) -> dict[str, Any]:
        """The structured spec document for this index (round-trippable).

        The returned mapping is accepted back by :meth:`from_key_specification`
        and is what ``list_indexes``, WAL index-DDL records, and the wire
        protocol's ``createIndexes`` command carry.
        """
        described: dict[str, Any] = {
            "name": self.name,
            "type": self.type,
            "keys": [list(pair) for pair in self.keys],
            "unique": self.unique,
        }
        if self.type == VECTOR_TYPE:
            described["dims"] = self.dims
            described["metric"] = self.metric
            if self.nlist:
                described["nlist"] = self.nlist
        return described

    @property
    def is_vector(self) -> bool:
        """True if this is a vector index."""
        return self.type == VECTOR_TYPE


class Index:
    """A sorted-array secondary index over one collection."""

    def __init__(self, spec: IndexSpec) -> None:
        self.spec = spec
        # Parallel arrays: _keys is sorted; _entries[i] is (raw_key, doc_id).
        self._keys: list[tuple[_OrderedKey, ...]] = []
        self._entries: list[tuple[tuple[Any, ...], int]] = []
        # Entries whose key does not order like the underlying document value
        # (embedded documents collapse to a canonical marker, arrays fan out
        # into per-element keys).  The planner must not serve a sort from
        # this index while any such entry exists.
        self._order_unsafe_entries = 0

    # -- key extraction ----------------------------------------------------

    def _expand_keys(
        self, document: Mapping[str, Any]
    ) -> tuple[list[tuple[Any, ...]], bool]:
        """Return ``(keys, order_safe)`` for *document*.

        ``order_safe`` is False when any indexed value is an array (multikey
        fan-out indexes elements, not the array the sort comparator sees) or
        an embedded document (collapsed to a canonical marker) — either way
        the stored key order diverges from the document sort order.
        """
        order_safe = True
        per_field_values: list[list[Any]] = []
        for field_path, direction in self.spec.keys:
            values = resolve_path(document, field_path)
            if not values:
                values = [_MISSING_KEY]
            elif len(values) > 1:
                # Dotted path through an array of subdocuments: fan-out.
                order_safe = False
            expanded: list[Any] = []
            for value in values:
                if isinstance(value, (list, tuple)):
                    # Multikey: each array element produces its own key.
                    order_safe = False
                    expanded.extend(value if value else [_MISSING_KEY])
                else:
                    if isinstance(value, Mapping):
                        order_safe = False
                    expanded.append(value)
            if direction == HASHED:
                expanded = [hashed_value(value) for value in expanded]
            else:
                expanded = [_canonical_key_value(value) for value in expanded]
            per_field_values.append(expanded)

        keys: list[tuple[Any, ...]] = [()]
        for values in per_field_values:
            keys = [existing + (value,) for existing in keys for value in values]
        if len(keys) == 1:
            # No fan-out (the overwhelmingly common scalar case): nothing to
            # deduplicate, skip the repr() round trip entirely.
            return keys, order_safe
        # Deduplicate while keeping deterministic order.
        seen: set[str] = set()
        unique_keys = []
        for key in keys:
            marker = repr(key)
            if marker not in seen:
                seen.add(marker)
                unique_keys.append(key)
        return unique_keys, order_safe

    # -- maintenance ---------------------------------------------------------

    def insert(self, document: Mapping[str, Any], doc_id: int) -> None:
        """Index *document* stored under *doc_id*."""
        keys, order_safe = self._expand_keys(document)
        for key in keys:
            ordered = _ordered_tuple(key)
            if self.spec.unique:
                position = bisect.bisect_left(self._keys, ordered)
                if position < len(self._keys) and self._keys[position] == ordered:
                    raise DuplicateKeyError(self.spec.name, key)
            position = bisect.bisect_right(self._keys, ordered)
            self._keys.insert(position, ordered)
            self._entries.insert(position, (key, doc_id))
            if not order_safe:
                self._order_unsafe_entries += 1

    def _prepare_batch(
        self, documents: Iterable[tuple[int, Mapping[str, Any]]]
    ) -> list[tuple[tuple[_OrderedKey, ...], tuple[Any, ...], int, bool]]:
        """Extract and sort every entry a batch of documents produces.

        Returns ``(ordered_key, raw_key, doc_id, order_safe)`` tuples sorted
        by ordered key.  The sort is stable, so entries with equal keys keep
        batch order — the same relative order sequential :meth:`insert`
        (``bisect_right``) produces.
        """
        additions = []
        for doc_id, document in documents:
            keys, order_safe = self._expand_keys(document)
            for key in keys:
                additions.append((_ordered_tuple(key), key, doc_id, order_safe))
        additions.sort(key=lambda entry: entry[0])
        return additions

    def _check_batch_unique(
        self,
        additions: list[tuple[tuple[_OrderedKey, ...], tuple[Any, ...], int, bool]],
    ) -> None:
        """Raise on adjacent duplicate keys in a sorted batch (unique indexes)."""
        if not self.spec.unique:
            return
        previous: tuple[_OrderedKey, ...] | None = None
        for ordered, key, _doc_id, _safe in additions:
            if previous is not None and ordered == previous:
                raise DuplicateKeyError(self.spec.name, key)
            previous = ordered

    def bulk_insert(self, documents: Iterable[tuple[int, Mapping[str, Any]]]) -> "BulkUndo":
        """Index a whole batch in one pass; returns a rollback handle.

        The batch's keys are extracted and sorted once, then merged with the
        existing sorted arrays — n binary searches and one copy of the m
        existing entries for n new keys, instead of n binary searches each
        followed by an O(m) ``list.insert``.  Unique violations (within the
        batch or against existing entries) are detected during the merge and
        raise *before* the index is modified, so a failed ``bulk_insert``
        leaves the index untouched.
        """
        additions = self._prepare_batch(documents)
        if not additions:
            return BulkUndo(self, truncate_to=len(self._entries))
        self._check_batch_unique(additions)
        unsafe = sum(1 for entry in additions if not entry[3])
        if not self._keys or not additions[0][0] < self._keys[-1]:
            # Append fast path: the whole batch sorts at or after the last
            # existing key (sequential loads into the _id index always land
            # here), so no merge — and no array copy — is needed.
            if self.spec.unique and self._keys and self._keys[-1] == additions[0][0]:
                raise DuplicateKeyError(self.spec.name, additions[0][1])
            undo = BulkUndo(self, truncate_to=len(self._entries), unsafe=unsafe)
            self._keys.extend(entry[0] for entry in additions)
            self._entries.extend((entry[1], entry[2]) for entry in additions)
            self._order_unsafe_entries += unsafe
            return undo
        merged_keys, merged_entries = self._merge_sorted(additions)
        undo = BulkUndo(
            self,
            keys=self._keys,
            entries=self._entries,
            unsafe=self._order_unsafe_entries,
        )
        self._keys = merged_keys
        self._entries = merged_entries
        self._order_unsafe_entries += unsafe
        return undo

    def _merge_sorted(
        self,
        additions: list[tuple[tuple[_OrderedKey, ...], tuple[Any, ...], int, bool]],
    ) -> tuple[list[tuple[_OrderedKey, ...]], list[tuple[tuple[Any, ...], int]]]:
        """Merge sorted *additions* into new key/entry arrays.

        One bisect per new key finds where it goes — after the existing keys
        equal to it, as :meth:`insert` places it — and the run of existing
        entries before it is copied as one slice.
        """
        unique = self.spec.unique
        old_keys, old_entries = self._keys, self._entries
        keys: list[tuple[_OrderedKey, ...]] = []
        entries: list[tuple[tuple[Any, ...], int]] = []
        position = 0
        for ordered, key, doc_id, _safe in additions:
            end = bisect.bisect_right(old_keys, ordered, position)
            if unique and end and old_keys[end - 1] == ordered:
                raise DuplicateKeyError(self.spec.name, key)
            keys += old_keys[position:end]
            keys.append(ordered)
            entries += old_entries[position:end]
            entries.append((key, doc_id))
            position = end
        keys += old_keys[position:]
        entries += old_entries[position:]
        return keys, entries

    def rebuild(self, documents: Iterable[tuple[int, Mapping[str, Any]]]) -> None:
        """Rebuild the index from scratch with a single sort.

        Used for deferred index builds (``create_index`` over a populated
        collection and ``bulk_load`` exit): one key extraction pass and one
        sort replace per-document ``list.insert`` maintenance.  Unique
        violations raise before the old entries are replaced.
        """
        additions = self._prepare_batch(documents)
        self._check_batch_unique(additions)
        self._keys = [entry[0] for entry in additions]
        self._entries = [(entry[1], entry[2]) for entry in additions]
        self._order_unsafe_entries = sum(1 for entry in additions if not entry[3])

    def remove(self, document: Mapping[str, Any], doc_id: int) -> None:
        """Remove the entries of *document* stored under *doc_id*."""
        keys, order_safe = self._expand_keys(document)
        for key in keys:
            ordered = _ordered_tuple(key)
            position = bisect.bisect_left(self._keys, ordered)
            while position < len(self._keys) and self._keys[position] == ordered:
                if self._entries[position][1] == doc_id:
                    del self._keys[position]
                    del self._entries[position]
                    if not order_safe:
                        self._order_unsafe_entries -= 1
                    break
                position += 1

    def replace(
        self,
        old_document: Mapping[str, Any],
        new_document: Mapping[str, Any],
        doc_id: int,
    ) -> None:
        """Re-index *doc_id* after an update changed the document."""
        self.remove(old_document, doc_id)
        self.insert(new_document, doc_id)

    def clear(self) -> None:
        """Drop every entry (used when a collection is emptied)."""
        self._keys.clear()
        self._entries.clear()
        self._order_unsafe_entries = 0

    @property
    def order_safe(self) -> bool:
        """True when every stored key orders exactly like its document value."""
        return self._order_unsafe_entries == 0

    # -- lookups -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def point_lookup(self, key: Sequence[Any]) -> list[int]:
        """Return the document ids whose full index key equals *key*."""
        if self.spec.is_hashed:
            key = tuple(hashed_value(value) for value in key)
        else:
            key = tuple(_canonical_key_value(value) for value in key)
        ordered = _ordered_tuple(tuple(key))
        position = bisect.bisect_left(self._keys, ordered)
        matches: list[int] = []
        while position < len(self._keys) and self._keys[position] == ordered:
            matches.append(self._entries[position][1])
            position += 1
        return matches

    def prefix_lookup(self, prefix: Sequence[Any]) -> list[int]:
        """Return document ids whose key starts with *prefix* (index prefix)."""
        ordered_prefix = _ordered_tuple(
            tuple(_canonical_key_value(value) for value in prefix)
        )
        position = bisect.bisect_left(self._keys, ordered_prefix)
        matches: list[int] = []
        while position < len(self._keys):
            key = self._keys[position]
            if key[: len(ordered_prefix)] != ordered_prefix:
                break
            matches.append(self._entries[position][1])
            position += 1
        return matches

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
        if self.spec.is_hashed:
            raise OperationFailure("hashed indexes do not support range scans")
        lower = _canonical_key_value(lower) if lower is not None else None
        upper = _canonical_key_value(upper) if upper is not None else None
        if lower is None:
            start = 0
        else:
            bound = (_OrderedKey(lower),)
            start = (
                bisect.bisect_left(self._keys, bound)
                if include_lower
                else bisect.bisect_right(self._keys, bound + (_OrderedKey(_Max()),))
            )
        matches: list[int] = []
        for position in range(start, len(self._keys)):
            first = self._entries[position][0][0]
            if lower is not None:
                ordering = compare_values(first, lower)
                if ordering < 0 or (ordering == 0 and not include_lower):
                    continue
            if upper is not None:
                ordering = compare_values(first, upper)
                if ordering > 0 or (ordering == 0 and not include_upper):
                    break
            matches.append(self._entries[position][1])
        return matches

    def scan(self, reverse: bool = False) -> Iterator[tuple[tuple[Any, ...], int]]:
        """Iterate over ``(key, doc_id)`` pairs in key order."""
        entries: Iterable[tuple[tuple[Any, ...], int]] = self._entries
        if reverse:
            entries = reversed(self._entries)
        yield from entries

    def ordered_doc_ids(self, reverse: bool = False) -> Iterator[int]:
        """Yield document ids in index-key order (used to serve a sort)."""
        for _key, doc_id in self.scan(reverse=reverse):
            yield doc_id

    def distinct_first_values(self) -> list[Any]:
        """Distinct values of the leading key (used for chunk split points)."""
        distinct: list[Any] = []
        previous: object = object()
        for key, _doc_id in self._entries:
            first = key[0]
            if previous is object() or compare_values(first, previous) != 0:
                distinct.append(first)
                previous = first
        return distinct


class BulkUndo:
    """Rollback handle for one :meth:`Index.bulk_insert` call.

    A bulk insert that took the append fast path is undone by truncating the
    arrays back to their previous length; a merge is undone by restoring the
    previous array objects (the merge builds new lists, so the old ones stay
    valid).  Collections use this to remove a batch from every
    already-updated index when a later index raises a unique violation.
    """

    __slots__ = ("_index", "_keys", "_entries", "_unsafe", "_truncate_to")

    def __init__(
        self,
        index: Index,
        *,
        keys: list | None = None,
        entries: list | None = None,
        unsafe: int = 0,
        truncate_to: int | None = None,
    ) -> None:
        self._index = index
        self._keys = keys
        self._entries = entries
        #: Truncate mode: the unsafe-entry count *added* by the bulk insert.
        #: Swap mode: the unsafe-entry count *before* the bulk insert.
        self._unsafe = unsafe
        self._truncate_to = truncate_to

    def rollback(self) -> None:
        """Restore the index to its state before the bulk insert."""
        index = self._index
        if self._truncate_to is not None:
            del index._keys[self._truncate_to:]
            del index._entries[self._truncate_to:]
            index._order_unsafe_entries -= self._unsafe
        else:
            index._keys = self._keys
            index._entries = self._entries
            index._order_unsafe_entries = self._unsafe


class _Max:
    """Sentinel comparing greater than every other ordered key."""

    def __repr__(self) -> str:  # pragma: no cover
        return "_Max()"
