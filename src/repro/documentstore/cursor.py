"""Cursors and operation results.

``find()`` returns a :class:`Cursor` (Section 4.1.3.1 of the thesis iterates
such cursors in the EmbedDocuments algorithm).  A cursor is *lazy*: chained
``sort``/``skip``/``limit``/``batch_size``/``hint`` calls only refine the
cursor's :class:`~repro.documentstore.findspec.FindSpec`; nothing executes
until the first document is requested, at which point the complete spec is
handed to the executor in one piece.  The same cursor type and front half
(:class:`CollectionSurface`) serve the collection, the router and the client.

Write operations return small result objects mirroring the driver API the
thesis code was written against.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .errors import OperationFailure
from .explain import explain_target, validate_verbosity
from .findspec import FindSpec
from .matching import resolve_path_single

__all__ = [
    "Cursor",
    "CollectionSurface",
    "InsertOneResult",
    "InsertManyResult",
    "UpdateResult",
    "DeleteResult",
    "project_document",
]


#: Sentinel distinguishing a legitimately-``None`` value from a missing path
#: during projection (a dotted inclusion path must not materialize ``None``
#: for fields the document never had).
_MISSING = object()


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


class Cursor:
    """Lazy, chainable result iterator for ``find()``.

    The cursor owns a :class:`FindSpec` and two executor callables.
    ``execute(spec)`` must return an iterable of final result documents
    (already filtered, sorted, sliced, and projected); ``explain(spec)`` is
    the owning collection's ``explain``, so ``find(...).explain()`` returns
    the same schema-v1 document as ``collection.explain(spec)`` on every
    surface.  Execution is deferred until the first document is requested;
    consumed documents are cached so a cursor can be iterated more than once
    without re-executing.
    """

    def __init__(
        self,
        execute: Callable[[FindSpec], Iterable[dict[str, Any]]],
        spec: FindSpec | None = None,
        explain: Callable[[FindSpec], dict[str, Any]] | None = None,
    ) -> None:
        self._execute = execute
        self._explain = explain
        self._spec = spec or FindSpec()
        self._source: Iterator[dict[str, Any]] | None = None
        self._consumed: list[dict[str, Any]] = []
        self._exhausted = False
        self._position = 0

    # -- the spec ----------------------------------------------------------

    @property
    def spec(self) -> FindSpec:
        """The (immutable) find specification this cursor will execute."""
        return self._spec

    # -- chaining ----------------------------------------------------------

    def sort(self, key_or_list: str | Sequence[tuple[str, int]], direction: int = 1) -> "Cursor":
        """Sort the results; accepts a field name or a list of pairs."""
        self._chain(self._spec.with_sort(key_or_list, direction))
        return self

    def skip(self, count: int) -> "Cursor":
        """Skip the first *count* results."""
        self._chain(self._spec.with_skip(count))
        return self

    def limit(self, count: int) -> "Cursor":
        """Limit the number of returned results."""
        self._chain(self._spec.with_limit(count))
        return self

    def batch_size(self, count: int) -> "Cursor":
        """Set the response batch size (per network message on a cluster)."""
        self._chain(self._spec.with_batch_size(count))
        return self

    def hint(self, index_name: str) -> "Cursor":
        """Force the planner to use the index called *index_name*."""
        self._chain(self._spec.with_hint(index_name))
        return self

    def _chain(self, spec: FindSpec) -> None:
        if self._source is not None:
            raise OperationFailure("cannot modify a cursor after iteration started")
        self._spec = spec

    # -- execution ----------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._source is None:
            self._source = iter(self._execute(self._spec))

    def _pull(self) -> dict[str, Any] | None:
        """Fetch one more document from the executor into the cache."""
        self._ensure_started()
        if self._exhausted:
            return None
        assert self._source is not None
        try:
            document = next(self._source)
        except StopIteration:
            self._exhausted = True
            return None
        self._consumed.append(document)
        return document

    def _materialize(self) -> list[dict[str, Any]]:
        while self._pull() is not None:
            pass
        return self._consumed

    def __iter__(self) -> Iterator[dict[str, Any]]:
        index = 0
        while True:
            if index < len(self._consumed):
                yield self._consumed[index]
                index += 1
                continue
            if self._pull() is None:
                return

    def __len__(self) -> int:
        return len(self._materialize())

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self._materialize()[index]

    @property
    def alive(self) -> bool:
        """True while there are unread results (``cursor.hasNext()``)."""
        if self._position < len(self._consumed):
            return True
        return self._pull() is not None

    def next(self) -> dict[str, Any]:
        """Return the next unread document (``cursor.next()``)."""
        if self._position >= len(self._consumed) and self._pull() is None:
            raise StopIteration("cursor exhausted")
        document = self._consumed[self._position]
        self._position += 1
        return document

    def to_list(self) -> list[dict[str, Any]]:
        """Materialize and return every result as a list."""
        return list(self._materialize())

    def count(self) -> int:
        """Return the number of results."""
        return len(self._materialize())

    def explain(self) -> dict[str, Any]:
        """The unified explain document for this cursor's complete spec."""
        if self._explain is None:
            raise OperationFailure("this cursor's executor does not support explain")
        return self._explain(self._spec)


@dataclass(frozen=True)
class InsertOneResult:
    """Result of ``insert_one``."""

    inserted_id: Any
    acknowledged: bool = True


@dataclass(frozen=True)
class InsertManyResult:
    """Result of ``insert_many``."""

    inserted_ids: list[Any] = field(default_factory=list)
    acknowledged: bool = True


@dataclass(frozen=True)
class UpdateResult:
    """Result of ``update_one`` / ``update_many``."""

    matched_count: int
    modified_count: int
    upserted_id: Any | None = None
    acknowledged: bool = True


@dataclass(frozen=True)
class DeleteResult:
    """Result of ``delete_one`` / ``delete_many``."""

    deleted_count: int
    acknowledged: bool = True


class CollectionSurface:
    """The front half ``Collection``, ``RoutedCollection`` and ``RemoteCollection`` share.

    A surface supplies ``name``, ``_database_name``, ``insert_many`` and the
    primitives ``_execute_find``, ``_explain_spec`` and ``_explain_pipeline``.
    """

    @property
    def full_name(self) -> str:
        """The namespaced name, ``database.collection`` (bare when free-standing)."""
        database_name = self._database_name
        return self.name if database_name is None else f"{database_name}.{self.name}"

    def find(
        self,
        query: Mapping[str, Any] | None = None,
        projection: Mapping[str, Any] | None = None,
        *,
        sort: str | Sequence[tuple[str, int]] | Mapping[str, int] | None = None,
        skip: int = 0,
        limit: int = 0,
        batch_size: int | None = None,
        hint: str | None = None,
    ) -> Cursor:
        """Return a lazy cursor over the documents matching *query*.

        Options given here or chained reach the executor as one :class:`FindSpec`.
        """
        spec = FindSpec.create(
            query, projection, sort=sort, skip=skip, limit=limit, batch_size=batch_size, hint=hint
        )
        return Cursor(self._execute_find, spec=spec, explain=self.explain)

    def find_one(
        self,
        query: Mapping[str, Any] | None = None,
        projection: Mapping[str, Any] | None = None,
        *,
        sort: str | Sequence[tuple[str, int]] | Mapping[str, int] | None = None,
    ) -> dict[str, Any] | None:
        """Return one matching document, or ``None``."""
        for document in self.find(query, projection, sort=sort, limit=1):
            return document
        return None

    def explain(
        self,
        query_or_pipeline: Mapping[str, Any] | Sequence[Mapping[str, Any]] | FindSpec | None = None,
        *,
        verbosity: str = "queryPlanner",
    ) -> dict[str, Any]:
        """The unified explain entry point (schema v1, see ``explain.py``).

        A filter mapping (or ``None``) or a complete :class:`FindSpec` explains
        a find, a sequence of stages an aggregation; ``"executionStats"`` also
        runs the operation, but never writes a trailing ``$out``.
        """
        validate_verbosity(verbosity)
        target = explain_target(query_or_pipeline)
        if isinstance(target, FindSpec):
            return self._explain_spec(target, verbosity)
        return self._explain_pipeline(target, verbosity)

    def insert_one(self, document: Mapping[str, Any]) -> InsertOneResult:
        """Insert a single document (a one-document ``insert_many``)."""
        return InsertOneResult(inserted_id=self.insert_many([document]).inserted_ids[0])
