"""Collections: the document store's core CRUD + aggregation surface.

A :class:`Collection` owns its documents, its indexes (the default ``_id``
index plus any user-created secondary indexes), and exposes the operations
the thesis algorithms rely on:

* ``insert_one`` / ``insert_many`` (data migration, Figure 4.3);
* ``find`` returning a cursor (EmbedDocuments, Figure 4.7, step 3);
* ``update_many`` with ``upsert``/``multi`` semantics (Figure 4.7, step 10);
* ``aggregate`` executing an aggregation pipeline (Appendix B queries);
* ``create_index`` for the index types of Section 2.1.2.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any, ContextManager, Iterator

from .aggregation import CompiledPipeline, StageStats, compile_pipeline, validate_user_pipeline
from .bson import MAX_DOCUMENT_SIZE, deep_copy_document, document_size, require_mapping
from .bson import validate_document, validate_value, value_size
from .bulk import BulkWriteError, BulkWriteResult, DeleteMany, DeleteOne, UpdateMany
from .bulk import apply_operations, checked_operations
from .cursor import (
    CollectionSurface,
    DeleteResult,
    InsertManyResult,
    UpdateResult,
    compile_projection,
)
from .errors import (
    DocumentStoreError,
    DocumentTooLargeError,
    DuplicateKeyError,
    IndexNotFoundError,
    OperationFailure,
)
from .explain import build_execution_stats, build_explain
from .findspec import FindSpec
from .indexes import ASCENDING, Index, IndexSpec
from .matching import SCALAR_TYPES, compile_matcher, distinct_values, resolve_path, values_equal
from .objectid import ObjectId
from .ordering import document_sort_key
from .planner import QueryPlan, plan_find, plan_query
from .update import OperatorUpdate, build_upsert_document, is_update_document, replace_document
from .update import update_shape

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database

__all__ = ["Collection", "CollectionStats", "bulk_load_or_noop"]

#: What a write on a collection without a WAL holds instead of the write lock.
_NO_WAL = nullcontext()


def bulk_load_or_noop(collection: Any) -> ContextManager[Any]:
    """``collection.bulk_load()`` when the target supports it, else a no-op.

    Loaders accept both stand-alone collections (which defer secondary-index
    maintenance during the load) and routed collections (which don't expose
    ``bulk_load`` — the router already batch-routes every insert).
    """
    bulk_load = getattr(collection, "bulk_load", None)
    return bulk_load() if callable(bulk_load) else nullcontext()


class CollectionStats:
    """Size and access statistics for a collection (``collstats`` analogue)."""

    def __init__(self, collection: "Collection") -> None:
        self.name = collection.name
        self.count = len(collection)
        self.size_bytes = collection.data_size()
        self.storage_size_bytes = self.size_bytes
        self.index_count = len(collection.index_information())
        self.index_size_bytes = collection.index_size()
        self.avg_document_size = (
            self.size_bytes / self.count if self.count else 0.0
        )

    def as_dict(self) -> dict[str, Any]:
        """Return the statistics as a plain dictionary."""
        return {
            "ns": self.name,
            "count": self.count,
            "size": self.size_bytes,
            "storageSize": self.storage_size_bytes,
            "nindexes": self.index_count,
            "totalIndexSize": self.index_size_bytes,
            "avgObjSize": self.avg_document_size,
        }


class Collection(CollectionSurface):
    """A named set of documents with indexes."""

    def __init__(self, database: "Database | None", name: str) -> None:
        if not name or "$" in name:
            raise OperationFailure(f"invalid collection name {name!r}")
        self._database = database
        self.name = name
        # Stored documents are immutable and shared: a stored subtree is never
        # mutated in place (an update stores a new version that shares what it
        # did not touch, with the old version and with other documents) and
        # never handed out uncopied — every reader copies it.
        self._documents: dict[int, dict[str, Any]] = {}
        # The one record of a stored document's document_size: measured when
        # first needed (_stored_size), kept by delta through operator updates,
        # dropped with the document or by a replacement.
        self._sizes: dict[int, int] = {}
        self._doc_id_counter = itertools.count(1)
        self._indexes: dict[str, Index] = {}
        self._id_index = Index(IndexSpec(keys=(("_id", ASCENDING),), unique=True, name="_id_"))
        self._indexes["_id_"] = self._id_index
        # Secondary-index deferral (bulk_load / create_index(defer=True)).
        # Deferred or pending indexes are not maintained by writes and not
        # consulted by the planner until rebuild_indexes() brings them back.
        self._defer_secondary_indexes = False
        self._deferred_writes = False
        self._pending_index_builds: set[str] = set()
        # Operation counters used by benchmarks and the sharded router.
        self.operation_counters = {
            "inserts": 0,
            "queries": 0,
            "updates": 0,
            "deletes": 0,
            "documents_scanned": 0,
        }

    # ------------------------------------------------------------------ meta

    @property
    def database(self) -> "Database | None":
        """The owning database (``None`` for free-standing collections)."""
        return self._database

    @property
    def _database_name(self) -> str | None:
        return None if self._database is None else self._database.name

    def __len__(self) -> int:
        return len(self._documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Collection({self.full_name!r}, count={len(self)})"

    def data_size(self) -> int:
        """Total serialized size of all documents, in bytes."""
        return sum(map(self._stored_size, self._documents))

    def _stored_size(self, doc_id: int) -> int:
        """``document_size`` of stored document *doc_id*, measured once while it is stored."""
        size = self._sizes.get(doc_id)
        if size is None:
            size = self._sizes[doc_id] = document_size(self._documents[doc_id])
        return size

    def index_size(self) -> int:
        """Approximate total index size, in bytes (16 bytes per entry)."""
        return sum(16 * len(index) for index in self._indexes.values())

    def stats(self) -> CollectionStats:
        """Return collection statistics."""
        return CollectionStats(self)

    # ------------------------------------------------------------- durability

    def _write_log(self, record: dict[str, Any]) -> None:
        """Append one write record to the owning client's WAL, if any.

        Called *after* the in-memory apply and *before* the operation
        returns, so an acknowledgement implies the record met the engine's
        fsync policy.  Free-standing collections and clients without a data
        directory skip straight through.
        """
        database = self._database
        if database is None:
            return
        engine = database.storage_engine
        if engine is not None:
            engine.log(database.name, self.name, record)

    def _apply_and_log(self) -> Any:
        """What a write holds from its in-memory apply to its log record.

        With a WAL that is the engine's write lock: records reach the log in
        the order they were applied (replaying post-images depends on it) and
        a concurrent ``bulk_write`` cannot be interleaved.
        """
        database = self._database
        engine = database.storage_engine if database is not None else None
        return _NO_WAL if engine is None else engine.write_lock

    # --------------------------------------------------------------- indexes

    def create_index(
        self,
        keys: str | Sequence[tuple[str, Any]] | Mapping[str, Any],
        *,
        unique: bool = False,
        name: str = "",
        defer: bool = False,
    ) -> str:
        """Create a secondary index and return its name.

        Re-creating an index with an identical specification is a no-op.
        The index is built with one key-extraction pass and one sort
        (O(n log n)) rather than n incremental sorted-array inserts.

        *keys* accepts the legacy sugar forms (field name, key list,
        ``{field: direction}`` mapping) or a structured spec document such
        as ``{"keys": [["a", 1], ["b", -1]], "unique": True}`` — the form
        :meth:`list_indexes` returns.

        With ``defer=True`` — or inside a :meth:`bulk_load` block — the
        index is registered but left empty; it is built by the next
        :meth:`rebuild_indexes` call (which ``bulk_load`` exit performs
        automatically).  Until then the planner ignores it.
        """
        spec = IndexSpec.from_key_specification(keys, unique=unique, name=name)
        # Applied and logged under the write lock, like every other write: a
        # concurrent insert is logged on the side of the DDL it was checked on.
        with self._apply_and_log():
            if spec.name in self._indexes:
                return spec.name
            index = Index(spec)
            if defer or self._defer_secondary_indexes:
                self._pending_index_builds.add(spec.name)
            elif self._documents:
                index.rebuild(self._documents.items())
            self._indexes[spec.name] = index
            self._write_log({"op": "create_index", "spec": spec.describe()})
        return spec.name

    def rebuild_indexes(self) -> list[str]:
        """Build every deferred index with one sort each; returns their names.

        A unique violation aborts the offending build: the exception
        propagates, that index stays pending (and invisible to the planner),
        and the remaining pending builds are kept for a later attempt.
        """
        pending = sorted(self._pending_index_builds)
        rebuilt: list[str] = []
        for position, index_name in enumerate(pending):
            index = self._indexes.get(index_name)
            try:
                if index is not None:
                    index.rebuild(self._documents.items())
            except DuplicateKeyError:
                self._pending_index_builds = set(pending[position:])
                raise
            rebuilt.append(index_name)
        self._pending_index_builds.clear()
        return rebuilt

    @contextmanager
    def bulk_load(self) -> Iterator["Collection"]:
        """Context manager deferring secondary-index maintenance for a load.

        Inside the block, inserts (and updates/deletes) maintain only the
        ``_id`` index; the planner answers queries without the stale
        secondary indexes so results stay correct.  On exit every secondary
        index is rebuilt with a single sort — the load-with-index ablation's
        fast shape.  Unique-key enforcement on secondary indexes is deferred
        to the rebuild: a violation surfaces as ``DuplicateKeyError`` on
        exit, with the offending index left pending.

        Nested ``bulk_load`` blocks are no-ops; the outermost exit rebuilds.
        """
        if self._defer_secondary_indexes:
            yield self
            return
        self._defer_secondary_indexes = True
        self._deferred_writes = False
        body_failed = False
        try:
            yield self
        except BaseException:
            body_failed = True
            raise
        finally:
            self._defer_secondary_indexes = False
            if self._deferred_writes:
                self._pending_index_builds.update(
                    index_name for index_name in self._indexes if index_name != "_id_"
                )
            self._deferred_writes = False
            if body_failed:
                # The block is already unwinding: rebuild best-effort, but a
                # deferred unique violation must not mask the original error.
                # Offending indexes stay pending for a later rebuild_indexes().
                try:
                    self.rebuild_indexes()
                except DuplicateKeyError:
                    pass
            else:
                self.rebuild_indexes()

    def drop_index(self, index_name: str) -> None:
        """Drop the index called *index_name* (the ``_id`` index cannot be dropped)."""
        if index_name == "_id_":
            raise OperationFailure("cannot drop the _id index")
        with self._apply_and_log():
            if index_name not in self._indexes:
                raise IndexNotFoundError(index_name)
            del self._indexes[index_name]
            self._pending_index_builds.discard(index_name)
            self._write_log({"op": "drop_index", "name": index_name})

    def index_information(self) -> dict[str, dict[str, Any]]:
        """Describe every index on the collection (legacy shape + ``type``)."""
        information: dict[str, dict[str, Any]] = {}
        for name, index in self._indexes.items():
            information[name] = {
                "key": list(index.spec.keys),
                "unique": index.spec.unique,
                "type": "btree",
            }
        return information

    def list_indexes(self) -> list[dict[str, Any]]:
        """Structured spec documents for every index, in creation order.

        Each entry is accepted back by :meth:`create_index` — specs
        round-trip through ``list_indexes``, the WAL, snapshots, and the
        wire protocol.
        """
        return [index.spec.describe() for index in self._indexes.values()]

    def _live_indexes(self) -> Mapping[str, Index]:
        """The indexes the planner (and write maintenance) may rely on.

        Deferred-mode secondaries and pending (unbuilt) indexes are stale or
        empty, so they are excluded until :meth:`rebuild_indexes` runs.
        """
        if self._defer_secondary_indexes:
            return {"_id_": self._id_index}
        if self._pending_index_builds:
            return {
                index_name: index
                for index_name, index in self._indexes.items()
                if index_name not in self._pending_index_builds
            }
        return self._indexes

    # --------------------------------------------------------------- inserts

    def _prepare_for_insert(self, document: Mapping[str, Any]) -> dict[str, Any]:
        """Deep-copy *document* once, assign an ``_id``, and validate it."""
        prepared = deep_copy_document(require_mapping(document))
        if "_id" not in prepared:
            prepared["_id"] = ObjectId()
        validate_document(prepared)
        return prepared

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> InsertManyResult:
        """Insert many documents with one maintenance pass per index.

        The whole batch is validated and ``_id``-assigned first (one deep
        copy per document), so a malformed or oversized document rejects the
        entire batch before anything is stored — driver-style client-side
        validation.  Each index then absorbs the batch through a single
        sorted merge instead of one ``list.insert`` per key.  On a
        unique-key violation the bulk merge is rolled back from every index
        and the batch is replayed document-by-document, so the stored prefix
        and the raised error match ordered (stop-at-first-failure) mode.
        """
        return self._insert_batch([self._prepare_for_insert(document) for document in documents])

    def execute_insert(self, documents: list[dict[str, Any]]) -> InsertManyResult:
        """:meth:`insert_many` of documents the caller (the router) validated and gave ``_id``s."""
        return self._insert_batch(deep_copy_document(documents))

    def _insert_batch(self, prepared: list[dict[str, Any]]) -> InsertManyResult:
        if not prepared:
            return InsertManyResult(inserted_ids=[])
        with self._apply_and_log():
            try:
                self._bulk_insert_prepared(prepared)
                self.operation_counters["inserts"] += len(prepared)
                self._write_log({"op": "insert", "docs": prepared})
            except DuplicateKeyError:
                inserted = 0
                try:
                    for document in prepared:
                        self._insert_prepared(document)
                        self.operation_counters["inserts"] += 1
                        inserted += 1
                finally:
                    # Ordered mode stores the prefix before the duplicate; the
                    # WAL must cover exactly that stored prefix even though the
                    # error propagates to the caller.
                    if inserted:
                        self._write_log({"op": "insert", "docs": prepared[:inserted]})
        return InsertManyResult(inserted_ids=[document["_id"] for document in prepared])

    def _maintained_indexes(self) -> list[Index]:
        """The indexes writes must maintain (deferred/pending ones rebuild later)."""
        return [
            index
            for index_name, index in self._indexes.items()
            if index_name == "_id_"
            or (not self._defer_secondary_indexes and index_name not in self._pending_index_builds)
        ]

    def _bulk_insert_prepared(self, documents: Sequence[dict[str, Any]]) -> list[int]:
        """Insert a prepared batch through the bulk index-merge path."""
        if self._defer_secondary_indexes:
            self._deferred_writes = True
        batch = [(next(self._doc_id_counter), document) for document in documents]
        undo_handles = []
        try:
            # dict order guarantees the unique _id index is merged first.
            for index in self._maintained_indexes():
                undo_handles.append(index.bulk_insert(batch))
        except DocumentStoreError:
            # A unique violation rolls back the batch from every
            # already-merged index before propagating.
            for handle in reversed(undo_handles):
                handle.rollback()
            raise
        for doc_id, document in batch:
            self._documents[doc_id] = document
        return [doc_id for doc_id, _document in batch]

    def _insert_prepared(self, document: dict[str, Any]) -> int:
        if self._defer_secondary_indexes:
            self._deferred_writes = True
        doc_id = next(self._doc_id_counter)
        # The unique _id index comes first in dict order, so duplicate _ids
        # abort before any secondary index is touched.
        updated: list[Index] = []
        try:
            for index in self._maintained_indexes():
                index.insert(document, doc_id)
                updated.append(index)
        except DocumentStoreError:
            # Remove the document from every index updated so far — a
            # violation on the k-th secondary index must not leave entries
            # behind in indexes 1..k-1.
            for index in updated:
                index.remove(document, doc_id)
            raise
        self._documents[doc_id] = document
        return doc_id

    # ---------------------------------------------------------------- reads

    def _candidate_ids(self, query: Mapping[str, Any] | None) -> list[int]:
        plan = plan_query(query, self._live_indexes(), len(self._documents))
        return list(self._documents if plan.candidate_ids is None else plan.candidate_ids)

    # -- the FindSpec executor ----------------------------------------------

    def _plan_find(self, spec: FindSpec) -> QueryPlan:
        indexes = self._live_indexes()
        hint = spec.hint
        if hint is not None and hint not in indexes and hint in self._indexes:
            # The hinted index exists but is hidden (deferred by bulk_load or
            # pending a build): plan without the hint rather than erroring.
            hint = None
        return plan_find(
            spec.filter,
            spec.sort,
            indexes,
            len(self._documents),
            hint=hint,
            fetch_bound=spec.fetch_bound,
        )

    def _execute_find(
        self, spec: FindSpec, *, copy: bool = True, ids: list[int] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Execute a complete find spec, streaming final result documents.

        A limit, with no sort or one served by index order, streams the
        candidates until ``skip + limit`` matched; otherwise :meth:`_matches`
        selects every match, put in order (a ``heapq`` top-k with a limit) by a
        sort no index serves.

        Only documents that survive skip/limit are projected, and copied out
        of the engine unless *copy* is false (for a caller that only reads
        them).  *ids*, when given, receives the record id of each result.
        """
        project = compile_projection(spec.projection, copy=copy)
        plan = self._plan_find(spec)
        predicate = compile_matcher(spec.filter)
        self.operation_counters["queries"] += 1
        unserved_sort = spec.sort and not plan.sort_served
        if spec.limit is None or unserved_sort:
            found = self._matches(plan, predicate)
            selected = list(found)
            if unserved_sort:
                document_key = document_sort_key(spec.sort)
                key = lambda doc_id: document_key(found[doc_id])  # noqa: E731
                if spec.limit is None:
                    selected.sort(key=key)
                else:
                    selected = heapq.nsmallest(spec.fetch_bound, selected, key=key)
            selected = selected[spec.skip:]
            if ids is not None:
                ids += selected
            yield from map(project, map(found.__getitem__, selected))
            return

        candidates = list(self._documents) if plan.candidate_ids is None else plan.candidate_ids
        scanned, matched, bound = 0, 0, spec.fetch_bound
        try:
            for doc_id in candidates:
                document = self._documents.get(doc_id)
                if document is None:
                    continue
                scanned += 1
                if not predicate(document):
                    continue
                matched += 1
                if matched > spec.skip:
                    if ids is not None:
                        ids.append(doc_id)
                    yield project(document)
                    if matched >= bound:
                        return
        finally:
            self.operation_counters["documents_scanned"] += scanned

    def _matches(self, plan: QueryPlan, predicate: Any) -> dict[int, dict[str, Any]]:
        """The plan's matching candidates by record id, in order, selected in C over one snapshot.

        The snapshot (the records, or the candidates still stored) counts in ``documents_scanned``.
        """
        if plan.candidate_ids is None:
            records = self._documents.copy()
        else:
            get = self._documents.get
            records = {i: document for i in plan.candidate_ids if (document := get(i)) is not None}
        self.operation_counters["documents_scanned"] += len(records)
        return dict(itertools.compress(records.items(), map(predicate, records.values())))

    def count_documents(self, query: Mapping[str, Any] | None = None) -> int:
        """Count the documents matching *query*."""
        if not query:
            return len(self._documents)
        plan, predicate = self._plan_find(FindSpec(filter=query)), compile_matcher(query)
        self.operation_counters["queries"] += 1
        return len(self._matches(plan, predicate))

    def distinct(self, key: str, query: Mapping[str, Any] | None = None) -> list[Any]:
        """Return the distinct values of *key* among matching documents, copied."""
        return deep_copy_document(distinct_values(
            candidate
            for document in self._execute_find(FindSpec(filter=query), copy=False)
            for value in resolve_path(document, key)
            for candidate in (value if isinstance(value, list) else (value,))
        ))

    def _explain_spec(self, spec: FindSpec, verbosity: str) -> dict[str, Any]:
        plan = self._plan_find(spec)
        if not spec.sort:
            sort_mode = None
        elif plan.sort_served:
            sort_mode = "indexOrder"
        elif spec.fetch_bound is not None:
            sort_mode = "topK"
        else:
            sort_mode = "sortMaterialize"
        execution_stats = None
        if verbosity == "executionStats":
            n_returned = sum(1 for _document in self._execute_find(spec, copy=False))
            execution_stats = build_execution_stats(n_returned=n_returned)
        return build_explain(
            surface="standalone",
            operation="find",
            verbosity=verbosity,
            namespace=self.full_name,
            winning_plan=plan.describe(),
            sort_mode=sort_mode,
            spec=spec.describe(),
            execution_stats=execution_stats,
        )

    def _explain_pipeline(
        self, pipeline: Sequence[Mapping[str, Any]], verbosity: str
    ) -> dict[str, Any]:
        counters: list[StageStats] = []
        plan, results = self._execute_pipeline(
            pipeline, counters=counters, suppress_out=True
        )
        plan = plan.with_pipeline_stages([stats.as_dict() for stats in counters])
        execution_stats = None
        if verbosity == "executionStats":
            execution_stats = build_execution_stats(
                n_returned=len(results),
                stages=[stats.as_dict() for stats in counters],
            )
        return build_explain(
            surface="standalone",
            operation="aggregate",
            verbosity=verbosity,
            namespace=self.full_name,
            winning_plan=plan.describe(),
            sort_mode=None,
            spec={"pipeline": [dict(stage) for stage in pipeline]},
            execution_stats=execution_stats,
        )

    # --------------------------------------------------------------- updates

    @staticmethod
    def _index_overlaps_paths(index: Index, paths: set[str]) -> bool:
        """True when an indexed field and a touched path are equal or one contains the other."""
        return any(
            f"{field_path}.".startswith(f"{touched}.") or f"{touched}.".startswith(f"{field_path}.")
            for field_path in index.spec.fields
            for touched in paths
        )

    def _update(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool,
        multi: bool,
        operators: bool,
    ) -> UpdateResult:
        """Apply *update* — an operator document iff *operators*, else a replacement."""
        maintained = self._maintained_indexes()
        if not operators:
            affected_indexes = maintained  # a replacement can change every field
        else:
            # Checked once, before the filter as on every surface: the
            # per-document step below only needs the 16 MB size guard.
            operation = OperatorUpdate(update)
            affected_indexes = [
                index
                for index in maintained
                if self._index_overlaps_paths(index, operation.paths)
            ]
        predicate = compile_matcher(query)
        with self._apply_and_log():
            matched = 0
            modified = 0
            changed_documents: list[dict[str, Any]] = []
            for doc_id in self._candidate_ids(query):
                document = self._documents.get(doc_id)
                if document is None or not predicate(document):
                    continue
                matched += 1
                if operators:
                    new_document, grown = operation.apply(document)
                else:
                    new_document = replace_document(document, update)
                if not values_equal(new_document.get("_id"), document.get("_id")):
                    raise OperationFailure("the _id field is immutable")
                if new_document != document:
                    if operators:
                        size = self._stored_size(doc_id) + grown
                        if size > MAX_DOCUMENT_SIZE:
                            raise DocumentTooLargeError(size, MAX_DOCUMENT_SIZE)
                    else:
                        validate_document(new_document)
                        self._sizes.pop(doc_id, None)
                    for position, index in enumerate(affected_indexes):
                        try:
                            index.replace(document, new_document, doc_id)
                        except DuplicateKeyError:
                            for done in affected_indexes[:position]:
                                done.replace(new_document, document, doc_id)
                            raise
                    self._documents[doc_id] = new_document
                    if operators:
                        self._sizes[doc_id] = size
                    changed_documents.append(new_document)
                    modified += 1
                    if self._defer_secondary_indexes:
                        self._deferred_writes = True
                if not multi:
                    break
            upserted_id = None
            if matched == 0 and upsert:
                seed = build_upsert_document(query or {}, update)
                if "_id" not in seed:
                    seed["_id"] = ObjectId()
                validate_document(seed)
                self._insert_prepared(seed)
                upserted_id = seed["_id"]
                changed_documents.append(seed)
            self.operation_counters["updates"] += 1
            if changed_documents:
                # Physical redo: the full post-image of every changed document.
                # Replay is then deterministic even for plan-order-dependent
                # update_one targets.
                self._write_log({"op": "apply", "docs": changed_documents})
        return UpdateResult(matched_count=matched, modified_count=modified, upserted_id=upserted_id)

    def update_one(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Update the first matching document."""
        return self._update(
            query, update, upsert=upsert, multi=False, operators=is_update_document(update)
        )

    def update_many(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Update every matching document (the thesis' ``multi=true``)."""
        if not is_update_document(update):
            raise OperationFailure("update_many requires update operators")
        return self._update(query, update, upsert=upsert, multi=True, operators=True)

    def replace_one(
        self,
        query: Mapping[str, Any] | None,
        replacement: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Replace the first matching document with *replacement*."""
        if is_update_document(replacement):
            raise OperationFailure("replace_one requires a plain replacement document")
        return self._update(query, replacement, upsert=upsert, multi=False, operators=False)

    # --------------------------------------------------------------- deletes

    def _delete(self, query: Mapping[str, Any] | None, *, multi: bool) -> DeleteResult:
        predicate = compile_matcher(query)
        with self._apply_and_log():
            deleted = 0
            deleted_ids: list[Any] = []
            for doc_id in self._candidate_ids(query):
                document = self._documents.get(doc_id)
                if document is None or not predicate(document):
                    continue
                for index in self._maintained_indexes():
                    index.remove(document, doc_id)
                del self._documents[doc_id]
                self._sizes.pop(doc_id, None)
                deleted += 1
                deleted_ids.append(document.get("_id"))
                if self._defer_secondary_indexes:
                    self._deferred_writes = True
                if not multi:
                    break
            self.operation_counters["deletes"] += 1
            if deleted_ids:
                self._write_log({"op": "delete", "ids": deleted_ids})
        return DeleteResult(deleted_count=deleted)

    def delete_one(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Delete the first matching document."""
        return self._delete(query, multi=False)

    def delete_many(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Delete every matching document."""
        return self._delete(query, multi=True)

    # ------------------------------------------------------------ bulk writes

    def bulk_write(self, operations: Iterable[Any], *, ordered: bool = True) -> BulkWriteResult:
        """Apply a list of operation values; log them as **one** WAL record.

        Every operation runs through the public method it names
        (:mod:`~repro.documentstore.bulk`), so it makes every check and
        counts exactly what that call would.  ``ordered`` stops at the first
        failure, otherwise every other operation is still applied; either
        way a failure raises :class:`BulkWriteError` with the failing
        indexes and the result of what was applied.  The records the
        operations log are held back and appended as a single ``batch``
        record, so recovery replays the whole applied batch or none of it.
        An operation that provably matches nothing is only checked and
        counted (:meth:`_may_match`).
        """
        operations = checked_operations(operations)
        result = BulkWriteResult()
        errors: list[dict[str, Any]] = []
        engine = self._database.storage_engine if self._database is not None else None
        one_record = nullcontext() if engine is None else engine.batch(self._database.name, self.name)
        with one_record:
            apply_operations(self, self._may_match(operations), ordered, result, errors)
        if errors:
            raise BulkWriteError(errors, result)
        return result

    def _may_match(self, operations: list[Any]) -> Iterator[tuple[int, Any]]:
        """``(index, operation)`` of each operation no plan proves matches nothing.

        A plan cache keyed by filter shape, for one call: an update or delete
        without upsert whose filter is a ``dict`` of scalars is counted, with
        two bisects, in the index (looked up by name each time) that the first
        filter of its shape, its keys, was planned to.  A plan is a superset
        of the matches, so 0 proves there is none: the operation is then
        checked (once per update shape, then per argument) and counted as its
        public call would be, instead of run.
        """
        plans: dict[tuple[Any, ...], tuple[str, tuple[str, ...]] | tuple[()]] = {}
        accepted: set[tuple[Any, ...]] = set()  # update shapes OperatorUpdate accepted
        for position, operation in enumerate(operations):
            query = None if getattr(operation, "upsert", False) else getattr(operation, "filter", None)
            if type(query) is dict and SCALAR_TYPES.issuperset(map(type, query.values())):
                shape = tuple(query)
                plan = plans.get(shape)
                if plan is None:
                    plan = plans[shape] = self._equality_plan(query) or ()
                index = self._live_indexes().get(plan[0]) if plan else None
                if (
                    index is not None
                    and not index.count_prefix(list(map(query.__getitem__, plan[1])))
                    and self._count_unmatched(operation, accepted)
                ):
                    continue
            yield position, operation

    def _equality_plan(self, query: dict[str, Any]) -> tuple[str, tuple[str, ...]] | None:
        """The index *query*'s plan scans and the fields of its equality prefix, if any."""
        if not all(isinstance(key, str) and not key.startswith("$") for key in query):
            return None  # an operator, which the matcher refuses or interprets
        indexes = self._live_indexes()
        plan = plan_query(query, indexes, len(self._documents))
        if plan.stage != "IXSCAN":
            return None
        fields = indexes[plan.index_name].spec.fields
        return plan.index_name, tuple(itertools.takewhile(query.__contains__, fields))

    def _count_unmatched(self, operation: Any, accepted: set[tuple[Any, ...]]) -> bool:
        """Count *operation* as its public call counts one that matches nothing.

        False, counting nothing, when that call would refuse the update: it
        then runs, and is refused in its position.  An update whose shape
        (:func:`update_shape`) is in *accepted* needs only its arguments
        checked; one that ``OperatorUpdate`` accepts adds its shape.
        """
        if type(operation) in (DeleteOne, DeleteMany):
            self.operation_counters["deletes"] += 1
            return True
        update = operation.update
        shape = update_shape(update)
        try:
            if shape in accepted:
                for argument in update["$set"].values():
                    validate_value(argument)
            elif is_update_document(update):
                OperatorUpdate(update)
                if shape is not None:
                    accepted.add(shape)
            elif type(operation) is UpdateMany:
                return False  # update_many refuses a replacement
        except DocumentStoreError:
            return False
        self.operation_counters["updates"] += 1
        return True

    def drop(self) -> None:
        """Remove every document and every secondary index."""
        with self._apply_and_log():
            self._documents.clear()
            self._sizes.clear()
            for index in self._indexes.values():
                index.clear()
            self._indexes = {"_id_": self._id_index}
            self._pending_index_builds.clear()
            self._deferred_writes = False
            self._write_log({"op": "drop_collection"})

    # ----------------------------------------------------------- aggregation

    def _output_writer(self) -> Any:
        """The ``$out`` writer for this collection: replace the target's documents."""
        if self._database is None:
            return None
        database = self._database

        def output_writer(name: str, documents: list[dict[str, Any]]) -> None:
            target = database[name]
            target.drop()
            target.insert_many(documents)

        return output_writer

    def _execute_pipeline(
        self,
        pipeline: Sequence[Mapping[str, Any]],
        *,
        counters: list[StageStats] | None = None,
        suppress_out: bool = False,
    ) -> tuple[QueryPlan, list[dict[str, Any]]]:
        """Shared core of :meth:`aggregate` and the explain surfaces."""
        output_writer = self._output_writer()
        if suppress_out:
            output_writer = lambda _name, _documents: None  # noqa: E731
        return self._run_compiled(compile_pipeline(pipeline, output_writer=output_writer), counters)

    def _run_compiled(
        self, compiled: CompiledPipeline, counters: list[StageStats] | None = None
    ) -> tuple[QueryPlan, list[dict[str, Any]]]:
        """Run *compiled* over the documents the plan of its leading ``$match`` selects.

        The planner narrows the candidates exactly as for find(), and the
        pipeline's own ``$match`` still re-filters them.  Stages copy before
        modifying, so the stored documents are read in place.
        """
        match = compiled.spec[0].get("$match") if compiled.spec else None
        plan = plan_query(match, self._live_indexes(), len(self._documents))
        documents = self._documents
        if plan.candidate_ids is None:
            source: Iterable[Mapping[str, Any]] = documents.values()
        else:
            source = (documents[doc_id] for doc_id in plan.candidate_ids if doc_id in documents)
        return plan, compiled.run(source, counters=counters)

    def aggregate(self, pipeline: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        """Run an aggregation pipeline over the collection.

        The pipeline is optimized once (match merging and pushdown) so the
        planner sees the effective leading stage even when the caller wrote
        it after a ``$sort``.  Stages read the stored documents in place, so
        the results are detached from them on the way out.
        """
        validate_user_pipeline(pipeline)
        return deep_copy_document(self._execute_pipeline(pipeline)[1])

    def execute_pipeline(self, compiled: CompiledPipeline) -> list[dict[str, Any]]:
        """Run the shard half the router compiled; it ships and returns the copied results."""
        return deep_copy_document(self._run_compiled(compiled)[1])

    # ------------------------------------------------------------- iteration

    def raw_documents(self) -> Iterator[Mapping[str, Any]]:
        """Iterate over the stored documents without copying.

        Intended for read-only fast paths (aggregation, and the balancer's
        selection of a chunk's documents); callers must not mutate them.
        """
        yield from self._documents.values()

    def execute_find(self, spec: FindSpec) -> tuple[list[dict[str, Any]], list[int]]:
        """A find's copied results and their sizes (the shard-side entry point).

        Returns the results, projected and copied as ``find`` copies them, and
        their ``document_size`` (the stored size, less what a top-level
        exclusion drops; any other projection's result is walked).  The copy
        is the only one: the router ships and returns these documents.
        """
        ids: list[int] = []
        results = list(self._execute_find(spec, ids=ids))
        projection = spec.projection or {}
        if any(projection.values()) or any("." in path or not path for path in projection):
            return results, list(map(document_size, results))
        sizes = list(map(self._stored_size, ids))
        dropped = [(key, document_size({key: None}) - 5) for key in projection]  # frame bytes
        for position, doc_id in enumerate(ids if dropped else ()):
            document = self._documents[doc_id]
            for key, frame in dropped:
                if key in document:
                    sizes[position] -= frame + value_size(document[key])
        return results, sizes
