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

from .aggregation import StageStats, optimize_pipeline, run_pipeline
from .bson import MAX_DOCUMENT_SIZE, deep_copy_document, document_size, validate_document
from .bulk import BulkWriteError, BulkWriteResult, DeleteMany, DeleteOne, UpdateMany
from .bulk import apply_operations, checked_operations
from .cursor import (
    CollectionSurface,
    DeleteResult,
    InsertManyResult,
    InsertOneResult,
    UpdateResult,
    project_document,
)
from .errors import (
    DocumentStoreError,
    DocumentTooLargeError,
    DuplicateKeyError,
    IndexNotFoundError,
    InvalidDocumentError,
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
from .vector import VectorIndex

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
        # never handed out uncopied — every reader copies or encodes it.
        self._documents: dict[int, dict[str, Any]] = {}
        # Encoded size of a stored document, kept from its first operator
        # update on (by delta) and dropped with it or by a replacement.
        self._sizes: dict[int, int] = {}
        self._doc_id_counter = itertools.count(1)
        self._indexes: dict[str, Index | VectorIndex] = {}
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
        sizes = self._sizes
        return sum(
            sizes.get(doc_id) or document_size(document)
            for doc_id, document in self._documents.items()
        )

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
        as ``{"keys": ["embedding"], "type": "vector", "dims": 16,
        "metric": "cosine"}`` — the form :meth:`list_indexes` returns.

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
            index: Index | VectorIndex
            if spec.is_vector:
                index = VectorIndex(spec)
            else:
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
            entry: dict[str, Any] = {
                "key": list(index.spec.keys),
                "unique": index.spec.unique,
                "type": index.spec.type,
            }
            if index.spec.is_vector:
                entry["dims"] = index.spec.dims
                entry["metric"] = index.spec.metric
                if index.spec.nlist:
                    entry["nlist"] = index.spec.nlist
            information[name] = entry
        return information

    def list_indexes(self) -> list[dict[str, Any]]:
        """Structured spec documents for every index, in creation order.

        Each entry is accepted back by :meth:`create_index` — specs
        round-trip through ``list_indexes``, the WAL, snapshots, and the
        wire protocol.
        """
        return [index.spec.describe() for index in self._indexes.values()]

    def _live_indexes(self) -> Mapping[str, Index | VectorIndex]:
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
        if not isinstance(document, Mapping):
            raise InvalidDocumentError(
                f"documents must be mappings, got {type(document).__name__}"
            )
        prepared = deep_copy_document(document)
        if "_id" not in prepared:
            prepared["_id"] = ObjectId()
        validate_document(prepared)
        return prepared

    def insert_one(self, document: Mapping[str, Any]) -> InsertOneResult:
        """Insert a single document, assigning an ``ObjectId`` if needed."""
        prepared = self._prepare_for_insert(document)
        with self._apply_and_log():
            self._insert_prepared(prepared)
            self.operation_counters["inserts"] += 1
            self._write_log({"op": "insert", "docs": [prepared]})
        return InsertOneResult(inserted_id=prepared["_id"])

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
        prepared = [self._prepare_for_insert(document) for document in documents]
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

    def _maintained_index_items(self) -> list[tuple[str, Index | VectorIndex]]:
        """The indexes writes must maintain (deferred/pending ones rebuild later)."""
        return [
            (index_name, index)
            for index_name, index in self._indexes.items()
            if index_name == "_id_"
            or (
                not self._defer_secondary_indexes
                and index_name not in self._pending_index_builds
            )
        ]

    def _bulk_insert_prepared(self, documents: Sequence[dict[str, Any]]) -> list[int]:
        """Insert a prepared batch through the bulk index-merge path."""
        if self._defer_secondary_indexes:
            self._deferred_writes = True
        batch = [(next(self._doc_id_counter), document) for document in documents]
        undo_handles = []
        try:
            # dict order guarantees the unique _id index is merged first.
            for _name, index in self._maintained_index_items():
                undo_handles.append(index.bulk_insert(batch))
        except DocumentStoreError:
            # Unique violations *and* vector validation errors roll back the
            # batch from every already-merged index before propagating.
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
        updated: list[Index | VectorIndex] = []
        try:
            for _name, index in self._maintained_index_items():
                index.insert(document, doc_id)
                updated.append(index)
        except DocumentStoreError:
            # Remove the document from every index updated so far — a
            # violation (or vector validation error) on the k-th secondary
            # index must not leave entries behind in indexes 1..k-1.
            for index in updated:
                index.remove(document, doc_id)
            raise
        self._documents[doc_id] = document
        return doc_id

    # ---------------------------------------------------------------- reads

    def _candidate_ids(self, query: Mapping[str, Any] | None) -> tuple[QueryPlan, Iterable[int]]:
        plan = plan_query(query, self._live_indexes(), len(self._documents))
        if plan.stage == "IXSCAN" and plan.candidate_ids is not None:
            return plan, plan.candidate_ids
        return plan, list(self._documents.keys())

    def _matched_raw(self, query: Mapping[str, Any] | None) -> list[dict[str, Any]]:
        """Matching *stored* documents (no copies); accounts scan counters."""
        predicate = compile_matcher(query)
        _plan, candidate_ids = self._candidate_ids(query)
        matched = []
        scanned = 0
        for doc_id in candidate_ids:
            document = self._documents.get(doc_id)
            if document is None:
                continue
            scanned += 1
            if predicate(document):
                matched.append(document)
        self.operation_counters["queries"] += 1
        self.operation_counters["documents_scanned"] += scanned
        return matched

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

    @staticmethod
    def _emit(document: Mapping[str, Any], projection: Mapping[str, Any] | None) -> dict[str, Any]:
        """Copy one stored document out of the engine, projected if asked."""
        if projection:
            return deep_copy_document(project_document(document, projection))
        return deep_copy_document(document)

    def _execute_find(self, spec: FindSpec) -> Iterator[dict[str, Any]]:
        """Execute a complete find spec, streaming final result documents.

        Three shapes, chosen by the planner:

        * no sort, or a sort served by index order — stream candidates,
          stopping as soon as ``skip + limit`` matches were produced;
        * sort with a limit — bounded ``heapq`` top-k over the matches;
        * sort without a limit — one full sort of the matches.

        Only documents that survive skip/limit are copied (and projected)
        out of the engine.
        """
        plan = self._plan_find(spec)
        predicate = compile_matcher(spec.filter)
        self.operation_counters["queries"] += 1
        if plan.candidate_ids is not None:
            candidates: Iterable[int] = plan.candidate_ids
        else:
            candidates = list(self._documents.keys())

        if spec.sort and not plan.sort_served:
            yield from self._execute_find_sorted(spec, candidates, predicate)
            return

        scanned = 0
        matched = 0
        yielded = 0
        try:
            for doc_id in candidates:
                document = self._documents.get(doc_id)
                if document is None:
                    continue
                scanned += 1
                if not predicate(document):
                    continue
                matched += 1
                if matched <= spec.skip:
                    continue
                yield self._emit(document, spec.projection)
                yielded += 1
                if spec.limit is not None and yielded >= spec.limit:
                    return
        finally:
            self.operation_counters["documents_scanned"] += scanned

    def _execute_find_sorted(
        self,
        spec: FindSpec,
        candidates: Iterable[int],
        predicate: Any,
    ) -> Iterator[dict[str, Any]]:
        matched: list[dict[str, Any]] = []
        scanned = 0
        for doc_id in candidates:
            document = self._documents.get(doc_id)
            if document is None:
                continue
            scanned += 1
            if predicate(document):
                matched.append(document)
        self.operation_counters["documents_scanned"] += scanned
        assert spec.sort is not None
        key = document_sort_key(spec.sort)
        bound = spec.fetch_bound
        if bound is not None:
            selected = heapq.nsmallest(bound, matched, key=key)[spec.skip:]
        else:
            matched.sort(key=key)
            selected = matched[spec.skip:]
        for document in selected:
            yield self._emit(document, spec.projection)

    def count_documents(self, query: Mapping[str, Any] | None = None) -> int:
        """Count the documents matching *query*."""
        if not query:
            return len(self._documents)
        return len(self._matched_raw(query))

    def distinct(self, key: str, query: Mapping[str, Any] | None = None) -> list[Any]:
        """Return the distinct values of *key* among matching documents."""
        values = distinct_values(
            candidate
            for document in self._matched_raw(query)
            for value in resolve_path(document, key)
            for candidate in (value if isinstance(value, list) else (value,))
        )
        return [deep_copy_document({"v": value})["v"] for value in values]

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
            n_returned = sum(1 for _document in self._execute_find(spec))
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
        """True when any indexed field could be affected by the touched paths."""
        for field_path in index.spec.fields:
            for touched in paths:
                if (
                    field_path == touched
                    or field_path.startswith(touched + ".")
                    or touched.startswith(field_path + ".")
                ):
                    return True
        return False

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
        maintained = [index for _name, index in self._maintained_index_items()]
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
            _plan, candidate_ids = self._candidate_ids(query)
            matched = 0
            modified = 0
            changed_documents: list[dict[str, Any]] = []
            for doc_id in list(candidate_ids):
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
                        size = (self._sizes.get(doc_id) or document_size(document)) + grown
                        if size > MAX_DOCUMENT_SIZE:
                            raise DocumentTooLargeError(size, MAX_DOCUMENT_SIZE)
                    else:
                        validate_document(new_document)
                        self._sizes.pop(doc_id, None)
                    for index in affected_indexes:
                        index.replace(document, new_document, doc_id)
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
                # Replay is then deterministic even for $currentDate-style
                # operators and plan-order-dependent update_one targets.
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
            _plan, candidate_ids = self._candidate_ids(query)
            deleted = 0
            deleted_ids: list[Any] = []
            for doc_id in list(candidate_ids):
                document = self._documents.get(doc_id)
                if document is None or not predicate(document):
                    continue
                for _name, index in self._maintained_index_items():
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
        checked and counted as its public call would be, instead of run.
        """
        plans: dict[tuple[Any, ...], tuple[str, tuple[str, ...]] | None] = {}
        for position, operation in enumerate(operations):
            query = None if getattr(operation, "upsert", False) else getattr(operation, "filter", None)
            if type(query) is dict and all(type(value) in SCALAR_TYPES for value in query.values()):
                shape = tuple(query)
                if shape not in plans:
                    plans[shape] = self._equality_plan(query)
                plan = plans[shape]
                index = None if plan is None else self._live_indexes().get(plan[0])
                if (
                    index is not None
                    and not index.count_prefix([query[field] for field in plan[1]])
                    and self._count_unmatched(operation)
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

    def _count_unmatched(self, operation: Any) -> bool:
        """Count *operation* as its public call counts one that matches nothing.

        False, counting nothing, when that call would refuse the update: it
        then runs, and is refused in its position.
        """
        if type(operation) in (DeleteOne, DeleteMany):
            self.operation_counters["deletes"] += 1
            return True
        try:
            if is_update_document(operation.update):
                OperatorUpdate(operation.update)
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

    def _pipeline_environment(
        self,
    ) -> tuple[Any, Any]:
        """Return the ``$lookup`` resolver / ``$out`` writer for this collection."""
        collection_resolver = None
        output_writer = None
        if self._database is not None:
            database = self._database

            def collection_resolver(name: str) -> list[dict[str, Any]]:
                return database[name].find().to_list()

            def output_writer(name: str, documents: list[dict[str, Any]]) -> None:
                target = database[name]
                target.drop()
                target.insert_many(documents)

        return collection_resolver, output_writer

    def _aggregate_plan_and_source(
        self, pipeline: Sequence[Mapping[str, Any]]
    ) -> tuple[QueryPlan, Iterable[Mapping[str, Any]]]:
        """Choose the access path for a pipeline's leading ``$match``.

        A leading $match can be served from an index, exactly like find():
        the planner narrows the candidate documents and the pipeline's own
        $match still re-filters them, so the result is unchanged.
        """
        if pipeline and isinstance(pipeline[0], Mapping) and "$match" in pipeline[0]:
            plan = plan_query(pipeline[0]["$match"], self._live_indexes(), len(self._documents))
            if plan.stage == "IXSCAN" and plan.candidate_ids is not None:
                source = (
                    self._documents[doc_id]
                    for doc_id in plan.candidate_ids
                    if doc_id in self._documents
                )
                return plan, source
            return plan, self.raw_documents()
        plan = QueryPlan(stage="COLLSCAN", documents_examined=len(self._documents))
        return plan, self.raw_documents()

    def _resolve_vector_index(
        self, index_name: Any, path: Any
    ) -> tuple[str, VectorIndex]:
        """Pick the vector index a ``$vectorSearch`` stage runs against."""
        live = self._live_indexes()
        vector_indexes = {
            name: index
            for name, index in live.items()
            if isinstance(index, VectorIndex)
        }
        if index_name is not None:
            index = vector_indexes.get(str(index_name))
            if index is None:
                raise OperationFailure(
                    f"$vectorSearch index {index_name!r} is not a usable vector index"
                )
            return str(index_name), index
        if path is not None:
            for name, index in vector_indexes.items():
                if index.spec.fields[0] == str(path):
                    return name, index
            raise OperationFailure(f"no vector index on path {path!r}")
        if len(vector_indexes) == 1:
            return next(iter(vector_indexes.items()))
        if not vector_indexes:
            raise OperationFailure(
                "$vectorSearch requires a vector index on the collection"
            )
        raise OperationFailure(
            "collection has multiple vector indexes; "
            "name one with 'index' or 'path' in $vectorSearch"
        )

    _VECTOR_SEARCH_OPTIONS = frozenset(
        {"queryVector", "k", "limit", "path", "index", "filter", "nprobe", "exact", "scoreField"}
    )

    def _vector_search_source(
        self, specification: Any
    ) -> tuple[QueryPlan, list[dict[str, Any]], StageStats]:
        """Execute a leading ``$vectorSearch`` stage against a vector index.

        Returns the plan, the ranked result documents (each a shallow copy
        of the stored document plus the score field), and the stage's
        counters.  A metadata ``filter`` is applied *before* the search
        (pre-filter semantics): the compiled matcher — index-assisted where
        possible — narrows the candidate set, and the kNN then runs exactly
        over the survivors.
        """
        if not isinstance(specification, Mapping):
            raise OperationFailure("$vectorSearch requires a specification document")
        unknown = sorted(set(specification) - self._VECTOR_SEARCH_OPTIONS)
        if unknown:
            raise OperationFailure(
                f"unknown $vectorSearch option(s) {unknown!r}; "
                f"allowed: {sorted(self._VECTOR_SEARCH_OPTIONS)!r}"
            )
        query_vector = specification.get("queryVector")
        if query_vector is None:
            raise OperationFailure("$vectorSearch requires 'queryVector'")
        k = specification.get("k", specification.get("limit"))
        if k is None:
            raise OperationFailure("$vectorSearch requires 'k' (or 'limit')")
        k = int(k)
        index_name, vector_index = self._resolve_vector_index(
            specification.get("index"), specification.get("path")
        )

        filter_specification = specification.get("filter")
        allowed_ids: set[int] | None = None
        filter_examined = 0
        filter_plan_stage: str | None = None
        if filter_specification:
            predicate = compile_matcher(filter_specification)
            filter_plan, candidate_ids = self._candidate_ids(filter_specification)
            filter_plan_stage = filter_plan.stage
            allowed_ids = set()
            for doc_id in candidate_ids:
                document = self._documents.get(doc_id)
                if document is None:
                    continue
                filter_examined += 1
                if predicate(document):
                    allowed_ids.add(doc_id)

        nprobe = specification.get("nprobe")
        nprobe = int(nprobe) if nprobe is not None else None
        exact = bool(specification.get("exact", False))
        ranked, scored = vector_index.search(
            query_vector, k, nprobe=nprobe, exact=exact, allowed_ids=allowed_ids
        )
        score_field = str(specification.get("scoreField") or "_score")
        results: list[dict[str, Any]] = []
        for doc_id, score in ranked:
            document = self._documents.get(doc_id)
            if document is None:  # pragma: no cover - defensive
                continue
            scored_document = dict(document)
            scored_document[score_field] = score
            results.append(scored_document)

        if allowed_ids is not None:
            mode = "filteredExact"
        elif exact or not vector_index.trained:
            mode = "exact"
        else:
            mode = "ivf"
        details: dict[str, Any] = {
            "k": k,
            "metric": vector_index.spec.metric,
            "mode": mode,
            "vectorsScored": scored,
            "indexedVectors": len(vector_index),
            "scoreField": score_field,
        }
        if mode == "ivf":
            details["nlist"] = vector_index.nlist
            details["nprobe"] = nprobe or vector_index.default_nprobe()
        if filter_plan_stage is not None:
            details["filterPlan"] = filter_plan_stage
            details["filterMatched"] = len(allowed_ids or ())
        examined = filter_examined + scored
        plan = QueryPlan(
            stage="VECTOR_SEARCH",
            index_name=index_name,
            index_fields=vector_index.spec.fields,
            documents_examined=examined,
            vector=details,
        )
        stats = StageStats(
            "$vectorSearch", docs_examined=examined, docs_returned=len(results)
        )
        self.operation_counters["queries"] += 1
        self.operation_counters["documents_scanned"] += examined
        return plan, results, stats

    def _execute_pipeline(
        self,
        pipeline: Sequence[Mapping[str, Any]],
        *,
        counters: list[StageStats] | None = None,
        suppress_out: bool = False,
    ) -> tuple[QueryPlan, list[dict[str, Any]]]:
        """Shared core of :meth:`aggregate` and the explain surfaces."""
        optimized = optimize_pipeline(pipeline)
        if optimized and "$vectorSearch" in optimized[0]:
            plan, source, vector_stats = self._vector_search_source(
                optimized[0]["$vectorSearch"]
            )
            remaining: list[Mapping[str, Any]] = list(optimized[1:])
            if counters is not None:
                counters.append(vector_stats)
        else:
            plan, source = self._aggregate_plan_and_source(optimized)
            remaining = optimized
        collection_resolver, output_writer = self._pipeline_environment()
        if suppress_out:
            output_writer = lambda _name, _documents: None  # noqa: E731

        # The pipeline never mutates its input documents (stages copy before
        # modifying), so aggregation reads the stored documents directly
        # instead of paying a defensive deep copy per document.
        results = run_pipeline(
            source,
            remaining,
            collection_resolver=collection_resolver,
            output_writer=output_writer,
            counters=counters,
            optimize=False,
            fuse=True,
        )
        return plan, results

    def aggregate(self, pipeline: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        """Run an aggregation pipeline over the collection.

        The pipeline is optimized once (match merging / pushdown, top-k and
        ``$vectorSearch``+``$limit`` fusion) so the planner sees the
        effective leading stage even when the caller wrote it after a
        ``$sort``.  A leading ``$vectorSearch`` runs against the
        collection's vector index (with optional metadata pre-filter)
        before the compiled stages.  Stages read the stored documents in
        place, so the results are detached from them on the way out.
        """
        return deep_copy_document(self.execute_pipeline(pipeline))

    def execute_pipeline(self, pipeline: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        """:meth:`aggregate` for a caller that encodes the results at once.

        The shard-side entry point: the results still share subtrees with
        the stored documents, so they must not be mutated or handed on.
        """
        return self._execute_pipeline(pipeline)[1]

    # ------------------------------------------------------------- iteration

    def all_documents(self) -> Iterator[dict[str, Any]]:
        """Iterate over copies of every stored document (insertion order)."""
        for document in self._documents.values():
            yield deep_copy_document(document)

    def raw_documents(self) -> Iterator[Mapping[str, Any]]:
        """Iterate over the stored documents without copying.

        Intended for read-only fast paths (aggregation over large collections
        and the shard data-transfer path); callers must not mutate the
        returned documents.
        """
        yield from self._documents.values()

    def execute_find(self, spec: FindSpec) -> list[dict[str, Any]]:
        """Execute a complete spec in one shot (the shard-side entry point)."""
        return list(self._execute_find(spec))
