"""Query router (``mongos``).

The router is the only component an application talks to in the sharded
deployment (Figure 3.1): :class:`QueryRouter` is the infrastructure, and the
operations live on the :class:`RoutedCollection` handles it gives out.  For
every operation a routed collection:

1. consults the config server to find the target shards — one shard when the
   query contains the shard key (*targeted*), every shard otherwise
   (*broadcast*, the expensive case called out in Section 4.3);
2. sends the command to every target shard through the cluster's
   :class:`~repro.sharding.executor.ScatterRunner`, which runs the branches
   on worker threads only when they can overlap (a deadline, or a realtime
   network), else on the caller's thread;
3. waits for every target's whole answer, then merges them — a k-way merge
   on the sort key, else in target order — (and, for aggregation, runs the
   merge part of the pipeline) before answering the client.  A shard
   reports the size of each document it ships, which it stores.

Every scatter is subject to the router's :class:`ScatterPolicy`: per-shard
deadlines with cooperative cancellation, raising a structured
:class:`ShardTimeoutError` — an answer is never merged from a subset of its
shards.  Each branch counts its traffic on a private network that the gather
adds to the shared one, so metric totals are exact, and
``RouterMetrics.parallel_shard_seconds`` is each fan-out's observed makespan.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import asdict, dataclass
from operator import methodcaller
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..documentstore.aggregation import (
    ShardSplit,
    compile_pipeline,
    optimize_pipeline,
    split_pipeline_for_shards,
    validate_user_pipeline,
)
from ..documentstore.bson import document_size, require_mapping
from ..documentstore.bson import validate_document, value_size
from ..documentstore.bulk import (
    OPERATION_FRAMES,
    BulkWriteError,
    BulkWriteResult,
    InsertOne,
    apply_operations,
    checked_operations,
    operation_size,
)
from ..documentstore.cursor import (
    CollectionSurface,
    DeleteResult,
    InsertManyResult,
    UpdateResult,
    compile_projection,
)
from ..documentstore.errors import InvalidDocumentError, ShardKeyError
from ..documentstore.explain import build_execution_stats, build_explain
from ..documentstore.findspec import FindSpec
from ..documentstore.matching import distinct_values
from ..documentstore.objectid import ObjectId
from ..documentstore.ordering import document_sort_key
from ..documentstore.update import OperatorUpdate, build_upsert_document, is_update_document
from .chunks import MAX_KEY, MIN_KEY, Chunk, ChunkManager
from .config_server import ConfigServer
from .executor import (
    BranchReport,
    FirstMatchClaim,
    ScatterPolicy,
    ScatterRunner,
    ShardTimeoutError,
)
from .network import SimulatedNetwork
from .shard import Shard

__all__ = [
    "QueryRouter",
    "RoutedDatabase",
    "RoutedCollection",
    "RouterMetrics",
    "ScatterPolicy",
    "ShardTimeoutError",
]

#: Documents per response batch, shard → router and server → client (the
#: ``mongod`` first batch).  Large result sets are shipped back in multiple
#: getMore-style batches, each paying one network round trip — the mechanism
#: that makes result-heavy broadcast queries expensive on the cluster
#: (Section 4.3, observation ii).
RESPONSE_BATCH_SIZE = 101


@dataclass
class RouterMetrics:
    """Cost accounting for routed operations.

    * ``shard_seconds_total`` — **sum of work**: per-shard execution seconds
      added up across all branches of all operations, the storage-engine
      busy time the cluster spent, regardless of overlap.
    * ``parallel_shard_seconds`` — **observed makespan**: wall-clock seconds
      from the first dispatch of each fan-out to its last branch completion,
      summed over operations: the window the process actually spent.  A
      fan-out that runs on the caller's thread (nothing to overlap) takes
      the sum of its branches; concurrent branches approach their maximum.
    * ``modelled_parallel_seconds`` — **modelled makespan**: per operation,
      the slowest branch's execution seconds, summed over operations: the
      window a cluster whose shards run truly in parallel would spend.

    The experiment harness converts measured wall time into the elapsed time
    the paper's cluster would observe via::

        simulated elapsed = wall time - parallel_shard_seconds
                          + modelled_parallel_seconds + network_seconds

    i.e. the observed concurrent execution window is replaced by the
    modelled one, and every routed message adds simulated round-trip latency
    and transfer time.
    """

    operations: int = 0
    targeted_operations: int = 0
    broadcast_operations: int = 0
    router_seconds: float = 0.0
    #: Sum-of-work: total per-shard execution seconds (see class docstring);
    #: per-branch seconds are in ``QueryRouter.last_scatter_report``.
    shard_seconds_total: float = 0.0
    #: Observed makespan: measured wall clock of the fan-outs.
    parallel_shard_seconds: float = 0.0
    #: Modelled makespan: per-operation max of the branches' execution seconds.
    modelled_parallel_seconds: float = 0.0
    network_seconds: float = 0.0
    shards_contacted: int = 0
    #: Result items (documents or distinct values) shipped shard → router.
    documents_shipped: int = 0
    #: Serialized bytes of those shard → router result payloads.
    bytes_shipped: int = 0
    #: Shard branches that missed their scatter deadline.
    shards_timed_out: int = 0

    def simulated_overhead_seconds(self) -> float:
        """What the formula above adds to wall time: negative when the modelled
        cluster is *faster* than the process, as the paper observes for Query 50."""
        return self.modelled_parallel_seconds + self.network_seconds - self.parallel_shard_seconds

    def snapshot(self) -> dict[str, Any]:
        """The counters as a plain dictionary, with ``simulated_overhead_seconds``."""
        return {**asdict(self), "simulated_overhead_seconds": self.simulated_overhead_seconds()}


class QueryRouter:
    """The ``mongos`` process of the sharded cluster — infrastructure only.

    It owns the shards, the config server, the network, the metrics, shard
    targeting (:meth:`_target_shards`), the scatter/gather machinery and its
    :class:`ScatterPolicy`.  It has no per-operation methods: ``find``,
    ``aggregate``, the writes and DDL live on :class:`RoutedCollection`,
    which knows its namespace and drives this machinery.
    """

    def __init__(
        self,
        config_server: ConfigServer,
        shards: Sequence[Shard],
        network: SimulatedNetwork | None = None,
        name: str = "mongos",
        *,
        scatter_policy: ScatterPolicy | None,
    ) -> None:
        self.name = name
        self.config = config_server
        self.network = network or SimulatedNetwork()
        self._shards = {shard.shard_id: shard for shard in shards}
        self.metrics = RouterMetrics()
        self.scatter_policy = scatter_policy or ScatterPolicy()
        self._runner = ScatterRunner()
        self._metrics_lock = threading.Lock()
        self._thread_state = threading.local()

    # ------------------------------------------------------------ infrastructure

    @property
    def last_scatter_report(self) -> dict[str, Any] | None:
        """Per-shard timing breakdown of the calling thread's most recent scatter.

        What ``explain(..., verbosity="executionStats")`` reports; kept per
        thread, so concurrent client threads never see each other's fan-out.
        """
        return getattr(self._thread_state, "scatter_report", None)

    def shard(self, shard_id: str) -> Shard:
        """Return the shard object registered under *shard_id*."""
        return self._shards[shard_id]

    @property
    def shards(self) -> list[Shard]:
        """Every shard known to the router."""
        return list(self._shards.values())

    def get_database(self, name: str) -> "RoutedDatabase":
        """Return a database handle that routes operations through this router."""
        return RoutedDatabase(self, name)

    def __getitem__(self, name: str) -> "RoutedDatabase":
        return self.get_database(name)

    def reset_metrics(self) -> None:
        """Clear router metrics and network statistics."""
        with self._metrics_lock:
            self.metrics = RouterMetrics()
        self.network.reset()

    def close(self) -> None:
        """Shut down the scatter worker pool."""
        self._runner.close()

    # --------------------------------------------------------------- target choice

    def _target_shards(
        self,
        database_name: str,
        collection_name: str,
        query: Mapping[str, Any] | None,
    ) -> tuple[list[str], bool]:
        """Return (target shard ids, targeted?) for a query.

        ``targeted`` is True when the shard key restricted the query to a
        proper subset of the shards (the favourable Q50 situation).
        """
        if not self.config.is_sharded(database_name, collection_name):
            return [self.config.primary_shard(database_name)], True
        manager = self.config.chunk_manager(database_name, collection_name)
        all_shards = self.config.shard_ids
        targets = self._shards_from_query(manager, query)
        if targets is None:
            return list(all_shards), False
        target_list = sorted(targets)
        return target_list, len(target_list) < len(all_shards)

    @staticmethod
    def _shards_from_query(
        manager: ChunkManager,
        query: Mapping[str, Any] | None,
    ) -> set[str] | None:
        """Derive target shards from the shard-key constraints of *query*.

        Returns ``None`` when the query does not constrain the shard key
        (broadcast).  Only single-field shard keys are analysed, which covers
        every collection in the reproduction.
        """
        if not query:
            return None
        key_field = manager.shard_key.fields[0]
        condition = _find_condition(query, key_field)
        if condition is None:
            return None
        if isinstance(condition, Mapping) and any(k.startswith("$") for k in condition):
            if "$eq" in condition:
                return {manager.shard_for_value(condition["$eq"])}
            if "$in" in condition:
                return manager.shards_for_values(condition["$in"])
            lower = condition.get("$gte", condition.get("$gt"))
            upper = condition.get("$lte", condition.get("$lt"))
            if lower is not None or upper is not None:
                if manager.shard_key.hashed:
                    return None
                return manager.shards_for_range(
                    lower if lower is not None else MIN_KEY,
                    upper if upper is not None else MAX_KEY,
                )
            return None
        if isinstance(condition, Mapping):
            return None
        return {manager.shard_for_value(condition)}

    # ------------------------------------------------------------- scatter/gather

    def _scatter(
        self,
        requests: Mapping[str, int],
        purpose: str,
        shard_operation: Callable[[Shard], Any],
        *,
        ship_results: bool = True,
        targeted: bool = False,
        response_batch_size: int | None = None,
    ) -> dict[str, Any]:
        """Run *shard_operation* on every target at once; returns per-shard results.

        *requests* maps each target shard to the ``document_size`` of the
        request it is sent.  Each branch sends its request, executes the
        shard-local work, then ships the result back in batches of
        *response_batch_size* (with *ship_results*, the work returns the
        items, copies the router may keep, and their sizes: a batch is one
        message of their summed size).  All traffic lands on the branch's
        private network; nothing shared is touched until every branch has
        answered and :meth:`_absorb_outcome` merges them.  Raises
        :class:`ShardTimeoutError` when a shard misses the deadline.
        """
        batch_size = response_batch_size or RESPONSE_BATCH_SIZE

        def make_branch(shard_id: str, request_bytes: int) -> Callable[[BranchReport], Any]:
            shard = self._shards[shard_id]

            def run(branch: BranchReport) -> Any:
                channel = branch.channel = self.network.channel()
                started = time.perf_counter()
                channel.send(f"{purpose}:request", request_bytes)
                branch.timing.dispatch_seconds = time.perf_counter() - started
                cpu_started = time.thread_time()  # CPU time: branches may share the GIL
                value = shard.run(shard_operation, shard)
                branch.timing.execute_seconds = time.thread_time() - cpu_started
                shipping_started = time.perf_counter()
                value, sizes = value if ship_results else (value, None)
                if ship_results and value:
                    shipped = 0
                    for start in range(0, len(value), batch_size):
                        if branch.cancelled.is_set():
                            break  # the deadline passed: stop shipping
                        shipped = min(start + batch_size, len(value))
                        channel.send(f"{purpose}:response", sum(sizes[start:shipped]))
                    branch.items_shipped = shipped
                    branch.bytes_shipped = sum(sizes[:shipped])
                    del value[shipped:]
                else:
                    channel.ship_command({"ok": 1}, purpose=f"{purpose}:ack")
                branch.timing.ship_seconds = time.perf_counter() - shipping_started
                return value

            return run

        started = time.perf_counter()
        reports = self._runner.run(
            purpose,
            [(shard_id, make_branch(shard_id, size)) for shard_id, size in requests.items()],
            self.scatter_policy,
            realtime=self.network.model.realtime,
            on_timeout=self._count_timeouts,
        )
        self._absorb_outcome(purpose, reports, started, targeted=targeted)
        return {report.shard_id: report.value for report in reports}

    def _absorb_outcome(
        self, purpose: str, reports: list[BranchReport], started: float, *, targeted: bool
    ) -> None:
        """Merge one gathered scatter, started at *started*, into the shared accounting.

        The branches' private networks are absorbed under the metrics lock,
        so totals are exact even under concurrent client threads.  A scatter
        that missed its deadline never gets here (:meth:`_count_timeouts`):
        its traffic and busy time stay on the branches' private networks,
        mirroring responses the router never read.
        """
        timings: dict[str, dict[str, float]] = {}
        with self._metrics_lock:
            metrics = self.metrics
            modelled = 0.0
            for report in reports:
                self.network.absorb(report.channel)
                metrics.network_seconds += report.channel.stats.simulated_seconds
                metrics.shard_seconds_total += report.timing.execute_seconds
                metrics.documents_shipped += report.items_shipped
                metrics.bytes_shipped += report.bytes_shipped
                modelled = max(modelled, report.timing.execute_seconds)
                timings[report.shard_id] = report.timing.snapshot()
            metrics.operations += 1
            metrics.shards_contacted += len(reports)
            if targeted:
                metrics.targeted_operations += 1
            else:
                metrics.broadcast_operations += 1
            makespan = max((report.done_at for report in reports), default=started) - started
            metrics.parallel_shard_seconds += makespan
            metrics.modelled_parallel_seconds += modelled
            self._thread_state.scatter_report = {
                "purpose": purpose,
                "makespanSeconds": makespan,
                "shards": timings,
            }

    def _count_timeouts(self, late: Sequence[str]) -> None:
        with self._metrics_lock:
            self.metrics.shards_timed_out += len(late)

    def _account_router_work(self, started: float) -> None:
        with self._metrics_lock:
            self.metrics.router_seconds += time.perf_counter() - started

    def _ship_inserts(self, batch_bytes: Mapping[str, int]) -> None:
        """Account each shard's slice of an insert, given its size (thread-safe totals)."""
        channel = self.network.channel()
        for size in batch_bytes.values():
            channel.send("insert:request", size)
        with self._metrics_lock:
            self.network.absorb(channel)
            self.metrics.network_seconds += channel.stats.simulated_seconds


def _sized(items: list[Any]) -> tuple[list[Any], list[int]]:
    """A shard's answer with each item's ``value_size``, for one it does not store."""
    return items, list(map(value_size, items))


def _merge_outputs(
    per_shard: Mapping[str, list[dict[str, Any]]],
    targets: Sequence[str],
    sort: Sequence[tuple[str, int]] | Mapping[str, Any] | None,
) -> Iterable[dict[str, Any]]:
    """The targets' whole outputs as one stream: k-way merged by *sort*, else in target order."""
    outputs = [per_shard[shard_id] for shard_id in targets]
    if sort:
        return heapq.merge(*outputs, key=document_sort_key(sort))
    return itertools.chain.from_iterable(outputs)


def _find_condition(query: Mapping[str, Any], field_path: str) -> Any:
    """Find the condition on *field_path* at the top level or inside ``$and``."""
    if field_path in query:
        return query[field_path]
    for sub_query in query.get("$and", []):
        condition = _find_condition(sub_query, field_path)
        if condition is not None:
            return condition
    return None


class RoutedDatabase:
    """Database handle whose collections route operations through a router."""

    def __init__(self, router: QueryRouter, name: str) -> None:
        self._router = router
        self.name = name

    def __getitem__(self, collection_name: str) -> "RoutedCollection":
        return RoutedCollection(self._router, self.name, collection_name)

    def __getattr__(self, collection_name: str) -> "RoutedCollection":
        if collection_name.startswith("_"):
            raise AttributeError(collection_name)
        return self[collection_name]

    @property
    def router(self) -> QueryRouter:
        """The router backing this handle."""
        return self._router

    def drop_collection(self, collection_name: str) -> None:
        """Drop a collection across the cluster."""
        self[collection_name].drop()

    def list_collection_names(self) -> list[str]:
        """Collection names present on any shard for this database."""
        names: set[str] = set()
        for shard in self._router.shards:
            names.update(shard.database(self.name).list_collection_names())
        return sorted(names)

    def stats(self) -> dict[str, Any]:
        """Database statistics aggregated across shards."""
        totals = {"db": self.name, "objects": 0, "dataSize": 0, "indexSize": 0}
        for shard in self._router.shards:
            stats = shard.database(self.name).stats()
            totals["objects"] += stats["objects"]
            totals["dataSize"] += stats["dataSize"]
            totals["indexSize"] += stats["indexSize"]
        return totals


class RoutedCollection(CollectionSurface):
    """Collection handle with the same surface as a stand-alone collection.

    The router is infrastructure; the operations live here.  Each one picks
    its target shards (:meth:`QueryRouter._target_shards`, or every shard
    holding the collection for DDL), sends one request per target through the
    router's scatter machinery, and folds the per-shard answers into the
    result the same call returns on a stand-alone :class:`Collection`.
    """

    def __init__(self, router: QueryRouter, database_name: str, name: str) -> None:
        self._router = router
        self._database_name = database_name
        self.name = name
        self._namespace = (database_name, name)

    def _on_shards(
        self,
        targets: Sequence[str],
        targeted: bool,
        purpose: str,
        command: Mapping[str, Any],
        call: Callable[[Any], Any],
        *,
        ship_results: bool = False,
        response_batch_size: int | None = None,
    ) -> dict[str, Any]:
        """One scatter: *call* on every target shard's slice of the collection."""
        namespace = self._namespace
        return self._router._scatter(
            dict.fromkeys(targets, document_size(command)),
            purpose,
            lambda shard: call(shard.collection(*namespace)),
            ship_results=ship_results,
            targeted=targeted,
            response_batch_size=response_batch_size,
        )

    def _owning_shards(self) -> list[str]:
        """Every shard holding a slice of the collection: where DDL runs."""
        config = self._router.config
        if config.is_sharded(*self._namespace):
            return config.shard_ids
        return [config.primary_shard(self._database_name)]

    # ------------------------------------------------------------------- inserts

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> InsertManyResult:
        """Route a whole insert batch in a single pass and one fan-out.

        The batch is validated first, so an invalid document stores none, as
        stand-alone; routed by :meth:`ChunkManager.router` (one hash and one
        bisect per distinct shard-key value); sent as one message per owning
        shard (its documents' summed ``document_size``; the shard's
        ``execute_insert`` copies them); and executed in one fan-out.  Chunk
        statistics are recorded only after every target shard acknowledged
        its insert, so a failed insert cannot skew the chunk table.
        """
        prepared: list[dict[str, Any]] = []
        for document in documents:
            doc = dict(require_mapping(document))
            doc.setdefault("_id", ObjectId())
            prepared.append(doc)
        if not prepared:
            return InsertManyResult(inserted_ids=[])
        sizes = list(map(validate_document, prepared))

        config = self._router.config
        sharded = config.is_sharded(*self._namespace)
        batches: dict[str, list[dict[str, Any]]] = {}
        batch_bytes: dict[str, int] = {}
        # Per chunk: the chunk, its documents' routing values, their bytes.
        by_chunk: dict[int, tuple[Chunk, list[Any], list[int]]] = {}
        manager = None
        if sharded:
            manager = config.chunk_manager(*self._namespace)
            route = manager.router()
            for doc, size in zip(prepared, sizes):
                value, chunk = route(doc)
                batches.setdefault(chunk.shard_id, []).append(doc)
                batch_bytes[chunk.shard_id] = batch_bytes.get(chunk.shard_id, 0) + size
                group = by_chunk.get(id(chunk)) or by_chunk.setdefault(id(chunk), (chunk, [], []))
                group[1].append(value)
                group[2].append(size)
        else:
            primary = config.primary_shard(self._database_name)
            batches[primary] = prepared
            batch_bytes[primary] = sum(sizes)

        self._router._ship_inserts(batch_bytes)
        namespace = self._namespace

        def do_insert(shard: Shard) -> Any:
            return shard.collection(*namespace).execute_insert(batches[shard.shard_id])

        command = {"insert": self.name, "documents": len(prepared)}
        targets = sorted(batches)
        self._router._scatter(
            dict.fromkeys(targets, document_size(command)),
            "insert",
            do_insert,
            ship_results=False,
            targeted=not sharded or len(targets) < len(config.shard_ids),
        )
        if manager is not None:
            for chunk, values, chunk_sizes in by_chunk.values():
                manager.record_inserts(chunk, values, sum(chunk_sizes))
        return InsertManyResult(inserted_ids=[doc["_id"] for doc in prepared])

    # --------------------------------------------------------------------- reads

    def _execute_find(self, spec: FindSpec) -> list[dict[str, Any]]:
        """Execute a complete find spec with shard-side pushdown.

        Projection, sort, and ``skip + limit`` are pushed to every target
        shard (each returns at most ``skip + limit`` pre-sorted, pre-projected
        documents and their sizes).  The router merges their whole answers as
        ``aggregate`` does, then applies ``skip``, ``limit`` and any
        projection the shards could not.
        """
        targets, targeted = self._router._target_shards(*self._namespace, spec.filter)
        shard_spec = spec.shard_spec()
        command = {
            "find": self.name,
            "filter": spec.filter,
            "sort": list(spec.sort) if spec.sort else None,
            "limit": shard_spec.limit,
            "projection": shard_spec.projection,
        }
        per_shard = self._on_shards(
            targets,
            targeted,
            "find",
            command,
            methodcaller("execute_find", shard_spec),
            ship_results=True,
            response_batch_size=spec.batch_size,
        )
        started = time.perf_counter()
        merged = _merge_outputs(per_shard, targets, spec.sort)
        results = list(itertools.islice(merged, spec.skip, spec.fetch_bound))
        if spec.projection and shard_spec.projection is None:
            # A shard's answer is its own copy of the stored documents, so the
            # router projects them in place.
            results = list(map(compile_projection(spec.projection, copy=False), results))
        self._router._account_router_work(started)
        return results

    def count_documents(self, query: Mapping[str, Any] | None = None) -> int:
        """Scatter a count and sum the per-shard counts."""
        targets, targeted = self._router._target_shards(*self._namespace, query)
        per_shard = self._on_shards(
            targets,
            targeted,
            "count",
            {"count": self.name, "filter": query},
            methodcaller("count_documents", query),
        )
        return sum(per_shard.values())

    def distinct(self, key: str, query: Mapping[str, Any] | None = None) -> list[Any]:
        """Scatter a distinct and merge the per-shard value sets.

        Deduplication happens shard-side (each shard ships its *unique*
        values, not one value per matching document), so the response
        payload — accounted in ``RouterMetrics.bytes_shipped`` — is bounded
        by the value cardinality rather than the match count.
        """
        targets, targeted = self._router._target_shards(*self._namespace, query)
        per_shard = self._on_shards(
            targets,
            targeted,
            "distinct",
            {"distinct": self.name, "key": key},
            lambda collection: _sized(collection.distinct(key, query)),
            ship_results=True,
        )
        started = time.perf_counter()
        # The same equality a single collection dedupes with, so 1 on one
        # shard and 1.0 on another merge exactly as they do stand-alone.
        merged = distinct_values(
            value for shard_id in targets for value in per_shard[shard_id]
        )
        self._router._account_router_work(started)
        return merged

    # ------------------------------------------------------------------- updates

    def update_many(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Route a multi-document update."""
        targets, targeted = self._router._target_shards(*self._namespace, query)
        per_shard = self._on_shards(
            targets,
            targeted,
            "update",
            {"update": self.name, "filter": query, "u": update},
            methodcaller("update_many", query, update, upsert=False),
        )
        matched = sum(result.matched_count for result in per_shard.values())
        modified = sum(result.modified_count for result in per_shard.values())
        upserted_id = None
        if matched == 0 and upsert:
            document = build_upsert_document(query or {}, update)
            upserted_id = self.insert_one(document).inserted_id
        return UpdateResult(matched_count=matched, modified_count=modified, upserted_id=upserted_id)

    def _first_match(
        self,
        query: Mapping[str, Any] | None,
        purpose: str,
        command: Mapping[str, Any],
        apply: Callable[[Any, Any], Any],
    ) -> Any:
        """One fan-out that writes at most one document matching *query*.

        Every target shard probes its slice for a match, under the same hold
        of its ``op_lock`` as the write.  The first branch to find one claims
        the operation (a one-shot :class:`FirstMatchClaim`) and runs
        ``apply(collection, _id)`` there; the other branches then bail out.
        Returns the winner's result, or ``None`` when no shard matched.
        """
        targets, targeted = self._router._target_shards(*self._namespace, query)
        claim = FirstMatchClaim()
        namespace = self._namespace

        def probe_and_apply(shard: Shard) -> Any:
            if claim.winner is not None:
                return None
            collection = shard.collection(*namespace)
            matched = collection.find_one(query, {"_id": 1})
            if matched is None or not claim.claim(shard.shard_id):
                return None
            return apply(collection, matched["_id"])

        per_shard = self._router._scatter(
            dict.fromkeys(targets, document_size(command)),
            purpose,
            probe_and_apply,
            ship_results=False,
            targeted=targeted,
        )
        return None if claim.winner is None else per_shard[claim.winner]

    def update_one(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Route a single-document update through one first-match fan-out.

        Exactly one document is ever modified (:meth:`_first_match`); with
        no match anywhere, *upsert* inserts through :meth:`insert_one`.
        """
        if is_update_document(update):
            OperatorUpdate(update)  # refused even when nothing matches, as stand-alone
        result = self._first_match(
            query,
            "update",
            {"update": self.name, "filter": query, "u": update, "multi": False},
            lambda collection, _id: collection.update_one({"_id": _id}, update, upsert=False),
        )
        if result is not None:
            return result
        if upsert:
            document = build_upsert_document(query or {}, update)
            upserted_id = self.insert_one(document).inserted_id
            return UpdateResult(matched_count=0, modified_count=0, upserted_id=upserted_id)
        return UpdateResult(matched_count=0, modified_count=0)

    def delete_many(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Route a multi-document delete."""
        targets, targeted = self._router._target_shards(*self._namespace, query)
        per_shard = self._on_shards(
            targets,
            targeted,
            "delete",
            {"delete": self.name, "filter": query},
            methodcaller("delete_many", query),
        )
        return DeleteResult(deleted_count=sum(result.deleted_count for result in per_shard.values()))

    def delete_one(self, query: Mapping[str, Any] | None) -> DeleteResult:
        """Delete one matching document through one first-match fan-out.

        Exactly one document is removed (:meth:`_first_match`), even when
        another shard holds a document with the same ``_id``.
        """
        result = self._first_match(
            query,
            "delete",
            {"delete": self.name, "filter": query, "limit": 1},
            lambda collection, _id: collection.delete_one({"_id": _id}),
        )
        return result if result is not None else DeleteResult(deleted_count=0)

    # --------------------------------------------------------------- bulk writes

    def bulk_write(self, operations: Iterable[Any], *, ordered: bool = True) -> BulkWriteResult:
        """Route a list of operation values: one message per shard per step.

        Every operation is targeted like its single-operation method (an
        insert on its shard key, like :meth:`insert_many`).  One that lands on
        exactly one shard and does not upsert joins that shard's batch; the
        batches of a *step* go out in one scatter, each applied by the shard's
        ``Collection.bulk_write`` (one ``op_lock`` hold, one WAL record).
        Unordered, a step takes every batchable operation; ordered, only a run
        of consecutive ones on the same shard.  Each operation is sized once
        (:func:`operation_size`: an update or delete of a cached shape walks
        only its filter values and ``$set`` arguments).  One that cannot be sized,
        fans out, is a multi-shard ``*One`` or upserts closes the step and
        runs through its own routed method in its position, so the final
        state is that of issuing the list in order.
        """
        config = self._router.config
        manager = None
        if config.is_sharded(*self._namespace):
            manager = config.chunk_manager(*self._namespace)
            route = manager.router()
        else:
            primary = config.primary_shard(self._database_name)
        routing_values: dict[int, Any] = {}
        sizes: dict[int, int] = {}
        steps: list[dict[str | None, list[tuple[int, Any]]]] = []
        for index, operation in enumerate(checked_operations(operations)):
            shard_id = None  # runs on its own unless exactly one shard can batch it
            inserting = isinstance(operation, InsertOne)
            try:
                sizes[index] = operation_size(operation)
            except InvalidDocumentError:
                pass  # its own routed method refuses it, in its position
            else:
                upsert = getattr(operation, "upsert", False)
                if manager is None and not upsert:
                    shard_id = primary
                elif inserting:
                    try:  # routed on its shard key, like insert_many
                        routing_values[index], chunk = route(operation.document)
                        shard_id = chunk.shard_id
                    except ShardKeyError:
                        pass  # insert_one refuses it, in its position
                elif not upsert:
                    targets, _ = self._router._target_shards(*self._namespace, operation.filter)
                    shard_id = targets[0] if len(targets) == 1 else None
            # A new step: at the start, around an operation that runs on its
            # own (keyed None), and — ordered — whenever the shard changes.
            if (
                not steps
                or shard_id is None
                or None in steps[-1]
                or (ordered and shard_id not in steps[-1])
            ):
                steps.append({})
            steps[-1].setdefault(shard_id, []).append((index, operation))

        result = BulkWriteResult()
        errors: list[dict[str, Any]] = []
        for step in steps:
            if None in step:
                apply_operations(self, step[None], ordered, result, errors)
            else:
                targeted = manager is None or len(step) < len(config.shard_ids)
                replies = self._scatter_batches(step, sizes, ordered, targeted)
                for shard_id, (shard_result, shard_errors) in replies.items():
                    batch = step[shard_id]
                    result.merge(shard_result)
                    errors.extend(
                        {**entry, "index": batch[entry["index"]][0]} for entry in shard_errors
                    )
                    if manager is None:
                        continue
                    # Chunk statistics for the inserts the shard acknowledged.
                    failed = {entry["index"] for entry in shard_errors}
                    applied = batch[: min(failed)] if ordered and failed else batch
                    for position, (index, operation) in enumerate(applied):
                        if isinstance(operation, InsertOne) and position not in failed:
                            manager.record_insert(
                                routing_values[index], sizes[index] - OPERATION_FRAMES[InsertOne]
                            )
            if ordered and errors:
                break
        if errors:
            raise BulkWriteError(errors, result)
        return result

    def _scatter_batches(
        self,
        batches: Mapping[str, Sequence[tuple[int, Any]]],
        sizes: Mapping[int, int],
        ordered: bool,
        targeted: bool,
    ) -> dict[str, tuple[BulkWriteResult, list[dict[str, Any]]]]:
        """One scatter: each shard applies its batch, answers (result, errors)."""
        requests = {
            shard_id: sum(sizes[index] for index, _operation in batch)
            for shard_id, batch in sorted(batches.items())
        }
        namespace = self._namespace

        def do_bulk(shard: Shard) -> tuple[BulkWriteResult, list[dict[str, Any]]]:
            batch = [operation for _index, operation in batches[shard.shard_id]]
            try:
                return shard.collection(*namespace).bulk_write(batch, ordered=ordered), []
            except BulkWriteError as error:
                return error.result, error.errors

        return self._router._scatter(
            requests, "bulkWrite", do_bulk, ship_results=False, targeted=targeted
        )

    # --------------------------------------------------------------------- DDL

    def create_index(self, keys: Any, *, unique: bool = False, name: str = "") -> str:
        """Create an index on every shard holding the collection (one fan-out).

        Accepts the structured specs ``list_indexes`` returns too.
        """
        per_shard = self._on_shards(
            self._owning_shards(),
            False,
            "createIndex",
            {"createIndexes": self.name, "keys": str(keys)},
            methodcaller("create_index", keys, unique=unique, name=name),
        )
        return next(iter(per_shard.values()))

    def list_indexes(self) -> list[dict[str, Any]]:
        """Structured index specs for the collection (identical on every shard).

        DDL runs on every owning shard, so any one shard's catalog answers
        the question — the primary (or first) shard is consulted without a
        fan-out.
        """
        return self._shard_collection(self._owning_shards()[0]).list_indexes()

    def drop_index(self, index_name: str) -> None:
        """Drop an index from every shard holding the collection."""

        def drop_if_present(collection: Any) -> None:
            # Created before the collection was sharded, an index exists on
            # the primary shard only.
            if index_name in collection.index_information():
                collection.drop_index(index_name)

        self._on_shards(
            self._owning_shards(),
            False,
            "dropIndex",
            {"dropIndexes": self.name, "index": index_name},
            drop_if_present,
        )

    def drop(self) -> None:
        """Drop the collection from every shard and forget its metadata."""
        config = self._router.config
        if config.shard_ids:
            self._on_shards(
                config.shard_ids, False, "drop", {"drop": self.name}, methodcaller("drop")
            )
        config.drop_collection_metadata(*self._namespace)

    # -------------------------------------------------------------- aggregation

    def aggregate(self, pipeline: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        """Run an aggregation: the shard part on the shards, the merge on the router.

        The leading ``$match`` picks the shards: the owners of the shard key
        it constrains, else all of them (Section 4.3's expensive broadcast).
        They run :meth:`_plan_aggregate`'s shard part; the router merges their
        outputs (k-way on a pushed sort, else in target order) through the
        merge part.
        """
        validate_user_pipeline(pipeline)
        router = self._router
        split, targets, targeted = self._plan_aggregate(pipeline)
        merge_stages = split.merge
        out_target: str | None = None
        if merge_stages and "$out" in merge_stages[-1]:
            out_target = str(merge_stages[-1]["$out"])
            merge_stages = merge_stages[:-1]
        # Both halves are compiled here, once, from the optimized stages: a
        # pipeline the engine refuses is refused before any message, and no
        # shard compiles or optimizes it again.
        shard_part = compile_pipeline(split.shard, optimize=False)
        merge_part = compile_pipeline(merge_stages, optimize=False)
        # The shard-local pipeline gives each slice the same leading-$match
        # IXSCAN pushdown as a stand-alone ``aggregate``; the copy of its
        # results is the only one.
        per_shard = self._on_shards(
            targets,
            targeted,
            "aggregate",
            {"aggregate": self.name, "pipeline": len(split.shard)},
            lambda collection: _sized(collection.execute_pipeline(shard_part)),
            ship_results=True,
        )

        started = time.perf_counter()
        merged = _merge_outputs(per_shard, targets, split.merge_sort)
        results = merge_part.run(merged) if merge_stages else list(merged)
        router._account_router_work(started)

        if out_target is not None:
            target = RoutedCollection(router, self._database_name, out_target)
            target.drop()
            if results:
                target.insert_many(results)
            return []
        return results

    def _plan_aggregate(
        self, pipeline: Sequence[Mapping[str, Any]]
    ) -> tuple[ShardSplit, list[str], bool]:
        """Split *pipeline* for the shards and choose the shards it runs on.

        Returns ``(split, target shard ids, targeted?)``, which ``aggregate``
        executes and ``explain`` reports.  One target runs the whole pipeline
        unless an ``$out`` needs the cluster-wide collection; more get
        :func:`split_pipeline_for_shards`.
        """
        stages = optimize_pipeline(pipeline)
        leading_match = stages[0].get("$match") if stages else None
        targets, targeted = self._router._target_shards(*self._namespace, leading_match)
        if not targets:  # no shard can hold a match: the pipeline runs over no documents
            return ShardSplit([], stages), targets, targeted
        if len(targets) == 1 and not any("$out" in stage for stage in stages):
            return ShardSplit(stages, []), targets, targeted
        return split_pipeline_for_shards(stages), targets, targeted

    # ------------------------------------------------------------------ explain
    #
    # ``explain`` itself is the shared front half: ``queryPlanner.winningPlan``
    # is the routing decision (targeted vs broadcast, the shards contacted,
    # what was pushed down); ``shards`` holds every contacted shard's own plan,
    # and at ``verbosity="executionStats"`` the operation runs through the
    # scatter and ``executionStats.shards`` carries each branch's queue /
    # dispatch / execute / ship seconds.

    def _routing_plan(self, targets: Sequence[str], targeted: bool) -> dict[str, Any]:
        return {
            "stage": "SINGLE_SHARD" if len(targets) == 1 else "SHARD_MERGE",
            "targeted": targeted,
            "shardsContacted": list(targets),
        }

    def _shard_collection(self, shard_id: str) -> Any:
        return self._router.shard(shard_id).collection(*self._namespace)

    def _execution_stats(self, results: Sequence[Any]) -> dict[str, Any]:
        """``executionStats`` of the scatter that just produced *results*."""
        report = self._router.last_scatter_report or {}
        return build_execution_stats(n_returned=len(results), shards=report.get("shards", {}))

    def _explain_spec(self, spec: FindSpec, verbosity: str) -> dict[str, Any]:
        targets, targeted = self._router._target_shards(*self._namespace, spec.filter)
        shard_spec = spec.shard_spec()
        shards = {
            shard_id: self._shard_collection(shard_id).explain(shard_spec)["queryPlanner"]
            for shard_id in targets
        }
        winning_plan = {
            **self._routing_plan(targets, targeted),
            "pushdown": {
                "projection": spec.projection is not None
                and shard_spec.projection is not None,
                "sort": spec.sort is not None,
                "limit": shard_spec.limit,
            },
            "shards": shards,
        }
        execution = None
        if verbosity == "executionStats":
            execution = self._execution_stats(self._execute_find(spec))
        return build_explain(
            surface="sharded",
            operation="find",
            verbosity=verbosity,
            namespace=self.full_name,
            winning_plan=winning_plan,
            sort_mode="kWayMerge" if spec.sort else None,
            spec=spec.describe(),
            shards=shards,
            execution_stats=execution,
        )

    def _explain_pipeline(
        self, pipeline: list[Mapping[str, Any]], verbosity: str
    ) -> dict[str, Any]:
        split, targets, targeted = self._plan_aggregate(pipeline)
        shards = {}
        for shard_id in targets:
            # Each shard's plan for its stages, with the per-stage counters of
            # running them there (IXSCAN vs COLLSCAN, documents examined).
            local = self._shard_collection(shard_id).explain(
                split.shard, verbosity="executionStats"
            )
            shards[shard_id] = {
                "queryPlanner": {"winningPlan": local["queryPlanner"]["winningPlan"]},
                "executionStats": {"stages": local["executionStats"]["stages"]},
            }
        winning_plan = {
            **self._routing_plan(targets, targeted),
            "shardPart": [dict(stage) for stage in split.shard],
            "mergePart": [dict(stage) for stage in split.merge],
            "mergeStages": [next(iter(stage)) for stage in split.merge],
            "mergeSort": dict(split.merge_sort) if split.merge_sort is not None else None,
        }
        execution = None
        if verbosity == "executionStats":
            executed = list(pipeline)
            if executed and "$out" in executed[-1]:
                # Explain must not write the $out target.
                executed = executed[:-1]
            execution = self._execution_stats(self.aggregate(executed))
        return build_explain(
            surface="sharded",
            operation="aggregate",
            verbosity=verbosity,
            namespace=self.full_name,
            winning_plan=winning_plan,
            sort_mode=None,
            spec={"pipeline": [dict(stage) for stage in pipeline]},
            shards=shards,
            execution_stats=execution,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutedCollection({self.full_name!r})"
