"""Query router (``mongos``).

The router is the only component an application talks to in the sharded
deployment (Figure 3.1): :class:`QueryRouter` is the infrastructure, and the
operations live on the :class:`RoutedCollection` handles it gives out.  For
every operation a routed collection:

1. consults the config server to find the target shards — one shard when the
   query contains the shard key (*targeted*), every shard otherwise
   (*broadcast*, the expensive case called out in Section 4.3);
2. dispatches the command to **every target shard simultaneously** through
   the cluster's :class:`~repro.sharding.executor.ScatterRunner` (worker
   threads, or the inline serial mode the parity tests compare against);
3. gathers the per-shard results — streaming them for ``find``, so the
   k-way merge starts before the slowest shard finishes — and merges them
   (and, for aggregation, runs the merge part of the pipeline) before
   answering the client.

Every scatter is subject to the router's :class:`ScatterPolicy`: per-shard
deadlines with cooperative cancellation, raising a structured
:class:`ShardTimeoutError` or returning partial results from the responsive
shards.  Per-branch traffic is accounted on private network channels merged
back in deterministic target order, so metric totals are identical to a
sequential execution — and ``RouterMetrics.parallel_shard_seconds`` is the
*observed* wall-clock makespan of each fan-out, not an estimate.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from operator import methodcaller
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..documentstore.aggregation import (
    optimize_pipeline,
    run_pipeline,
    split_pipeline_for_shards,
)
from ..documentstore.bson import document_size
from ..documentstore.bulk import (
    BulkWriteError,
    BulkWriteResult,
    InsertOne,
    apply_operations,
    checked_operations,
    encode_operation,
)
from ..documentstore.cursor import (
    CollectionSurface,
    DeleteResult,
    InsertManyResult,
    UpdateResult,
    project_document,
)
from ..documentstore.errors import ShardKeyError
from ..documentstore.explain import build_execution_stats, build_explain
from ..documentstore.findspec import FindSpec
from ..documentstore.matching import distinct_values
from ..documentstore.objectid import ObjectId
from ..documentstore.ordering import document_sort_key
from ..documentstore.update import OperatorUpdate, build_upsert_document, is_update_document
from .chunks import Chunk, ChunkManager
from .config_server import ConfigServer
from .executor import (
    FirstMatchClaim,
    ScatterOutcome,
    ScatterPending,
    ScatterPolicy,
    ScatterRunner,
    ShardTimeoutError,
    StreamGather,
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


@dataclass
class RouterMetrics:
    """Cost accounting for routed operations.

    Two of these counters are independent *real measurements* of every
    scatter fan-out (they were estimates before the concurrent execution
    engine):

    * ``shard_seconds_total`` — **sum of work**: per-shard execution seconds
      added up across all branches of all operations.  This is the total
      storage-engine busy time the cluster spent, regardless of overlap.
    * ``parallel_shard_seconds`` — **observed makespan**: wall-clock seconds
      from the first dispatch of each fan-out to its last branch completion,
      summed over operations.  With truly concurrent branches this
      approaches the per-operation *maximum* instead of the sum; the gap to
      ``shard_seconds_total`` is the parallelism actually realized.
    * ``modelled_parallel_seconds`` — the hardware model of the paper's
      cluster: per-operation maximum of execution time scaled by each
      shard's ``cpu_factor`` (weaker cluster nodes).  Used to translate
      in-process measurements onto the paper's heterogeneous deployment.

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
    #: Sum-of-work: total per-shard execution seconds (see class docstring).
    shard_seconds_total: float = 0.0
    #: Observed makespan: measured wall clock of the concurrent fan-outs.
    parallel_shard_seconds: float = 0.0
    #: Modelled makespan: per-operation max of execution x ``cpu_factor``.
    modelled_parallel_seconds: float = 0.0
    network_seconds: float = 0.0
    shards_contacted: int = 0
    #: Result items (documents or distinct values) shipped shard → router.
    documents_shipped: int = 0
    #: Serialized bytes of those shard → router result payloads.
    bytes_shipped: int = 0
    #: Shard branches that missed their scatter deadline.
    shards_timed_out: int = 0
    #: Operations answered from a subset of shards (``"partial"`` policy).
    partial_operations: int = 0

    def simulated_overhead_seconds(self) -> float:
        """Adjustment to add to measured wall time to get simulated elapsed time.

        Replaces the observed concurrent execution window
        (``parallel_shard_seconds``) with the modelled cluster makespan plus
        network costs.  Negative values mean the modelled cluster is *faster*
        than the in-process execution (parallel scan gains exceeded the
        network and per-node slowdown costs) — the situation the paper
        observes for the shard-key-targeted Query 50.
        """
        return (
            self.modelled_parallel_seconds
            + self.network_seconds
            - self.parallel_shard_seconds
        )

    def snapshot(self) -> dict[str, Any]:
        """Return the metrics as a plain dictionary.

        ``shard_seconds_total`` is sum-of-work across branches;
        ``parallel_shard_seconds`` is the observed wall-clock makespan of the
        concurrent fan-outs; ``modelled_parallel_seconds`` is the
        cpu-factor-scaled per-operation maximum used by the cost model.
        """
        return {
            "operations": self.operations,
            "targeted_operations": self.targeted_operations,
            "broadcast_operations": self.broadcast_operations,
            "router_seconds": self.router_seconds,
            "shard_seconds_total": self.shard_seconds_total,
            "parallel_shard_seconds": self.parallel_shard_seconds,
            "modelled_parallel_seconds": self.modelled_parallel_seconds,
            "network_seconds": self.network_seconds,
            "simulated_overhead_seconds": self.simulated_overhead_seconds(),
            "shards_contacted": self.shards_contacted,
            "documents_shipped": self.documents_shipped,
            "bytes_shipped": self.bytes_shipped,
            "shards_timed_out": self.shards_timed_out,
            "partial_operations": self.partial_operations,
        }


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
        executor_mode: str = "thread",
        scatter_policy: ScatterPolicy | None = None,
    ) -> None:
        self.name = name
        self.config = config_server
        self.network = network or SimulatedNetwork()
        self._shards = {shard.shard_id: shard for shard in shards}
        self.metrics = RouterMetrics()
        self.scatter_policy = scatter_policy or ScatterPolicy()
        self._runner = ScatterRunner(executor_mode)
        self._metrics_lock = threading.Lock()
        #: Per-shard timing breakdown of the most recent scatter (what
        #: ``explain(..., verbosity="executionStats")`` reports).  Debugging
        #: aid only — concurrent client threads overwrite it.
        self.last_scatter_report: dict[str, Any] | None = None

    # ------------------------------------------------------------ infrastructure

    @property
    def executor_mode(self) -> str:
        """The scatter execution mode ("thread" or "serial")."""
        return self._runner.mode

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
        for shard in self.shards:
            shard.reset_accounting()

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
                from .chunks import MAX_KEY, MIN_KEY

                return manager.shards_for_range(
                    lower if lower is not None else MIN_KEY,
                    upper if upper is not None else MAX_KEY,
                )
            return None
        if isinstance(condition, Mapping):
            return None
        return {manager.shard_for_value(condition)}

    # ------------------------------------------------------------- scatter/gather

    #: Documents per response batch.  Large result sets are shipped back to
    #: the router in multiple getMore-style batches, each paying one network
    #: round trip — the mechanism that makes result-heavy broadcast queries
    #: expensive on the cluster (Section 4.3, observation ii).
    RESPONSE_BATCH_SIZE = 101

    def _launch_scatter(
        self,
        commands: Mapping[str, Mapping[str, Any]],
        purpose: str,
        shard_operation: Callable[[Shard], Any],
        *,
        ship_results: bool = True,
        response_batch_size: int | None = None,
        stream: StreamGather | None = None,
    ) -> ScatterPending:
        """Dispatch *shard_operation* to every target simultaneously.

        *commands* maps each target shard to the request it is sent.  Each
        branch runs on a pool worker: it ships its request, executes the
        shard-local work, then serializes the result back in batches of
        *response_batch_size* — pushing every decoded batch into *stream* as
        it crosses the wire, when streaming.  All traffic lands on the
        branch's private network channel; nothing shared is touched until
        :meth:`_absorb_outcome`.
        """
        batch_size = response_batch_size or self.RESPONSE_BATCH_SIZE

        def make_branch(shard_id: str, command: Mapping[str, Any]) -> Callable[[Any], Any]:
            shard = self._shards[shard_id]

            def run(branch: Any) -> Any:
                channel = self.network.channel()
                branch.report.channel = channel
                try:
                    started = time.perf_counter()
                    channel.ship_command(
                        command,
                        source=self.name,
                        destination=shard_id,
                        purpose=f"{purpose}:request",
                    )
                    branch.report.timing.dispatch_seconds = time.perf_counter() - started
                    value, execute_seconds = self._runner.execute(
                        lambda: shard.run(shard_operation, shard)[0]
                    )
                    branch.report.timing.execute_seconds = execute_seconds
                    shipping_started = time.perf_counter()
                    shipped_any = False
                    if ship_results and isinstance(value, list) and value:
                        unwrap = not all(isinstance(item, Mapping) for item in value)
                        payload_docs: list[Mapping[str, Any]] = (
                            [{"v": item} for item in value] if unwrap else value
                        )
                        received: list[dict[str, Any]] = []
                        bytes_before = channel.stats.bytes_transferred
                        for start in range(0, len(payload_docs), batch_size):
                            if branch.cancelled.is_set():
                                # Cooperative cancellation (deadline hit or
                                # global limit satisfied): stop shipping.
                                break
                            decoded = channel.ship_documents(
                                payload_docs[start:start + batch_size],
                                source=shard_id,
                                destination=self.name,
                                purpose=f"{purpose}:response",
                            )
                            received.extend(decoded)
                            if stream is not None:
                                stream.put(shard_id, decoded)
                        branch.report.items_shipped = len(received)
                        branch.report.bytes_shipped = (
                            channel.stats.bytes_transferred - bytes_before
                        )
                        shipped_any = True
                        value = [doc["v"] for doc in received] if unwrap else received
                    if not shipped_any:
                        channel.ship_command(
                            {"ok": 1},
                            source=shard_id,
                            destination=self.name,
                            purpose=f"{purpose}:ack",
                        )
                    branch.report.timing.ship_seconds = (
                        time.perf_counter() - shipping_started
                    )
                    return value
                finally:
                    if stream is not None:
                        stream.finish(shard_id)

            return run

        return self._runner.launch(
            purpose,
            [(shard_id, make_branch(shard_id, command)) for shard_id, command in commands.items()],
            self.scatter_policy,
        )

    def _absorb_outcome(self, outcome: ScatterOutcome, *, targeted: bool) -> None:
        """Merge one gathered scatter into the shared accounting.

        Channels are absorbed in deterministic target order under the metrics
        lock, so totals (and the message log) are identical to a sequential
        execution — exact even under concurrent client threads.  Timed-out
        branches contribute nothing: their traffic and busy time stay on
        their private channel, mirroring a response the router never read.
        """
        timings: dict[str, dict[str, float]] = {}
        with self._metrics_lock:
            metrics = self.metrics
            modelled = 0.0
            for report in outcome.reports:
                shard = self._shards[report.shard_id]
                if report.channel is not None:
                    self.network.absorb(report.channel)
                    metrics.network_seconds += report.channel.stats.simulated_seconds
                shard.record_busy(report.timing.execute_seconds)
                metrics.shard_seconds_total += report.timing.execute_seconds
                metrics.documents_shipped += report.items_shipped
                metrics.bytes_shipped += report.bytes_shipped
                modelled = max(
                    modelled,
                    report.timing.execute_seconds * shard.description.cpu_factor,
                )
                timings[report.shard_id] = report.timing.snapshot()
            metrics.operations += 1
            metrics.shards_contacted += len(outcome.reports) + len(outcome.timed_out)
            if targeted:
                metrics.targeted_operations += 1
            else:
                metrics.broadcast_operations += 1
            metrics.parallel_shard_seconds += outcome.makespan_seconds
            metrics.modelled_parallel_seconds += max(modelled, 0.0)
            if outcome.timed_out:
                metrics.shards_timed_out += len(outcome.timed_out)
                metrics.partial_operations += 1
            self.last_scatter_report = {
                "purpose": outcome.purpose,
                "makespanSeconds": outcome.makespan_seconds,
                "timedOutShards": list(outcome.timed_out),
                "shards": timings,
            }

    def _scatter(
        self,
        commands: Mapping[str, Mapping[str, Any]],
        purpose: str,
        shard_operation: Callable[[Shard], Any],
        *,
        ship_results: bool = True,
        targeted: bool = False,
    ) -> dict[str, Any]:
        """Concurrent scatter + blocking gather; returns per-shard results.

        Raises :class:`ShardTimeoutError` under the ``"raise"`` deadline
        policy; under ``"partial"`` the returned mapping simply omits the
        timed-out shards.
        """
        pending = self._launch_scatter(
            commands, purpose, shard_operation, ship_results=ship_results
        )
        outcome = pending.gather()
        self._absorb_outcome(outcome, targeted=targeted)
        return outcome.results()

    def _account_router_work(self, started: float) -> None:
        with self._metrics_lock:
            self.metrics.router_seconds += time.perf_counter() - started

    def _ship_inserts(
        self, batches: Mapping[str, list[dict[str, Any]]]
    ) -> dict[str, list[dict[str, Any]]]:
        """Ship each shard's slice of an insert on a private channel (thread-safe totals)."""
        shipped: dict[str, list[dict[str, Any]]] = {}
        channel = self.network.channel()
        for shard_id, batch in batches.items():
            shipped[shard_id] = channel.ship_documents(
                batch, source=self.name, destination=shard_id, purpose="insert:request"
            )
        with self._metrics_lock:
            self.network.absorb(channel)
            self.metrics.network_seconds += channel.stats.simulated_seconds
        return shipped


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

    def get_collection(self, collection_name: str) -> "RoutedCollection":
        """Return a routed collection handle."""
        return self[collection_name]

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
    ) -> dict[str, Any]:
        """One scatter: *call* on every target shard's slice of the collection."""
        namespace = self._namespace
        return self._router._scatter(
            dict.fromkeys(targets, command),
            purpose,
            lambda shard: call(shard.collection(*namespace)),
            ship_results=ship_results,
            targeted=targeted,
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

        The batch is routed against pre-sorted chunk boundaries (one bisect
        per document instead of a linear chunk scan), shipped with one
        message per owning shard, and executed through the scatter machinery
        in a single concurrent fan-out.  Chunk statistics are recorded only
        after every target shard acknowledged its insert, so a failed insert
        cannot permanently skew the chunk table (and through it the balancer).
        """
        prepared: list[dict[str, Any]] = []
        for document in documents:
            doc = dict(document)
            doc.setdefault("_id", ObjectId())
            prepared.append(doc)
        if not prepared:
            return InsertManyResult(inserted_ids=[])

        config = self._router.config
        sharded = config.is_sharded(*self._namespace)
        batches: dict[str, list[dict[str, Any]]] = {}
        chunk_by_id: dict[int, Chunk] = {}
        values_by_chunk: dict[int, list[Any]] = {}
        bytes_by_chunk: dict[int, int] = {}
        manager = None
        if sharded:
            manager = config.chunk_manager(*self._namespace)
            routing_values = [manager.shard_key.extract(doc) for doc in prepared]
            for doc, value, chunk in zip(
                prepared, routing_values, manager.route_batch(routing_values)
            ):
                batches.setdefault(chunk.shard_id, []).append(doc)
                key = id(chunk)
                chunk_by_id[key] = chunk
                values_by_chunk.setdefault(key, []).append(value)
                bytes_by_chunk[key] = bytes_by_chunk.get(key, 0) + document_size(doc)
        else:
            batches[config.primary_shard(self._database_name)] = prepared

        shipped = self._router._ship_inserts(batches)
        namespace = self._namespace

        def do_insert(shard: Shard) -> Any:
            return shard.collection(*namespace).insert_many(shipped[shard.shard_id])

        targets = sorted(batches)
        self._router._scatter(
            dict.fromkeys(targets, {"insert": self.name, "documents": len(prepared)}),
            "insert",
            do_insert,
            ship_results=False,
            targeted=not sharded or len(targets) < len(config.shard_ids),
        )
        if manager is not None:
            for key, chunk in chunk_by_id.items():
                manager.record_inserts(chunk, values_by_chunk[key], bytes_by_chunk[key])
        return InsertManyResult(inserted_ids=[doc["_id"] for doc in prepared])

    # --------------------------------------------------------------------- reads

    def _execute_find(self, spec: FindSpec) -> list[dict[str, Any]]:
        """Execute a complete find spec with shard-side pushdown.

        Projection, sort, and ``skip + limit`` are pushed to every target
        shard (each returns at most ``skip + limit`` pre-sorted, pre-projected
        documents).  All targets execute **concurrently**, and each shard's
        response batches land on a gather queue as they cross the wire: the
        router's streaming k-way heap merge (sorted) or arrival-order merge
        (unsorted) starts consuming before the slowest shard finishes.  When
        the global ``skip + limit`` is satisfied early, still-running shards
        are cooperatively cancelled and stop shipping.
        """
        router = self._router
        targets, targeted = router._target_shards(*self._namespace, spec.filter)
        shard_spec = spec.shard_spec()
        projection_pushed = spec.projection is None or shard_spec.projection is not None
        namespace = self._namespace

        def do_find(shard: Shard) -> list[dict[str, Any]]:
            return shard.collection(*namespace).execute_find(shard_spec)

        stream = StreamGather(targets, per_shard=spec.sort is not None)
        command = {
            "find": self.name,
            "filter": spec.filter,
            "sort": list(spec.sort) if spec.sort else None,
            "limit": shard_spec.limit,
            "projection": shard_spec.projection,
        }
        pending = router._launch_scatter(
            dict.fromkeys(targets, command),
            "find",
            do_find,
            response_batch_size=spec.batch_size,
            stream=stream,
        )
        started = time.perf_counter()
        if spec.sort:
            # Every shard stream is already sorted: streaming k-way heap merge.
            merged: Iterator[dict[str, Any]] = heapq.merge(
                *stream.iterators(pending), key=document_sort_key(spec.sort)
            )
        else:
            merged = itertools.chain.from_iterable(stream.iterators(pending))
        results: list[dict[str, Any]] = []
        remaining_skip = spec.skip
        try:
            for document in merged:
                if remaining_skip:
                    remaining_skip -= 1
                    continue
                results.append(document)
                if spec.limit is not None and len(results) >= spec.limit:
                    # Satisfied: tell still-shipping shards to stop early.
                    pending.cancel()
                    break
        finally:
            router._account_router_work(started)
        outcome = pending.gather()
        router._absorb_outcome(outcome, targeted=targeted)
        if not projection_pushed and spec.projection:
            results = [project_document(doc, spec.projection) for doc in results]
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
            methodcaller("distinct", key, query),
            ship_results=True,
        )
        started = time.perf_counter()
        # The same equality a single collection dedupes with, so 1 on one
        # shard and 1.0 on another merge exactly as they do stand-alone.
        merged = distinct_values(
            value
            for shard_id in targets
            if shard_id in per_shard  # absent: timed out under the partial policy
            for value in per_shard[shard_id]
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

    def update_one(
        self,
        query: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        """Route a single-document update through one concurrent fan-out.

        Every target shard probes for a local match simultaneously; the
        first branch to find one claims the operation (a one-shot
        :class:`FirstMatchClaim`) and applies the update to exactly that
        document, while the claim doubles as a cancellation signal so
        still-probing branches bail out early.  Exactly one document is ever
        modified — the previous implementation probed shards one at a time,
        paying a serial round trip per shard.
        """
        if is_update_document(update):
            OperatorUpdate(update)  # refused even when nothing matches, as stand-alone
        targets, targeted = self._router._target_shards(*self._namespace, query)
        claim = FirstMatchClaim()
        namespace = self._namespace

        def do_update(shard: Shard) -> UpdateResult:
            collection = shard.collection(*namespace)
            if claim.decided:
                return UpdateResult(matched_count=0, modified_count=0)
            matched = collection.find_one(query, {"_id": 1})
            if matched is None or not claim.claim(shard.shard_id):
                return UpdateResult(matched_count=0, modified_count=0)
            return collection.update_one({"_id": matched["_id"]}, update, upsert=False)

        per_shard = self._router._scatter(
            dict.fromkeys(
                targets, {"update": self.name, "filter": query, "u": update, "multi": False}
            ),
            "update",
            do_update,
            ship_results=False,
            targeted=targeted,
        )
        for shard_id in targets:
            result = per_shard.get(shard_id)
            if result is not None and result.matched_count:
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
        """Delete the first match found across the targeted shards, by its ``_id``."""
        document = self.find_one(query)
        if document is None:
            return DeleteResult(deleted_count=0)
        return self.delete_many({"_id": document["_id"]})

    # --------------------------------------------------------------- bulk writes

    def bulk_write(self, operations: Iterable[Any], *, ordered: bool = True) -> BulkWriteResult:
        """Route a list of operation values: one message per shard per step.

        Every operation is targeted like its single-operation method (an
        insert on its shard key, like :meth:`insert_many`).  One that lands
        on exactly one shard and does not upsert joins that
        shard's batch; the batches of a *step* go out in one scatter, each
        applied by the shard's ``Collection.bulk_write`` (one ``op_lock``
        hold, one WAL record).  Unordered, a step takes every batchable
        operation; ordered, only a run of consecutive ones on the same shard.
        An operation that fans out, is a multi-shard ``*One`` or upserts
        closes the step and runs through its own routed method in its
        position, so the final state is that of issuing the list in order.
        """
        config = self._router.config
        manager = None
        if config.is_sharded(*self._namespace):
            manager = config.chunk_manager(*self._namespace)
        steps: list[dict[str | None, list[tuple[int, Any]]]] = []
        for index, operation in enumerate(checked_operations(operations)):
            shard_id = None  # runs on its own unless exactly one shard can batch it
            inserting = isinstance(operation, InsertOne)
            if inserting and manager is not None:
                try:  # routed on its shard key, like insert_many
                    value = manager.shard_key.extract(operation.document)
                    shard_id = manager.chunk_for(value).shard_id
                except ShardKeyError:
                    pass  # insert_one refuses it, in its position
            elif not getattr(operation, "upsert", False):
                targets, _ = self._router._target_shards(
                    *self._namespace, None if inserting else operation.filter
                )
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
                replies = self._scatter_batches(step, ordered, targeted)
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
                    for position, (_index, operation) in enumerate(applied):
                        if isinstance(operation, InsertOne) and position not in failed:
                            manager.record_insert(
                                manager.shard_key.extract(operation.document),
                                document_size(operation.document),
                            )
            if ordered and errors:
                break
        if errors:
            raise BulkWriteError(errors, result)
        return result

    def _scatter_batches(
        self,
        batches: Mapping[str, Sequence[tuple[int, Any]]],
        ordered: bool,
        targeted: bool,
    ) -> dict[str, tuple[BulkWriteResult, list[dict[str, Any]]]]:
        """One scatter: each shard applies its batch, answers (result, errors)."""
        requests = {
            shard_id: {
                "bulkWrite": self.name,
                "ordered": ordered,
                "operations": [encode_operation(operation) for _index, operation in batch],
            }
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
        """Create an index on every shard holding the collection (concurrently).

        Accepts structured specs like
        ``{"keys": ["embedding"], "type": "vector", "dims": 8}`` too.
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
        """Run an aggregation: shard stages on the shards, merge on the router.

        The routing decision uses the leading ``$match`` stage: when it
        constrains the shard key the shard stages only run on the owning
        shards, otherwise the pipeline is broadcast (Section 4.3's expensive
        case for the analytical queries).  All shard-side pipelines execute
        concurrently through the scatter pool.

        A leading ``$vectorSearch`` runs on every owning shard with the
        *global* ``k`` (its metadata ``filter`` still targets when it
        constrains the shard key); the router then re-ranks the union of the
        per-shard top-k by score and keeps the global top-k, so the merged
        ranking is exactly what a stand-alone collection would return.
        """
        router = self._router
        shard_stages, merge_stages, targets, targeted = self._plan_aggregate(pipeline)
        vector_stage = shard_stages[0].get("$vectorSearch") if shard_stages else None
        # The shard-local pipeline gives each slice the same leading-$match
        # IXSCAN pushdown (and $lookup collection resolution) as a stand-alone
        # ``aggregate``; its results are encoded for shipping, not copied first.
        per_shard = self._on_shards(
            targets,
            targeted,
            "aggregate",
            {"aggregate": self.name, "pipeline": len(shard_stages) + len(merge_stages)},
            methodcaller("execute_pipeline", shard_stages),
            ship_results=True,
        )

        started = time.perf_counter()
        merged: list[dict[str, Any]] = []
        for shard_id in targets:
            merged.extend(per_shard.get(shard_id, []))

        if isinstance(vector_stage, Mapping):
            # Each shard returned its local top-k; keep the global top-k,
            # re-ranked by score (desc) with the same _id tiebreak the
            # stand-alone engine uses, so sharded results match exactly.
            k = int(vector_stage.get("k", vector_stage.get("limit") or 0) or 0)
            score_field = str(vector_stage.get("scoreField") or "_score")
            id_key = document_sort_key([("_id", 1)])
            merged.sort(
                key=lambda doc: (-float(doc.get(score_field, 0.0)), id_key(doc))
            )
            if k > 0:
                merged = merged[:k]

        out_target: str | None = None
        if merge_stages and "$out" in merge_stages[-1]:
            out_target = str(merge_stages[-1]["$out"])
            merge_stages = merge_stages[:-1]
        if merge_stages:
            # $lookup in the merge part joins against the cluster-wide
            # collection, exactly as a stand-alone database would resolve it.
            # The nested find accounts its own router work, so exclude it
            # from this operation's window to avoid double counting.
            router_seconds_before = router.metrics.router_seconds
            results = run_pipeline(
                merged,
                merge_stages,
                collection_resolver=lambda name: RoutedCollection(
                    router, self._database_name, name
                )._execute_find(FindSpec()),
            )
            started += router.metrics.router_seconds - router_seconds_before
        else:
            results = merged
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
    ) -> tuple[list[Mapping[str, Any]], list[Mapping[str, Any]], list[str], bool]:
        """Split *pipeline* for the shards and choose the shards it runs on.

        Returns ``(shard stages, merge stages, target shard ids, targeted?)``;
        ``aggregate`` executes this plan and ``explain`` reports it.
        """
        pipeline = list(pipeline)
        if pipeline and "$vectorSearch" in pipeline[0]:
            # Apply the $vectorSearch+$limit k-lowering before splitting so
            # every shard scans the lowered k, not the stage's original one.
            pipeline = optimize_pipeline(pipeline)
        shard_stages, merge_stages = split_pipeline_for_shards(pipeline)
        leading = shard_stages[0] if shard_stages else {}
        leading_match = leading.get("$match")
        if isinstance(leading.get("$vectorSearch"), Mapping):
            leading_match = leading["$vectorSearch"].get("filter")
        targets, targeted = self._router._target_shards(*self._namespace, leading_match)
        return shard_stages, merge_stages, targets, targeted

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
            sort_mode="streamingKWayMerge" if spec.sort else None,
            spec=spec.describe(),
            shards=shards,
            execution_stats=execution,
        )

    def _explain_pipeline(
        self, pipeline: list[Mapping[str, Any]], verbosity: str
    ) -> dict[str, Any]:
        shard_stages, merge_stages, targets, targeted = self._plan_aggregate(pipeline)
        shards = {}
        for shard_id in targets:
            # Each shard's plan for its stages, with the per-stage counters of
            # running them there (IXSCAN vs COLLSCAN, documents examined).
            local = self._shard_collection(shard_id).explain(
                shard_stages, verbosity="executionStats"
            )
            shards[shard_id] = {
                "queryPlanner": {"winningPlan": local["queryPlanner"]["winningPlan"]},
                "executionStats": {"stages": local["executionStats"]["stages"]},
            }
        winning_plan = {
            **self._routing_plan(targets, targeted),
            "mergeStages": [next(iter(stage)) for stage in merge_stages],
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
