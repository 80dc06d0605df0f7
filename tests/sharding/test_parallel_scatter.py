"""Tests for the concurrent scatter-gather execution core.

Covers the parity matrix (standalone vs serial-sharded vs parallel-sharded),
deadline/cancellation behavior with a slow-shard fixture, streaming gather,
first-match-wins ``update_one``, and the concurrency stress test that pins
metric totals under parallel scatter to the sequential baseline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import pytest

from repro.documentstore import DocumentStoreClient
from repro.sharding import (
    NetworkModel,
    ScatterPolicy,
    ShardedCluster,
    ShardTimeoutError,
)
from repro.sharding.executor import ScatterRunner, StreamGather
from repro.sharding.network import MESSAGE_LOG_CAPACITY

DOCS = [
    {"order_id": i, "amount": float(i % 97), "store": i % 4, "tag": f"t{i % 7}"}
    for i in range(240)
]

PIPELINE = [
    {"$match": {"store": {"$lte": 2}}},
    {"$group": {"_id": "$store", "total": {"$sum": "$amount"}, "n": {"$sum": 1}}},
    {"$sort": {"_id": 1}},
]


def build_cluster(mode: str, **kwargs) -> ShardedCluster:
    cluster = ShardedCluster(shard_count=3, executor_mode=mode, **kwargs)
    cluster.enable_sharding("shop")
    cluster.shard_collection("shop", "orders", {"order_id": "hashed"})
    cluster.get_database("shop")["orders"].insert_many(DOCS)
    cluster.balance()
    cluster.reset_metrics()
    return cluster


@pytest.fixture()
def parallel_cluster():
    cluster = build_cluster("thread")
    yield cluster
    cluster.close()


@pytest.fixture()
def standalone():
    client = DocumentStoreClient()
    client["shop"]["orders"].insert_many(DOCS)
    return client["shop"]["orders"]


def sorted_by_id(docs):
    """Deterministic order, ignoring the auto-generated ``_id`` values."""
    return sorted(
        ({k: v for k, v in d.items() if k != "_id"} for d in docs),
        key=lambda d: d["order_id"],
    )


class TestParityMatrix:
    """Parallel-sharded results must match the stand-alone database exactly."""

    def test_find_broadcast(self, parallel_cluster, standalone):
        routed = parallel_cluster.get_database("shop")["orders"]
        got = routed.find({"store": 2}).to_list()
        want = standalone.find({"store": 2}).to_list()
        assert sorted_by_id(got) == sorted_by_id(want)

    def test_find_sort_skip_limit_projection(self, parallel_cluster, standalone):
        routed = parallel_cluster.get_database("shop")["orders"]
        kwargs = dict(
            projection={"_id": 0, "order_id": 1, "amount": 1},
            sort=[("amount", -1), ("order_id", 1)],
            skip=5,
            limit=20,
        )
        got = routed.find({"store": {"$gte": 1}}, **kwargs).to_list()
        want = standalone.find({"store": {"$gte": 1}}, **kwargs).to_list()
        assert got == want

    def test_find_targeted(self, parallel_cluster, standalone):
        routed = parallel_cluster.get_database("shop")["orders"]
        assert sorted_by_id(routed.find({"order_id": 41}).to_list()) == sorted_by_id(
            standalone.find({"order_id": 41}).to_list()
        )

    def test_count_and_distinct(self, parallel_cluster, standalone):
        routed = parallel_cluster.get_database("shop")["orders"]
        assert routed.count_documents({"store": 3}) == standalone.count_documents(
            {"store": 3}
        )
        assert sorted(routed.distinct("tag")) == sorted(standalone.distinct("tag"))

    def test_aggregate(self, parallel_cluster, standalone):
        routed = parallel_cluster.get_database("shop")["orders"]
        assert routed.aggregate(PIPELINE) == standalone.aggregate(PIPELINE)

    def test_update_many_and_delete_many(self, parallel_cluster, standalone):
        routed = parallel_cluster.get_database("shop")["orders"]
        update = {"$set": {"flag": True}}
        got_update = routed.update_many({"store": 1}, update)
        want_update = standalone.update_many({"store": 1}, update)
        assert got_update.modified_count == want_update.modified_count
        got_delete = routed.delete_many({"store": 0})
        want_delete = standalone.delete_many({"store": 0})
        assert got_delete.deleted_count == want_delete.deleted_count
        assert routed.count_documents({}) == standalone.count_documents({})

    def test_serial_mode_matches_thread_mode(self):
        serial = build_cluster("serial")
        threaded = build_cluster("thread")
        try:
            q = {"store": {"$in": [0, 2]}}
            s = serial.get_database("shop")["orders"]
            t = threaded.get_database("shop")["orders"]
            assert sorted_by_id(s.find(q).to_list()) == sorted_by_id(t.find(q).to_list())
            assert s.aggregate(PIPELINE) == t.aggregate(PIPELINE)
            assert s.count_documents(q) == t.count_documents(q)
        finally:
            serial.close()
            threaded.close()


@contextmanager
def stalled_shard(cluster, shard_id: str):
    """Hold every storage operation on one shard until the block exits.

    The shard is gated on an event, not slowed by a sleep: it misses any
    deadline however the scheduler treats the other threads, and the test
    pays the deadline, not the stall.
    """
    release = threading.Event()
    shard = cluster.shard(shard_id)
    original = shard.run

    def gated_run(operation, *args, **kwargs):
        release.wait(timeout=30.0)
        return original(operation, *args, **kwargs)

    shard.run = gated_run
    try:
        yield
    finally:
        release.set()


def build_cluster_with_deadline(deadline_seconds: float, on_timeout: str = "raise"):
    """A loaded cluster whose *queries* run under a scatter deadline.

    The deadline is set after the load: building the cluster is a dozen
    fan-outs that the tests below say nothing about, and under a 0.15 s
    budget a collector pause or a busy runner fails one of them.
    """
    cluster = build_cluster("thread")
    cluster.router.scatter_policy = ScatterPolicy(
        deadline_seconds=deadline_seconds, on_timeout=on_timeout
    )
    return cluster


def owning_shard(cluster, order_id: int) -> str:
    """The shard that stores ``order_id`` (its hashed chunk's owner)."""
    return next(
        shard.shard_id
        for shard in cluster.shards
        if shard.collection("shop", "orders").count_documents({"order_id": order_id})
    )


def record_shard_threads(cluster) -> set[int]:
    """Collect the ident of every thread that runs a shard storage operation."""
    seen: set[int] = set()
    for shard in cluster.shards:

        def recording_run(operation, *args, _original=shard.run, **kwargs):
            seen.add(threading.get_ident())
            return _original(operation, *args, **kwargs)

        shard.run = recording_run
    return seen


class TestCallerRunsSingleShardScatter:
    """One branch and no deadline: nothing to overlap, nothing to abandon."""

    def test_single_shard_operations_run_on_the_calling_thread(self):
        cluster = ShardedCluster(shard_count=3, executor_mode="thread")
        try:
            seen = record_shard_threads(cluster)
            pool = cluster.router._runner._threads
            db = cluster.get_database("shop")

            # An unsharded collection lives on the primary shard only.
            plain = db["plain"]
            plain.insert_many([dict(doc) for doc in DOCS[:40]])
            assert len(plain.find({"store": 1}, sort=[("order_id", 1)]).to_list()) == 10
            assert plain.aggregate(PIPELINE)
            assert plain.update_many({"store": 2}, {"$set": {"flag": 1}}).modified_count == 10
            assert plain.delete_many({"store": 3}).deleted_count == 10
            assert plain.count_documents({}) == 30
            assert seen == {threading.get_ident()}
            assert pool == []

            # Sharding the collection is itself a fan-out (index DDL everywhere).
            cluster.shard_collection("shop", "orders", {"order_id": "hashed"})
            assert len(pool) == 3
            seen.clear()
            orders = db["orders"]
            for doc in DOCS[:30]:
                orders.insert_one(dict(doc))
            assert [d["order_id"] for d in orders.find({"order_id": 7}).to_list()] == [7]
            assert orders.count_documents({"order_id": 8}) == 1
            assert orders.update_many({"order_id": 9}, {"$set": {"x": 1}}).modified_count == 1
            assert orders.update_one({"order_id": 10}, {"$set": {"x": 1}}).modified_count == 1
            assert orders.delete_many({"order_id": 11}).deleted_count == 1
            assert seen == {threading.get_ident()}

            # A broadcast still goes to the pool (a quick worker may take
            # more than one branch), never to the caller.
            seen.clear()
            assert orders.count_documents({"store": 1}) == 8
            assert seen and seen <= {thread.ident for thread in pool}
            assert cluster.router.metrics.targeted_operations >= 40
        finally:
            cluster.close()

    def test_targeted_find_reports_no_queue_wait(self, parallel_cluster):
        orders = parallel_cluster.get_database("shop")["orders"]
        waits = []
        for order_id in range(5):
            explain = orders.explain({"order_id": order_id}, verbosity="executionStats")
            (timing,) = explain["executionStats"]["shards"].values()
            assert timing["executeSeconds"] > 0
            waits.append(timing["queueSeconds"])
        # No hand-off: the branch starts within microseconds of its launch.
        assert min(waits) < 5e-6


class TestDeadlines:
    """One shard never answers; what the caller sees is the policy's doing.

    Where an assertion needs the *other* shards' answers (the partial
    policy), they get 0.5 s for a millisecond of work — a deadline they
    cannot miss; where it only needs the stalled shard to be late, 0.15 s.
    """

    def test_raise_policy_names_the_laggard(self):
        cluster = build_cluster_with_deadline(0.15)
        try:
            orders = cluster.get_database("shop")["orders"]
            with stalled_shard(cluster, "shard2"), pytest.raises(ShardTimeoutError) as excinfo:
                orders.count_documents({"store": 1})
            assert "shard2" in excinfo.value.shard_ids
            assert excinfo.value.deadline_seconds == pytest.approx(0.15)
        finally:
            cluster.close()

    def test_partial_policy_returns_responsive_shards(self):
        cluster = build_cluster_with_deadline(0.5, "partial")
        try:
            orders = cluster.get_database("shop")["orders"]
            full = sum(
                1 for d in DOCS if d["store"] == 1
            )
            with stalled_shard(cluster, "shard2"):
                partial = orders.count_documents({"store": 1})
            assert 0 < partial < full
            metrics = cluster.router.metrics
            assert metrics.shards_timed_out >= 1
            assert metrics.partial_operations >= 1
        finally:
            cluster.close()

    def test_partial_policy_streaming_find(self):
        cluster = build_cluster_with_deadline(0.5, "partial")
        try:
            orders = cluster.get_database("shop")["orders"]
            with stalled_shard(cluster, "shard1"):
                docs = orders.find({}, sort=[("order_id", 1)]).to_list()
            assert 0 < len(docs) < len(DOCS)
            ids = [d["order_id"] for d in docs]
            assert ids == sorted(ids)
        finally:
            cluster.close()

    def test_streaming_find_raise_policy(self):
        cluster = build_cluster_with_deadline(0.15)
        try:
            orders = cluster.get_database("shop")["orders"]
            with stalled_shard(cluster, "shard3"), pytest.raises(ShardTimeoutError) as excinfo:
                orders.find({}, sort=[("order_id", 1)]).to_list()
            assert "shard3" in excinfo.value.shard_ids
        finally:
            cluster.close()

    def test_single_target_raise_policy(self):
        """A deadline sends even a one-shard operation through the pool."""
        cluster = build_cluster_with_deadline(0.15)
        try:
            owner = owning_shard(cluster, 41)
            orders = cluster.get_database("shop")["orders"]
            with stalled_shard(cluster, owner):
                started = time.perf_counter()
                with pytest.raises(ShardTimeoutError) as excinfo:
                    orders.count_documents({"order_id": 41})
                assert time.perf_counter() - started < 0.9  # abandoned, not waited out
                assert excinfo.value.shard_ids == [owner]
                assert excinfo.value.completed == []
                with pytest.raises(ShardTimeoutError):
                    orders.find({"order_id": 41}).to_list()
        finally:
            cluster.close()

    def test_single_target_partial_policy(self):
        cluster = build_cluster_with_deadline(0.15, "partial")
        try:
            owner = owning_shard(cluster, 41)
            orders = cluster.get_database("shop")["orders"]
            with stalled_shard(cluster, owner):
                assert orders.count_documents({"order_id": 41}) == 0
                assert orders.find({"order_id": 41}).to_list() == []
            metrics = cluster.router.metrics
            assert metrics.shards_timed_out == 2
            assert metrics.partial_operations == 2
            assert metrics.targeted_operations == 2
            assert cluster.router.last_scatter_report["timedOutShards"] == [owner]
        finally:
            cluster.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ScatterPolicy(deadline_seconds=-1.0)
        with pytest.raises(ValueError):
            ScatterPolicy(on_timeout="retry")


class TestStreamingGather:
    def test_merge_starts_before_slowest_branch_finishes(self):
        """The gather consumes early batches while a slow branch still runs."""
        runner = ScatterRunner("thread")
        stream = StreamGather(["fast", "slow"], per_shard=False)
        release_slow = threading.Event()

        def fast(branch):
            stream.put("fast", [{"k": 1}])
            stream.finish("fast")

        def slow(branch):
            release_slow.wait(timeout=5.0)
            stream.put("slow", [{"k": 2}])
            stream.finish("slow")

        pending = runner.launch(
            "find", [("fast", fast), ("slow", slow)], ScatterPolicy()
        )
        try:
            iterator = stream.iterators(pending)[0]
            first = next(iterator)
            # The first document arrived while the slow branch is still held.
            assert first == {"k": 1}
            slow_branch = next(b for b in pending.branches if b.shard_id == "slow")
            assert not slow_branch.done.is_set()
            release_slow.set()
            assert list(iterator) == [{"k": 2}]
            pending.gather()
        finally:
            release_slow.set()
            runner.close()

    def test_limit_cancels_remaining_shipping(self, parallel_cluster):
        orders = parallel_cluster.get_database("shop")["orders"]
        parallel_cluster.reset_metrics()
        docs = orders.find({}, sort=[("order_id", 1)], limit=9).to_list()
        assert [d["order_id"] for d in docs] == list(range(9))
        # limit pushdown: each shard ships at most `limit` documents.
        assert parallel_cluster.router.metrics.documents_shipped <= 3 * 9


class TestFirstMatchUpdateOne:
    def test_exactly_one_document_updated(self, parallel_cluster):
        orders = parallel_cluster.get_database("shop")["orders"]
        result = orders.update_one({"store": 2}, {"$set": {"touched": True}})
        assert result.matched_count == 1
        assert result.modified_count == 1
        assert orders.count_documents({"touched": True}) == 1

    def test_no_match_and_upsert(self, parallel_cluster):
        orders = parallel_cluster.get_database("shop")["orders"]
        miss = orders.update_one({"store": 99}, {"$set": {"x": 1}})
        assert miss.matched_count == 0
        upserted = orders.update_one(
            {"order_id": 9001, "store": 99}, {"$set": {"x": 1}}, upsert=True
        )
        assert upserted.upserted_id is not None
        assert orders.count_documents({"store": 99}) == 1


class TestExplainExecutionStats:
    def test_find_explain_execution_stats(self, parallel_cluster):
        routed = parallel_cluster.get_database("shop")["orders"]
        explain = routed.explain({"store": 1}, verbosity="executionStats")
        stats = explain["executionStats"]
        assert stats["nReturned"] == sum(1 for d in DOCS if d["store"] == 1)
        assert set(stats["shards"]) == {"shard1", "shard2", "shard3"}
        for timing in stats["shards"].values():
            assert set(timing) == {
                "queueSeconds",
                "dispatchSeconds",
                "executeSeconds",
                "shipSeconds",
                "totalSeconds",
            }
            assert timing["executeSeconds"] > 0
        # The timings are those of this find's own fan-out.
        report = parallel_cluster.router.last_scatter_report
        assert report["purpose"] == "find" and report["makespanSeconds"] > 0
        assert report["shards"] == stats["shards"]

    def test_aggregate_explain_execution_stats(self, parallel_cluster):
        routed = parallel_cluster.get_database("shop")["orders"]
        explain = routed.explain(PIPELINE, verbosity="executionStats")
        stats = explain["executionStats"]
        assert stats["nReturned"] == len(routed.aggregate(PIPELINE))
        assert set(stats["shards"]) == {"shard1", "shard2", "shard3"}
        for timing in stats["shards"].values():
            assert timing["totalSeconds"] >= timing["executeSeconds"] >= 0


def run_stress_workload(cluster, client_count: int, concurrent: bool) -> None:
    """The exact same operation mix, concurrent or sequential."""

    def client_ops(client_id: int):
        db = cluster.get_database("shop")
        orders = db["orders"]
        private = db[f"scratch_{client_id}"]
        for round_no in range(3):
            orders.find({"store": client_id % 4}).to_list()
            orders.count_documents({"tag": f"t{client_id % 7}"})
            orders.distinct("store", {"tag": f"t{round_no % 7}"})
            private.insert_many(
                [{"k": client_id * 100 + round_no * 10 + i} for i in range(10)]
            )
            private.update_many(
                {"k": {"$gte": client_id * 100}}, {"$set": {"r": round_no}}
            )
        private.delete_many({"r": 0})

    if concurrent:
        threads = [
            threading.Thread(target=client_ops, args=(client_id,))
            for client_id in range(client_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        for client_id in range(client_count):
            client_ops(client_id)


class TestConcurrencyStress:
    def test_metric_totals_exact_under_parallel_scatter(self):
        """8 concurrent clients: totals must equal the sequential baseline."""
        serial = build_cluster("serial")
        threaded = build_cluster("thread")
        try:
            run_stress_workload(serial, client_count=8, concurrent=False)
            run_stress_workload(threaded, client_count=8, concurrent=True)

            want = serial.router.metrics
            got = threaded.router.metrics
            assert got.operations == want.operations
            assert got.targeted_operations == want.targeted_operations
            assert got.broadcast_operations == want.broadcast_operations
            assert got.shards_contacted == want.shards_contacted
            assert got.documents_shipped == want.documents_shipped
            assert got.bytes_shipped == want.bytes_shipped
            assert got.shards_timed_out == 0

            want_net = serial.network.stats
            got_net = threaded.network.stats
            assert got_net.messages == want_net.messages
            assert got_net.bytes_transferred == want_net.bytes_transferred
            assert got_net.by_purpose == want_net.by_purpose
            # The log is a bounded window; the counters above are the totals.
            assert len(threaded.network.log) == min(got_net.messages, MESSAGE_LOG_CAPACITY)
            assert len(serial.network.log) == min(want_net.messages, MESSAGE_LOG_CAPACITY)

            # Per-shard operation counts are deterministic too.
            for shard_id in ("shard1", "shard2", "shard3"):
                assert (
                    threaded.shard(shard_id).operations
                    == serial.shard(shard_id).operations
                )
        finally:
            serial.close()
            threaded.close()


class TestRealtimeNetworkOverlap:
    def test_threads_overlap_realtime_network_waits(self):
        """With realtime emulation, 3 concurrent branches ≈ max not sum."""
        model = NetworkModel(latency_seconds=0.02, realtime=True)
        serial = build_cluster("serial", network_model=model)
        threaded = build_cluster("thread", network_model=model)
        try:
            query = {"store": 1}

            def timed(cluster):
                started = time.perf_counter()
                cluster.get_database("shop")["orders"].find(query).to_list()
                return time.perf_counter() - started

            serial_wall = min(timed(serial) for _ in range(3))
            parallel_wall = min(timed(threaded) for _ in range(3))
            assert parallel_wall < serial_wall
        finally:
            serial.close()
            threaded.close()
