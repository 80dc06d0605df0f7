"""``served_mixed``: mixed point / analytical traffic through the whole stack.

``RemoteClient`` -> wire -> ``DocumentStoreServer`` -> 3-shard durable
``ShardedCluster`` (hashed on ``order_id``, ``fsync="batch"``).  Two client
threads, one connection each, replay pre-generated blocks of operations in a
closed loop.  The traced pass replaces the two clients by the *surface ladder*:
one client replays the same blocks against four surfaces of growing depth, and
the per-kind differences between adjacent rungs are what each layer adds.

Everything a check needs to be exact is built into the data: ``amount`` is an
integer number of cents, ``$inc`` never moves a document across the scan's
threshold, and inserted documents carry a ``store`` no query asks for, so
every read has one right answer however the two clients interleave.
"""

from __future__ import annotations

import random
import socket
import statistics
import threading
import time
from typing import Any, Callable

from repro.documentstore import DocumentStoreClient, bson
from repro.server import DocumentStoreServer, Opcode, RemoteClient, encode_frame, recv_frame
from repro.sharding import ShardedCluster

from harness import Run
from metrics import EXAMINED_SHAPES, KINDS, READ_KINDS, WRITE_KINDS, drift_ratio, percentile
from tpcds_workloads import counter_delta, router_counters, router_layer_metrics

DATABASE = "shop"
COLLECTION = "orders"
STORES = 200
TAGS = tuple(f"tag{i}" for i in range(7))
SCAN_THRESHOLD = 25_000
#: Operations per 1000, by kind (the issue's mix).
MIX = {
    "find_point": 300,
    "find_sorted": 200,
    "find_paged": 100,
    "agg_indexed": 100,
    "count": 58,
    "agg_scan": 2,
    "update_one": 140,
    "insert_many": 50,
    "delete_many": 50,
}
INSERT_BATCH = 5
CLIENTS = 2


class Dataset:
    """The ``orders`` collection and the answers every read must give."""

    def __init__(self, seed: int, count: int) -> None:
        rng = random.Random(seed)
        letters = "abcdefghijklmnopqrstuvwxyz"
        self.documents = [
            {
                "order_id": order_id,
                "amount": rng.randrange(100, 50_001),
                "store": rng.randrange(STORES),
                "tag": rng.choice(TAGS),
                "note": "".join(rng.choices(letters, k=40)),
            }
            for order_id in range(count)
        ]
        self.per_store = [0] * STORES
        self.tags_per_store: list[dict[str, int]] = [{} for _ in range(STORES)]
        self.scan_answer: dict[str, int] = {}
        for document in self.documents:
            store, tag = document["store"], document["tag"]
            self.per_store[store] += 1
            self.tags_per_store[store][tag] = self.tags_per_store[store].get(tag, 0) + 1
            if document["amount"] > SCAN_THRESHOLD:
                self.scan_answer[tag] = self.scan_answer.get(tag, 0) + 1
        # ``$inc`` adds at most 5 cents a time; documents this far from the
        # threshold never cross it within a run.
        self.updatable = [
            d["order_id"] for d in self.documents if abs(d["amount"] - SCAN_THRESHOLD) > 2_000
        ]

    def load(self, collection: Any, *, sharded: bool = True) -> None:
        for start in range(0, len(self.documents), 500):
            collection.insert_many(self.documents[start:start + 500])
        collection.create_index("store")
        collection.create_index("amount")
        if not sharded:
            # A sharded collection gets its shard-key index from the cluster.
            collection.create_index("order_id")


def block_counts(block_ops: int) -> dict[str, int]:
    """The mix scaled to one block, every kind at least once."""
    counts = {kind: max(1, round(share * block_ops / 1000)) for kind, share in MIX.items()}
    counts["delete_many"] = counts["insert_many"]
    counts["find_point"] += block_ops - sum(counts.values())
    return counts


def make_block(dataset: Dataset, seed: int, client: int, index: int, block_ops: int) -> list[tuple]:
    """One client's block *index*: a shuffled list of ``(kind, argument)``.

    Inserts and deletes alternate in the block's write slots, each delete
    removing the five documents of the insert before it, so the collection
    is back at its initial size when the block ends.
    """
    rng = random.Random(f"{seed}/{client}/{index}")
    counts = block_counts(block_ops)
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    fresh = len(dataset.documents) + (client * 1_000 + index) * 100_000
    block = []
    pending: list[int] = []
    for kind in kinds:
        if kind in ("insert_many", "delete_many"):
            if pending:
                block.append(("delete_many", pending))
                pending = []
            else:
                pending = list(range(fresh, fresh + INSERT_BATCH))
                fresh += INSERT_BATCH
                block.append(("insert_many", pending))
        elif kind == "find_point":
            block.append((kind, rng.randrange(len(dataset.documents))))
        elif kind == "update_one":
            block.append((kind, (rng.choice(dataset.updatable), rng.randrange(1, 6))))
        elif kind == "agg_scan":
            block.append((kind, None))
        else:
            block.append((kind, rng.randrange(STORES)))
    return block


SORTED_PROJECTION = {"_id": 0, "order_id": 1, "amount": 1, "store": 1}
SORTED_FIELDS = {"order_id", "amount", "store"}


def scan_pipeline() -> list[dict[str, Any]]:
    return [
        {"$match": {"amount": {"$gt": SCAN_THRESHOLD}}},
        {"$group": {"_id": "$tag", "n": {"$sum": 1}, "total": {"$sum": "$amount"}}},
    ]


def store_pipeline(store: int) -> list[dict[str, Any]]:
    return [
        {"$match": {"store": store}},
        {"$group": {"_id": "$tag", "n": {"$sum": 1}, "total": {"$sum": "$amount"}}},
    ]


def inserted_document(order_id: int, client: int) -> dict[str, Any]:
    """A document ``insert_many`` adds: a store no read asks for, below the scan's threshold."""
    return {
        "order_id": order_id, "amount": 100, "store": STORES + client, "tag": TAGS[0],
        "note": "n" * 40,
    }


def execute(collection: Any, dataset: Dataset, client: int, kind: str, argument: Any) -> str | None:
    """Run one operation on any collection surface; return what is wrong, if anything."""
    if kind == "find_point":
        document = collection.find_one({"order_id": argument})
        if document is None or document["order_id"] != argument:
            return f"find_point {argument}: got {document}"
    elif kind == "find_sorted":
        found = collection.find(
            {"store": argument}, SORTED_PROJECTION, sort=[("amount", -1)], limit=10
        ).to_list()
        amounts = [d["amount"] for d in found]
        if (
            len(found) != min(10, dataset.per_store[argument])
            or any(d["store"] != argument or set(d) != SORTED_FIELDS for d in found)
            or amounts != sorted(amounts, reverse=True)
        ):
            return f"find_sorted store {argument}: wrong key, order, limit or projection"
    elif kind == "find_paged":
        found = collection.find({"store": argument}, batch_size=25, limit=100).to_list()
        if (
            len(found) != min(100, dataset.per_store[argument])
            or any(d["store"] != argument for d in found)
            or len({d["order_id"] for d in found}) != len(found)
        ):
            return f"find_paged store {argument}: wrong key, limit or a repeated document"
    elif kind == "agg_indexed":
        groups = {g["_id"]: g["n"] for g in collection.aggregate(store_pipeline(argument))}
        if groups != dataset.tags_per_store[argument]:
            return f"agg_indexed store {argument}: {groups}"
    elif kind == "count":
        count = collection.count_documents({"store": argument})
        if count != dataset.per_store[argument]:
            return f"count store {argument}: {count}"
    elif kind == "agg_scan":
        groups = {g["_id"]: g["n"] for g in collection.aggregate(scan_pipeline())}
        if groups != dataset.scan_answer:
            return f"agg_scan: {groups}"
    elif kind == "update_one":
        order_id, cents = argument
        result = collection.update_one({"order_id": order_id}, {"$inc": {"amount": cents}})
        if result.modified_count != 1:
            return f"update_one {order_id}: modified {result.modified_count}"
    elif kind == "insert_many":
        result = collection.insert_many(
            [
                inserted_document(order_id, client) for order_id in argument
            ]
        )
        if len(result.inserted_ids) != len(argument):
            return f"insert_many: inserted {len(result.inserted_ids)}"
    elif kind == "delete_many":
        result = collection.delete_many({"order_id": {"$in": argument}})
        if result.deleted_count != len(argument):
            return f"delete_many: deleted {result.deleted_count}"
    return None


def replay(
    run: Run, collection: Any, dataset: Dataset, client: int, block: list[tuple], prefix: str,
    increments: dict[int, int] | None,
) -> None:
    """Replay one block in a closed loop; time, check and count every operation."""
    for kind, argument in block:
        problem: str | None
        start = time.perf_counter()
        try:
            problem = execute(collection, dataset, client, kind, argument)
        except Exception as exc:  # a failed operation is a result, not a crash
            problem = f"{kind}: {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        run.sample(f"{prefix}{kind}").add(start, end)
        run.check(problem is None, problem or kind)
        if problem is None and kind == "update_one" and increments is not None:
            increments[argument[0]] = increments.get(argument[0], 0) + argument[1]


def build_durable_cluster(run: Run, dataset: Dataset, name: str) -> tuple[ShardedCluster, Any]:
    cluster = ShardedCluster(shard_count=3, data_dir=run.scratch(name), fsync="batch")
    cluster.shard_collection(DATABASE, COLLECTION, {"order_id": "hashed"})
    collection = cluster.get_database(DATABASE)[COLLECTION]
    dataset.load(collection)
    return cluster, collection


def check_final_state(
    run: Run, collection: Any, dataset: Dataset, increments: dict[int, int], when: str
) -> None:
    """The collection must be the initial one with the acknowledged ``$inc`` s applied."""
    found = {d["order_id"]: d for d in collection.find({}, {"_id": 0})}
    problem = None
    if len(found) != len(dataset.documents):
        problem = f"{len(found)} documents, expected {len(dataset.documents)}"
    else:
        for document in dataset.documents:
            order_id = document["order_id"]
            expected = dict(document, amount=document["amount"] + increments.get(order_id, 0))
            if found.get(order_id) != expected:
                problem = f"order {order_id}: {found.get(order_id)} != {expected}"
                break
    run.check(problem is None, f"final state {when}: {problem}")


def served_mixed(run: Run) -> None:
    dataset = Dataset(run.seed, run.scale.orders)
    if run.corrupt:
        dataset.per_store = [count + 1 for count in dataset.per_store]
    if run.traced:
        return surface_ladder(run, dataset)
    block_ops = run.scale.block_ops
    cluster, direct = build_durable_cluster(run, dataset, "served")
    server = DocumentStoreServer(cluster, port=0).start()
    clients = [RemoteClient(server.address, pool_size=1) for _ in range(CLIENTS)]
    increments: list[dict[int, int]] = [{} for _ in range(CLIENTS)]
    # Blocks measured per client, fixed once the warm-up block has been timed
    # so that both clients stop together.
    plan = {"blocks": 1}
    barrier = threading.Barrier(CLIENTS)

    def client_loop(client: int) -> None:
        collection = clients[client][DATABASE][COLLECTION]
        barrier.wait()
        started = time.perf_counter()
        block = make_block(dataset, run.seed, client, 0, block_ops)
        replay(run, collection, dataset, client, block, "warmup.", increments[client])
        if client == 0:
            plan["blocks"] = max(1, round(run.seconds / (time.perf_counter() - started)))
        barrier.wait()
        for index in range(1, plan["blocks"] + 1):
            block = make_block(dataset, run.seed, client, index, block_ops)
            # Both clients add to the same sample sets (appends are atomic).
            with run.timed("round"):
                replay(run, collection, dataset, client, block, "latency.", increments[client])

    threads = [
        threading.Thread(target=client_loop, args=(client,), name=f"client{client}")
        for client in range(CLIENTS)
    ]
    run.setup_done()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
        server.shutdown()
    merged: dict[int, int] = {}
    for per_client in increments:
        for order_id, cents in per_client.items():
            merged[order_id] = merged.get(order_id, 0) + cents
    check_final_state(run, direct, dataset, merged, "before close")
    cluster.close()
    reopened = ShardedCluster(shard_count=3, data_dir=cluster.data_dir, fsync="batch")
    try:
        recovered = reopened.get_database(DATABASE)[COLLECTION]
        check_final_state(run, recovered, dataset, merged, "after reopen")
    finally:
        reopened.close()
    run.stop_clock()

    seconds = run.sampler.seconds
    latencies = {kind: run.samples[f"latency.{kind}"].values(seconds) for kind in KINDS}
    blocks = run.samples["round"].intervals
    window = seconds(min(start for start, _ in blocks), max(end for _, end in blocks))
    operations = sum(len(values) for values in latencies.values())
    run.e2e["ops_per_s"] = operations / window
    run.e2e["round_s"] = run.median("round")
    run.e2e["read_p50_ms"] = 1e3 * statistics.median(v for k in READ_KINDS for v in latencies[k])
    run.e2e["write_p50_ms"] = 1e3 * statistics.median(v for k in WRITE_KINDS for v in latencies[k])


# ----------------------------------------------------------------- traced pass


def surface_ladder(run: Run, dataset: Dataset) -> None:
    """One client, the same blocks, four surfaces: what each layer adds per kind."""
    block_ops = run.scale.block_ops
    blocks = [
        make_block(dataset, run.seed, 0, index, block_ops)
        for index in range(run.scale.ladder_blocks + 1)
    ]
    per_thousand = 1000.0 / (block_ops * run.scale.ladder_blocks)

    run.setup_done()

    def rung(
        number: int, collection: Any, counters: Callable[[], dict] | None = None
    ) -> dict | None:
        """Replay the blocks on one surface; return what *counters* counted meanwhile."""
        prefix = f"rung{number}."
        with run.tracer.span(f"ladder.rung{number}", new_op=True):
            replay(run, collection, dataset, 0, blocks[0], "warmup." + prefix, None)
            before = counters() if counters else None
            for block in blocks[1:]:
                for operation in block:
                    with run.tracer.span(f"client.op.{operation[0]}"):
                        replay(run, collection, dataset, 0, [operation], prefix, None)
            return counter_delta(before, counters()) if counters else None

    # One deployment at a time: a rung's garbage collections must not pay for
    # the documents of the other three.
    plain = DocumentStoreClient(name="rung1")[DATABASE][COLLECTION]
    dataset.load(plain, sharded=False)
    rung(1, plain)
    examined = examined_per_returned(plain, blocks[1])
    del plain

    cluster = ShardedCluster(shard_count=3)
    try:
        cluster.shard_collection(DATABASE, COLLECTION, {"order_id": "hashed"})
        routed = cluster.get_database(DATABASE)[COLLECTION]
        dataset.load(routed)
        router_delta = rung(2, routed, lambda: router_counters(cluster))
    finally:
        cluster.close()

    cluster, durable = build_durable_cluster(run, dataset, "rung3")
    try:
        wal_delta = rung(3, durable, lambda: wal_counters(cluster))
    finally:
        cluster.close()

    cluster, _direct = build_durable_cluster(run, dataset, "rung4")
    server = DocumentStoreServer(cluster, port=0).start()
    client = RemoteClient(server.address, pool_size=1)
    try:
        server_delta = rung(4, client[DATABASE][COLLECTION], lambda: server_counters(server))
    finally:
        client.close()
        server.shutdown()
        cluster.close()
    del cluster, routed, durable

    user_bytes = written_user_bytes(dataset, blocks[1:])
    frame_times(run)
    run.stop_clock()

    seconds = run.sampler.seconds
    layers = run.layers
    rungs = {
        number: {kind: run.samples[f"rung{number}.{kind}"].values(seconds) for kind in KINDS}
        for number in (1, 2, 3, 4)
    }
    p50 = {
        number: {kind: 1e3 * statistics.median(values) for kind, values in kinds.items()}
        for number, kinds in rungs.items()
    }
    for kind in KINDS:
        layers[f"documentstore.op_ms.{kind}"] = p50[1][kind]
        layers[f"sharding.op_added_ms.{kind}"] = p50[2][kind] - p50[1][kind]
        layers[f"server.op_added_ms.{kind}"] = p50[4][kind] - p50[3][kind]
        layers[f"client.p50_ms.{kind}"] = p50[4][kind]
        layers[f"client.p99_ms.{kind}"] = 1e3 * percentile(rungs[4][kind], 0.99)
    for kind in WRITE_KINDS:
        layers[f"documentstore.wal_added_ms.{kind}"] = p50[3][kind] - p50[2][kind]
    for name, kinds in (("read", READ_KINDS), ("write", WRITE_KINDS)):
        pooled = [value for kind in kinds for value in rungs[4][kind]]
        layers[f"client.{name}_p99_ms"] = 1e3 * percentile(pooled, 0.99)
    for shape, ratio in examined.items():
        layers[f"documentstore.examined_per_returned.{shape}"] = ratio
    # Counters are per 1000 operations of the block mix.
    for name, value in router_layer_metrics([router_delta], run.sampler).items():
        scaled = name not in ("sharding.targeted_ratio", "sharding.shards_per_op")
        layers[name] = value * per_thousand if scaled else value
    routed_busy = sum(sum(values) for values in rungs[2].values()) * per_thousand
    layers["sharding.router_self_s"] = routed_busy - layers["sharding.fanout_wall_s"]
    layers["documentstore.wal_records"] = wal_delta["records"] * per_thousand
    layers["documentstore.wal_bytes"] = wal_delta["bytes"] * per_thousand
    layers["documentstore.wal_fsyncs"] = wal_delta["fsyncs"] * per_thousand
    layers["documentstore.wal_bytes_per_user_byte"] = wal_delta["bytes"] / user_bytes
    operations = block_ops * run.scale.ladder_blocks
    layers["server.wire_bytes_in"] = server_delta["bytes_in"] * per_thousand
    layers["server.wire_bytes_out"] = server_delta["bytes_out"] * per_thousand
    wire_bytes = server_delta["bytes_in"] + server_delta["bytes_out"]
    layers["server.wire_bytes_per_op"] = wire_bytes / operations
    layers["server.getmore_per_find"] = server_delta["getmores"] / max(1, server_delta["finds"])
    layers["server.errors"] = server_delta["errors"]
    layers["server.rejections"] = server_delta["rejected"]
    # One client, one pooled connection: any further accepted connection is a
    # retry of an idempotent read on a fresh socket.
    layers["server.retries"] = server_delta["accepted"]
    layers["server.cursors_open_at_end"] = server_delta["cursors_open"]
    layers["server.frame_encode_us"] = 1e6 * run.median("frame.encode")
    layers["server.frame_decode_us"] = 1e6 * run.median("frame.decode")
    # Ladder validity: kinds whose median does not fall from a rung to the
    # next deeper one (5 % of noise allowed).
    run.validity["ladder_monotone_kinds"] = sum(
        all(p50[number][kind] <= 1.05 * p50[number + 1][kind] for number in (1, 2, 3))
        for kind in KINDS
    )
    layers["bench.drift_ratio"] = drift_ratio(rungs[4]["find_point"])


def examined_per_returned(collection: Any, block: list[tuple]) -> dict[str, float]:
    """Documents examined per document returned, from the store's own explain."""
    store = next(argument for kind, argument in block if kind == "count")
    by_store = {"store": store}
    shapes = {
        "find_sorted": collection.find(
            by_store, SORTED_PROJECTION, sort=[("amount", -1)], limit=10
        ).spec,
        "find_paged": collection.find(by_store, batch_size=25, limit=100).spec,
        "count": by_store,
        "agg_indexed": store_pipeline(store),
        "agg_scan": scan_pipeline(),
    }
    ratios = {}
    for shape in EXAMINED_SHAPES:
        explanation = collection.explain(shapes[shape], verbosity="executionStats")
        plan = explanation["queryPlanner"]["winningPlan"]
        # An index scan reports the keys it examined; a collection scan
        # examines every document.
        examined = plan.get("keysExamined")
        if examined is None:
            examined = collection.count_documents({})
        ratios[shape] = examined / max(1, explanation["executionStats"]["nReturned"])
    return ratios


def wal_counters(cluster: ShardedCluster) -> dict[str, float]:
    shards = cluster.durability_status()["shards"].values()
    return {
        "records": sum(s["records_appended"] for s in shards),
        "bytes": sum(s["bytes_appended"] for s in shards),
        "fsyncs": sum(s["fsync_calls"] for s in shards),
        "stamp": time.perf_counter(),
    }


def server_counters(server: DocumentStoreServer) -> dict[str, float]:
    status = server.server_status()
    cursors = status["cursors"]
    return {
        "bytes_in": status["wire"]["bytes_in"],
        "bytes_out": status["wire"]["bytes_out"],
        "finds": status["opcounters"].get("find", 0),
        "getmores": status["opcounters"].get("get_more", 0),
        "errors": status["errors"],
        "rejected": status["connections"]["rejected"],
        "accepted": status["connections"]["accepted"],
        "cursors_open": cursors["opened"] - cursors["exhausted"] - cursors["killed"],
        "stamp": time.perf_counter(),
    }


def written_user_bytes(dataset: Dataset, blocks: list[list[tuple]]) -> int:
    """``bson.document_size`` of every document the blocks insert or update."""
    by_id = {d["order_id"]: d for d in dataset.documents}
    total = 0
    for block in blocks:
        for kind, argument in block:
            if kind == "update_one":
                total += bson.document_size(by_id[argument[0]])
            elif kind == "insert_many":
                total += sum(bson.document_size(inserted_document(i, 0)) for i in argument)
    return total


def frame_times(run: Run) -> None:
    """``encode_frame`` / ``recv_frame`` of a 100-document reply over a socketpair."""
    reply = {"batch": [{"order_id": i, "amount": i, "note": "n" * 40} for i in range(100)]}
    left, right = socket.socketpair()
    try:
        for request_id in range(50):
            with run.timed("frame.encode"):
                frame = encode_frame(Opcode.REPLY, request_id, reply)
            left.sendall(frame)
            with run.timed("frame.decode"):
                recv_frame(right)
    finally:
        left.close()
        right.close()
