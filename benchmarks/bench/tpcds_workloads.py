"""``tpcds_standalone`` and ``tpcds_sharded``: the paper's query runtimes.

Both run TPC-DS queries 7, 21, 46 and 50 through ``repro.core`` — the same
code — against the small dataset (12 query tables, 20 261 documents).  The
stand-alone workload adds the denormalized queries; the sharded one routes
everything through a 3-shard in-memory cluster, so the difference between the
two *is* the ``sharding`` layer.

The dataset's content is the harness dataset (generator seed 20151109) for
every ``--seed``: at 1/1000 scale a different draw moves a semi-join from 8 to
64 documents and Q21 by 30 %, which would drown any bound.  ``--seed`` decides
the order rows arrive in each table and the order the queries run in a round.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any

from repro.core import (
    SHARD_KEYS,
    denormalize_all_facts,
    migrate_rows,
    run_denormalized_query,
    run_normalized_query,
    tiny_profile,
)
from repro.documentstore import DocumentStoreClient, bson
from repro.sharding import ShardedCluster
from repro.tpcds import QUERY_TABLES, SCALE_SMALL, TPCDSGenerator

from harness import Run
from metrics import CALLS, DEFAULT_SEED, QUERIES
from trace import TimedDatabase

#: ``ExperimentHarness.sharded_database`` uses the same value (64 KiB chunks).
CHUNK_SIZE_BYTES = 64 * 1024
DATABASE = "Dataset_1GB"


def generate_rows(run: Run) -> dict[str, list[dict[str, Any]]]:
    """The 12 query tables, rows in the order ``--seed`` says they arrive."""
    profile = tiny_profile() if run.scale.smoke else SCALE_SMALL
    started = time.perf_counter()
    generator = TPCDSGenerator(profile, seed=DEFAULT_SEED)
    rng = random.Random(run.seed)
    tables = {}
    for table in sorted(QUERY_TABLES):
        rows = list(generator.generate_table(table))
        rng.shuffle(rows)
        tables[table] = rows
    run.sample("tpcds.generate").add(started, time.perf_counter())
    return tables


def load(database: Any, tables: dict[str, list[dict[str, Any]]]) -> None:
    """``migrate_rows`` every table into *database* (batches of 500)."""
    for table, rows in tables.items():
        migrate_rows(database[table], rows)


def build_cluster(tables: dict[str, Any], **options: Any) -> tuple[ShardedCluster, Any]:
    """A 3-shard cluster sharded as ``ExperimentHarness.sharded_database`` does."""
    cluster = ShardedCluster(shard_count=3, **options)
    cluster.enable_sharding(DATABASE)
    for table, shard_key in SHARD_KEYS.items():
        if table in tables:
            cluster.shard_collection(
                DATABASE, table, shard_key, chunk_size_bytes=CHUNK_SIZE_BYTES
            )
    return cluster, cluster.get_database(DATABASE)


def canonical(documents: list[dict[str, Any]]) -> list[str]:
    """Result documents as a sorted list of strings, ``_id`` and order dropped.

    Floats are rounded to 9 significant digits: a sharded ``$avg`` adds the
    same numbers in another order.
    """

    def plain(value: Any) -> Any:
        if isinstance(value, float):
            return float(f"{value:.9g}")
        if isinstance(value, dict):
            return {key: plain(item) for key, item in sorted(value.items()) if key != "_id"}
        if isinstance(value, list):
            return [plain(item) for item in value]
        return value

    return sorted(repr(plain(document)) for document in documents)


def reference_answers(run: Run, database: Any) -> dict[int, list[str]]:
    """One stand-alone normalized execution of each query, computed in set-up."""
    answers = {q: canonical(run_normalized_query(database, q).results) for q in QUERIES}
    if run.corrupt:
        answers = {q: answer + ["not an answer"] for q, answer in answers.items()}
    return answers


class QueryRounds:
    """Runs rounds of queries against a database handle and records them."""

    def __init__(self, run: Run, reference: dict[int, list[str]], layer: str) -> None:
        self.run = run
        self.reference = reference
        self.layer = layer
        self.order_rng = random.Random(run.seed + 1)
        #: Per traced round: its wall interval, the root spans' intervals, and
        #: per collection call the count and the intervals spent inside it.
        self.traced_rounds: list[dict[str, Any]] = []

    def _execute(self, database: Any, kind: str, query: int, prefix: str, traced: bool) -> Any:
        run = self.run
        function = run_normalized_query if kind == "normalized" else run_denormalized_query
        label = f"{prefix}{kind}.q{query}"
        answer = None
        with run.operation(label):
            if traced:
                timed = TimedDatabase(run.tracer, self.layer, database)
                with run.tracer.span(f"core.run_{kind}_query.q{query}", new_op=True) as span:
                    result = function(timed, query)
                run.sample(f"traced.{label}").add(span["start"], span["end"])
            else:
                with run.timed(label):
                    result = function(database, query)
            answer = result.results if kind == "normalized" else result
        return answer

    def round(
        self, database: Any, kinds: tuple[str, ...], *, measured: bool, traced: bool = False,
        prefix: str = "",
    ) -> None:
        """One round: every query of every kind, in this seed's order."""
        run = self.run
        order = list(QUERIES)
        self.order_rng.shuffle(order)
        answers = []
        first_span = len(run.tracer.spans) if traced else 0
        started = time.perf_counter()
        for kind in kinds:
            for query in order:
                scope = prefix if measured else "warmup."
                answers.append((kind, query, self._execute(database, kind, query, scope, traced)))
        ended = time.perf_counter()
        if measured:
            run.sample(("traced." if traced else "") + prefix + "round").add(started, ended)
        if traced:
            self._account(first_span, started, ended)
        # Answers are checked after the clock stops for the round.
        for kind, query, answer in answers:
            if answer is not None:
                run.check(
                    canonical(answer) == self.reference[query],
                    f"{kind} q{query} differs from the reference answer",
                )

    def _account(self, first_span: int, started: float, ended: float) -> None:
        spans = self.run.tracer.spans[first_span:]
        calls = dict.fromkeys(CALLS, 0)
        busy = {call: [] for call in CALLS}
        roots = []
        for span in spans:
            if span["parent"] is None:
                roots.append((span["start"], span["end"]))
                continue
            method = span["name"].rsplit(".", 1)[1]
            if method in calls:
                calls[method] += 1
                busy[method].append((span["start"], span["end"]))
            else:  # bulk_load enter/exit: index rebuilds the inserts deferred
                busy["insert_many"].append((span["start"], span["end"]))
        self.traced_rounds.append(
            {"wall": (started, ended), "roots": roots, "calls": calls, "busy": busy}
        )

    def layer_metrics(self, busy_prefix: str) -> dict[str, float]:
        """Per-round medians of the traced rounds (after the clock stopped)."""
        seconds = self.run.sampler.seconds
        rounds = self.traced_rounds

        def total(intervals: list[tuple[float, float]]) -> float:
            return sum(seconds(start, end) for start, end in intervals)

        busy_totals = [
            {call: total(intervals) for call, intervals in item["busy"].items()} for item in rounds
        ]
        metrics = {
            "core.query_self_s": statistics.median(
                total(item["roots"]) - sum(busy.values())
                for item, busy in zip(rounds, busy_totals)
            ),
        }
        for call in CALLS:
            metrics[f"core.calls.{call}"] = statistics.median(r["calls"][call] for r in rounds)
            metrics[f"{busy_prefix}.{call}"] = statistics.median(b[call] for b in busy_totals)
        return metrics

    def span_coverage(self) -> float:
        """Smallest share of a traced round's wall time its root spans cover."""
        seconds = self.run.sampler.seconds
        return min(
            sum(seconds(start, end) for start, end in item["roots"]) / seconds(*item["wall"])
            for item in self.traced_rounds
        )


def _bson_throughput(run: Run, documents: list[dict[str, Any]]) -> int:
    """Time ``bson.encode_batch`` / ``decode_batch`` on the workload's own documents.

    Returns the documents' size in bytes, what the MB/s are taken over.
    """
    for _ in range(5):
        with run.timed("bson.encode"):
            payload = bson.encode_batch(documents)
        with run.timed("bson.decode"):
            bson.decode_batch(payload)
    return sum(bson.document_size(document) for document in documents)


def _query_medians(run: Run, prefix: str, kind: str) -> dict[int, float]:
    return {q: run.median(f"{prefix}{kind}.q{q}") for q in QUERIES}


def _common_e2e(run: Run, kinds: tuple[str, ...]) -> None:
    normalized = _query_medians(run, "", "normalized")
    for q, value in normalized.items():
        run.e2e[f"q{q}_s"] = value
    run.e2e["queryset_s"] = sum(normalized.values())
    run.e2e["round_s"] = run.e2e["queryset_s"]
    if "denormalized" in kinds:
        run.e2e["denorm_queryset_s"] = sum(_query_medians(run, "", "denormalized").values())
        run.e2e["round_s"] += run.e2e["denorm_queryset_s"]
    run.e2e["ops_per_s"] = len(kinds) * len(QUERIES) / run.median("round")


def _setup_layers(run: Run, documents: int, rate_metric: str, user_bytes: int) -> None:
    run.layers["tpcds.generate_s"] = run.median("tpcds.generate")
    run.layers["core.migrate_s"] = run.median("load")
    run.layers[rate_metric] = documents / run.median("load")
    run.layers["documentstore.bson_encode_mb_s"] = user_bytes / 1e6 / run.median("bson.encode")
    run.layers["documentstore.bson_decode_mb_s"] = user_bytes / 1e6 / run.median("bson.decode")


def _trace_overhead(run: Run) -> None:
    run.layers["bench.trace_overhead_ratio"] = run.median("traced.round") / run.median("round")


def tpcds_standalone(run: Run) -> None:
    """Experiments 2+3: normalized then denormalized queries on one database."""
    tables = generate_rows(run)
    database = DocumentStoreClient(name="standalone")[DATABASE]
    with run.timed("load"):
        load(database, tables)
    with run.timed("denormalize"):
        denormalize_all_facts(database)
    rounds = QueryRounds(run, reference_answers(run, database), "documentstore")
    kinds = ("normalized", "denormalized")
    run.setup_done()

    for index in run.rounds(warmup=2):
        rounds.round(database, kinds, measured=index >= 0)
        if run.traced and index >= 0:
            rounds.round(database, kinds, measured=True, traced=True)
    if run.traced:
        user_bytes = _bson_throughput(run, tables["store_sales"][:2000])
    run.stop_clock()

    _common_e2e(run, kinds)
    if run.traced:
        documents = sum(len(rows) for rows in tables.values())
        _setup_layers(run, documents, "documentstore.load_docs_per_s", user_bytes)
        run.layers["core.denormalize_s"] = run.median("denormalize")
        run.layers.update(rounds.layer_metrics("documentstore.busy_s"))
        for q, value in _query_medians(run, "", "denormalized").items():
            run.layers[f"documentstore.pipeline_s.q{q}"] = value
        _trace_overhead(run)
        run.validity["span_coverage"] = rounds.span_coverage()


def tpcds_sharded(run: Run) -> None:
    """Experiment 1: the normalized queries through a 3-shard in-memory cluster."""
    tables = generate_rows(run)
    # The stand-alone copy gives the reference answers (and, in the traced
    # pass, the stand-alone time each query's overhead ratio is taken against).
    standalone = DocumentStoreClient(name="reference")[DATABASE]
    load(standalone, tables)
    reference = reference_answers(run, standalone)
    cluster, routed = build_cluster(tables)
    with run.timed("load"):
        load(routed, tables)
    with run.timed("balance"):
        cluster.balance()
    rounds = QueryRounds(run, reference, "sharding")
    kinds = ("normalized",)
    run.setup_done()

    counters: list[dict[str, float]] = []
    try:
        for index in run.rounds(warmup=2):
            before = router_counters(cluster)
            rounds.round(routed, kinds, measured=index >= 0)
            if index >= 0:
                counters.append(counter_delta(before, router_counters(cluster)))
            if run.traced and index >= 0:
                rounds.round(routed, kinds, measured=True, traced=True)
                rounds.round(standalone, kinds, measured=True, prefix="standalone.")
        if run.traced:
            user_bytes = _bson_throughput(run, tables["store_sales"][:2000])
        chunks = chunk_count(cluster)
    finally:
        cluster.close()
    run.stop_clock()

    _common_e2e(run, kinds)
    if run.traced:
        documents = sum(len(rows) for rows in tables.values())
        _setup_layers(run, documents, "sharding.route_docs_per_s", user_bytes)
        run.layers["sharding.balance_s"] = run.median("balance")
        run.layers["sharding.chunks"] = float(chunks)
        metrics = rounds.layer_metrics("sharding.busy_s")
        run.layers.update(metrics)
        run.layers.update(router_layer_metrics(counters, run.sampler))
        busy = sum(metrics[f"sharding.busy_s.{call}"] for call in CALLS)
        run.layers["sharding.router_self_s"] = busy - run.layers["sharding.fanout_wall_s"]
        standalone_medians = _query_medians(run, "standalone.", "normalized")
        for q, value in _query_medians(run, "", "normalized").items():
            run.layers[f"sharding.overhead_ratio.q{q}"] = value / standalone_medians[q]
        _trace_overhead(run)
        run.validity["span_coverage"] = rounds.span_coverage()


_ROUTER_COUNTERS = (
    "operations", "targeted_operations", "shards_contacted", "documents_shipped",
    "bytes_shipped", "shard_seconds_total", "parallel_shard_seconds", "shards_timed_out",
)


def chunk_count(cluster: ShardedCluster) -> int:
    """Chunks over every sharded collection of the cluster."""
    return sum(
        sum(per_shard.values())
        for per_shard in cluster.config_server.chunk_distribution().values()
    )


def router_counters(cluster: ShardedCluster) -> dict[str, float]:
    """The public router and network snapshots, flattened, with a time stamp."""
    router = cluster.router.metrics.snapshot()
    counters = {key: router[key] for key in _ROUTER_COUNTERS}
    counters["messages"] = cluster.network.stats.snapshot()["messages"]
    counters["stamp"] = time.perf_counter()
    return counters


def counter_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """What the counters did between two ``router_counters`` snapshots."""
    delta = {key: after[key] - before[key] for key in after if key != "stamp"}
    delta["stamp_start"], delta["stamp_end"] = before["stamp"], after["stamp"]
    return delta


def router_layer_metrics(deltas: list[dict[str, float]], sampler: Any) -> dict[str, float]:
    """``sharding.*`` counters per round (or per block) from snapshot deltas.

    The two time counters are the router's own wall-clock sums; they are
    scaled by the machine's slowdown over the same interval.
    """

    def median(key: str) -> float:
        return statistics.median(delta[key] for delta in deltas)

    operations = max(1.0, median("operations"))
    scale = statistics.median(
        sampler.seconds(delta["stamp_start"], delta["stamp_end"])
        / (delta["stamp_end"] - delta["stamp_start"])
        for delta in deltas
    )
    return {
        "sharding.router_ops": median("operations"),
        "sharding.targeted_ratio": median("targeted_operations") / operations,
        "sharding.shards_per_op": median("shards_contacted") / operations,
        "sharding.messages": median("messages"),
        "sharding.docs_shipped": median("documents_shipped"),
        "sharding.bytes_shipped": median("bytes_shipped"),
        "sharding.shard_busy_s": median("shard_seconds_total") * scale,
        "sharding.fanout_wall_s": median("parallel_shard_seconds") * scale,
        "sharding.timeouts": median("shards_timed_out"),
    }
