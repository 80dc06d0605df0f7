"""``bulk_load``: Table 4.3 / Figure 4.9 on the durable sharded deployment.

A round builds a fresh 3-shard durable cluster, shards the 12 query tables,
``migrate_rows`` every table (batches of 500), balances, closes — every write
acknowledged and flushed — then reopens the same ``data_dir`` (WAL recovery)
and counts the documents.  It is the write stack at full batch size, the
opposite use of it from ``served_mixed``'s five-document batches.
"""

from __future__ import annotations

import pathlib
import statistics
from contextlib import nullcontext
from typing import Any

from repro.core import row_to_document
from repro.documentstore import DocumentStoreClient, bson
from repro.sharding import ShardedCluster

from harness import Run
from served_workload import wal_counters
from tpcds_workloads import (
    DATABASE,
    build_cluster,
    chunk_count,
    counter_delta,
    generate_rows,
    load,
    router_counters,
    router_layer_metrics,
)
from trace import TimedDatabase


def _directory_bytes(path: pathlib.Path, pattern: str) -> int:
    return sum(file.stat().st_size for file in path.rglob(pattern))


def bulk_load(run: Run) -> None:
    tables = generate_rows(run)
    documents = sum(len(rows) for rows in tables.values())
    run.setup_done()

    traced_rounds: list[dict[str, Any]] = []
    file_bytes: dict[str, int] = {}
    for index in run.rounds(warmup=1):
        _round(run, tables, "round" if index >= 0 else "warmup", None)
        if run.traced and index >= 0:
            _round(run, tables, "traced", traced_rounds)
    if run.traced:
        file_bytes = _extra_phases(run, tables)
    run.stop_clock()

    load_seconds = run.median("round.load")
    run.e2e["load_docs_per_s"] = documents / load_seconds
    run.e2e["ops_per_s"] = run.e2e["load_docs_per_s"]
    run.e2e["recovery_s"] = run.median("round.recover")
    run.e2e["round_s"] = run.median("round")
    if run.traced:
        _layers(run, tables, documents, traced_rounds, file_bytes)


def _round(run: Run, tables: dict[str, list], name: str, traced_rounds: list | None) -> None:
    """One load / close / recover / count round, phases timed as ``<name>.<phase>``."""
    data_dir = run.scratch("cluster")
    traced = traced_rounds is not None
    first_span = len(run.tracer.spans) if traced else 0

    def phase(label: str):
        if not traced:
            return nullcontext()
        return run.tracer.span(f"bulk_load.{label}", new_op=label == "build")

    with run.operation(f"{name} load"), run.timed(name):
        with run.timed(f"{name}.build"), phase("build"):
            cluster, routed = build_cluster(tables, data_dir=data_dir, fsync="batch")
        before = router_counters(cluster)
        with run.timed(f"{name}.load"):
            with run.timed(f"{name}.migrate"), phase("migrate"):
                load(TimedDatabase(run.tracer, "sharding", routed) if traced else routed, tables)
            with run.timed(f"{name}.balance"), phase("balance"):
                cluster.balance()
            counters = {
                "router": counter_delta(before, router_counters(cluster)),
                "wal": wal_counters(cluster),
                "chunks": chunk_count(cluster),
            }
            with run.timed(f"{name}.close"), phase("close"):
                cluster.close()
        with run.timed(f"{name}.recover"), phase("recover"):
            reopened = ShardedCluster(shard_count=3, data_dir=data_dir, fsync="batch")
        try:
            with run.timed(f"{name}.count"), phase("count"):
                found = {
                    table: reopened.get_database(DATABASE)[table].count_documents({})
                    for table in tables
                }
        finally:
            reopened.close()
    for table, rows in tables.items():
        expected = len(rows) + (1 if run.corrupt else 0)
        run.check(
            found.get(table) == expected,
            f"{table}: {found.get(table)} documents after recovery, expected {expected}",
        )
    if traced:
        counters["spans"] = run.tracer.spans[first_span:]
        counters["wall"] = run.samples[name].intervals[-1]
        traced_rounds.append(counters)


def _extra_phases(run: Run, tables: dict[str, list]) -> dict[str, int]:
    """What the timed loop skips: in-memory loads, checkpoint, snapshot recovery.

    Returns the bytes the loaded ``data_dir`` holds as WAL and as snapshot.
    """
    standalone = DocumentStoreClient(name="memory")[DATABASE]
    with run.timed("memory.standalone_load"):
        load(standalone, tables)
    cluster, routed = build_cluster(tables)
    try:
        with run.timed("memory.sharded_load"):
            load(routed, tables)
            cluster.balance()
    finally:
        cluster.close()

    data_dir = run.scratch("checkpoint")
    cluster, routed = build_cluster(tables, data_dir=data_dir, fsync="batch")
    load(routed, tables)
    cluster.balance()
    cluster.flush_durability()
    file_bytes = {"wal": _directory_bytes(data_dir, "wal-*.log")}
    with run.timed("checkpoint"):
        cluster.checkpoint()
    cluster.close()
    file_bytes["snapshot"] = _directory_bytes(data_dir, "snapshot-*.snap")
    with run.timed("snapshot_recover"):
        reopened = ShardedCluster(shard_count=3, data_dir=data_dir, fsync="batch")
    found = sum(reopened.get_database(DATABASE)[table].count_documents({}) for table in tables)
    reopened.close()
    expected = sum(len(rows) for rows in tables.values())
    run.check(found == expected, f"{found} documents after snapshot recovery, loaded {expected}")
    return file_bytes


def _layers(
    run: Run, tables: dict[str, list], documents: int, rounds: list[dict[str, Any]],
    file_bytes: dict[str, int],
) -> None:
    seconds = run.sampler.seconds
    layers = run.layers
    user_bytes = sum(
        bson.document_size(row_to_document(row)) for rows in tables.values() for row in rows
    )
    layers["tpcds.generate_s"] = run.median("tpcds.generate")
    layers["core.migrate_s"] = run.median("round.migrate")
    insert_busy = []
    coverage = []
    for item in rounds:
        spans = item["spans"]
        inserts = [s for s in spans if s["name"].endswith(".insert_many")]
        insert_busy.append(sum(seconds(s["start"], s["end"]) for s in inserts))
        roots = sum(seconds(s["start"], s["end"]) for s in spans if s["parent"] is None)
        coverage.append(roots / seconds(*item["wall"]))
    layers["core.calls.insert_many"] = float(len(inserts))
    layers["sharding.busy_s.insert_many"] = statistics.median(insert_busy)
    run.validity["span_coverage"] = min(coverage)
    layers.update(router_layer_metrics([item["router"] for item in rounds], run.sampler))
    layers["sharding.router_self_s"] = (
        layers["sharding.busy_s.insert_many"] - layers["sharding.fanout_wall_s"]
    )
    layers["sharding.balance_s"] = run.median("round.balance")
    layers["sharding.chunks"] = float(rounds[-1]["chunks"])
    wal = rounds[-1]["wal"]
    layers["documentstore.wal_records"] = float(wal["records"])
    layers["documentstore.wal_bytes"] = float(wal["bytes"])
    layers["documentstore.wal_fsyncs"] = float(wal["fsyncs"])
    layers["documentstore.wal_bytes_per_user_byte"] = file_bytes["wal"] / user_bytes
    layers["documentstore.snapshot_bytes_per_user_byte"] = file_bytes["snapshot"] / user_bytes
    layers["documentstore.load_docs_per_s"] = documents / run.median("memory.standalone_load")
    layers["sharding.route_docs_per_s"] = documents / run.median("memory.sharded_load")
    layers["documentstore.durable_load_ratio"] = run.median("round.load") / run.median(
        "memory.sharded_load"
    )
    layers["documentstore.checkpoint_s"] = run.median("checkpoint")
    layers["documentstore.recovery_wal_s"] = run.median("round.recover")
    layers["documentstore.recovery_snapshot_s"] = run.median("snapshot_recover")
    layers["documentstore.recovery_docs_per_s"] = documents / run.median("round.recover")
    layers["bench.trace_overhead_ratio"] = run.median("traced") / run.median("round")
