"""Sharded-cluster analytics: routing, chunk distribution, and Query 50.

This example builds the paper's sharded deployment (3 shards, 1 config
server, 1 query router — Figure 3.1), loads the evaluation dataset through
the router, and shows:

* how the shard-count formulas of Section 2.1.3.2 size the cluster;
* how chunks are distributed and balanced across shards;
* the difference between a *targeted* query (contains the shard key) and a
  *broadcast* query, which is what separates Query 50 from the other
  analytical queries in the paper's results;
* Query 50 executed end-to-end through the router, with the router's cost
  accounting.

Run it with::

    python examples/sharded_cluster_analytics.py
"""

from __future__ import annotations

from repro.core import render_table, run_normalized_query, tiny_profile
from repro.core.experiments import EXPERIMENT_CHUNK_SIZE_BYTES, SHARD_KEYS
from repro.core.migration import migrate_generated_dataset
from repro.sharding import ClusterSizingInputs, ShardedCluster, recommend_shard_count
from repro.tpcds import TPCDSGenerator
from repro.tpcds.schema import QUERY_TABLES

GB = 1024 ** 3


def size_the_cluster() -> None:
    """Apply the Section 2.1.3.2 sizing rules to the paper's small dataset."""
    sizing = recommend_shard_count(
        ClusterSizingInputs(
            data_size_bytes=9.94 * GB,
            working_set_bytes=9.94 * GB,
            shard_ram_bytes=8 * GB,
            shard_disk_bytes=256 * GB,
        )
    )
    print(
        render_table(
            ["rule", "shards"],
            [[rule, count] for rule, count in sizing.items()],
            title="Cluster sizing for the 9.94GB dataset (Section 2.1.3.2)",
        )
    )
    print("The thesis rounds the RAM-driven recommendation up to 3 shards.\n")


def main() -> None:
    size_the_cluster()

    profile = tiny_profile(1.0 / 5_000.0)
    generator = TPCDSGenerator(profile, seed=20151109)

    print("Building a 3-shard cluster and sharding the query collections...")
    # The cluster owns threads (scatter workers) and per-shard state; the
    # context manager shuts everything down even if the demo fails midway.
    with ShardedCluster(shard_count=3) as cluster:
        run_cluster_demo(cluster, profile, generator)


def run_cluster_demo(cluster: ShardedCluster, profile, generator) -> None:
    database_name = profile.database_name
    cluster.enable_sharding(database_name)
    for collection_name, shard_key in SHARD_KEYS.items():
        if collection_name in QUERY_TABLES:
            cluster.shard_collection(
                database_name,
                collection_name,
                shard_key,
                chunk_size_bytes=EXPERIMENT_CHUNK_SIZE_BYTES,
            )

    routed = cluster.get_database(database_name)
    migrate_generated_dataset(routed, generator, tables=QUERY_TABLES)
    cluster.balance()

    print(
        render_table(
            ["collection", "shard1", "shard2", "shard3"],
            [
                [name, *cluster.data_distribution(database_name, name).values()]
                for name in ("store_sales", "store_returns", "inventory")
            ],
            title="Documents per shard after loading and balancing",
        )
    )

    # ------------------------------------------------- targeted vs broadcast
    cluster.reset_metrics()
    routed["store_returns"].find({"sr_returned_date_sk": {"$gte": 2451088, "$lte": 2451118}}).to_list()
    targeted = cluster.router.metrics.snapshot()

    cluster.reset_metrics()
    routed["store_sales"].find({"ss_quantity": {"$gte": 90}}).to_list()
    broadcast = cluster.router.metrics.snapshot()

    print(
        render_table(
            ["query kind", "shards contacted", "targeted ops", "broadcast ops"],
            [
                ["range on shard key (like Q50)", targeted["shards_contacted"],
                 targeted["targeted_operations"], targeted["broadcast_operations"]],
                ["non-key predicate (like Q7)", broadcast["shards_contacted"],
                 broadcast["targeted_operations"], broadcast["broadcast_operations"]],
            ],
            title="Targeted vs broadcast routing",
        )
    )

    # ------------------------------------------- shard-side pushdown (FindSpec)
    # A sorted + limited find pushes projection, sort, and skip+limit to every
    # shard: each returns at most skip+limit pre-sorted documents, and the
    # router k-way-merges the shard-sorted lists.  RouterMetrics shows how few
    # documents cross the simulated network.
    cluster.reset_metrics()
    top_sales = (
        routed["store_sales"]
        .find({}, {"ss_sales_price": 1, "ss_ticket_number": 1})
        .sort([("ss_sales_price", -1), ("ss_ticket_number", 1)])
        .limit(5)
    )
    # cursor.explain() is routed.explain(that spec): the one explain document,
    # whose winning plan is the routing decision and whose "shards" hold each
    # contacted shard collection's own queryPlanner section.
    document = top_sales.explain()
    explain = document["queryPlanner"]
    rows = top_sales.to_list()
    pushdown_metrics = cluster.router.metrics.snapshot()
    print(
        render_table(
            ["metric", "value"],
            [
                ["plan", explain["winningPlan"]["stage"]],
                ["merge", explain["sortMode"]],
                ["per-shard limit pushed", explain["winningPlan"]["pushdown"]["limit"]],
                ["projection pushed", explain["winningPlan"]["pushdown"]["projection"]],
                ["documents shipped", pushdown_metrics["documents_shipped"]],
                ["bytes shipped", pushdown_metrics["bytes_shipped"]],
                ["result rows", len(rows)],
            ],
            title="Sorted+limited broadcast find with shard-side pushdown",
        )
    )
    shard_plan = next(iter(document["shards"].values()))
    print(
        "per-shard plan:",
        shard_plan["winningPlan"]["stage"],
        "/ sort mode",
        shard_plan["sortMode"],
        "/ shard-local limit",
        shard_plan["spec"]["limit"],
    )

    # ------------------------------------------------------------- Query 50
    print("\nRunning Query 50 (return-latency buckets) through the router...")
    cluster.reset_metrics()
    report = run_normalized_query(routed, 50)
    metrics = cluster.router.metrics.snapshot()
    network = cluster.network.stats.snapshot()
    print(f"result rows: {report.result_documents}  client time: {report.seconds:.3f}s")
    print(
        render_table(
            ["metric", "value"],
            [
                ["router operations", metrics["operations"]],
                ["targeted operations", metrics["targeted_operations"]],
                ["broadcast operations", metrics["broadcast_operations"]],
                ["network messages", network["messages"]],
                ["bytes over the wire", network["bytes_transferred"]],
                ["simulated network seconds", f"{metrics['network_seconds']:.4f}"],
            ],
            title="Router cost accounting for Query 50",
        )
    )
    for row in report.results[:3]:
        print(" ", {k: row[k] for k in ("s_store_name", "s_city", "30 days", ">120 days")})


if __name__ == "__main__":
    main()
