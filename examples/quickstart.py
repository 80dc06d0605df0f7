"""Quickstart: the document store, denormalization, and one analytical query.

This example walks through the reproduction's core workflow on a very small
dataset:

1. generate a TPC-DS-style dataset and load it with the migration algorithm;
2. inspect the normalized collections (the referenced data model);
3. denormalize the ``store_sales`` fact collection (the embedded data model);
4. run Query 7 against both data models and compare answers and runtimes;
5. serve the same database over a real socket and query it remotely.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro.core import (
    denormalize_store_sales,
    migrate_generated_dataset,
    render_table,
    run_denormalized_query,
    run_normalized_query,
    tiny_profile,
)
from repro.documentstore import DocumentStoreClient
from repro.server import DocumentStoreServer, RemoteClient
from repro.tpcds import TPCDSGenerator, query_definition
from repro.tpcds.schema import QUERY_TABLES


def main() -> None:
    # ------------------------------------------------------------------ load
    profile = tiny_profile(1.0 / 5_000.0)
    generator = TPCDSGenerator(profile, seed=20151109)
    client = DocumentStoreClient()
    database = client[profile.database_name]

    print("Loading the TPC-DS tables used by the evaluation queries...")
    report = migrate_generated_dataset(database, generator, tables=QUERY_TABLES)
    print(
        render_table(
            ["table", "documents", "seconds"],
            [
                [result.table, result.documents_inserted, f"{result.seconds:.3f}"]
                for result in report.results.values()
            ],
            title="Data load (migration algorithm, Figure 4.3)",
        )
    )

    # ------------------------------------------------------- normalized model
    sale = database["store_sales"].find_one({})
    print("\nA normalized store_sales document (foreign keys are scalars):")
    print({k: sale[k] for k in ("ss_item_sk", "ss_store_sk", "ss_quantity", "ss_sales_price")})

    # -------------------------------------------------- the lazy read protocol
    # find() returns a lazy cursor: chained options only refine its FindSpec,
    # and the complete spec reaches the executor when iteration starts — so
    # the engine can pick a bounded top-k (or an index-order scan) instead of
    # sorting everything and slicing afterwards.
    sales = database["store_sales"]
    cursor = (
        sales.find({"ss_quantity": {"$gte": 50}}, {"ss_sales_price": 1, "ss_quantity": 1})
        .sort("ss_sales_price", -1)
        .limit(3)
    )
    # cursor.explain() is sales.explain(cursor.spec): the same schema-v1
    # document on a stand-alone, a routed and a served collection.
    plan = cursor.explain()["queryPlanner"]
    print("\nTop-3 sales by price (one FindSpec, executed lazily):")
    print(f"  access path: {plan['winningPlan']['stage']}, sort mode: {plan['sortMode']}")
    for row in cursor:
        print(" ", row)
    sales.create_index("ss_sales_price")
    plan = (
        sales.find({}).sort("ss_sales_price", -1).limit(3).explain()["queryPlanner"]
    )
    print(
        "  after create_index('ss_sales_price'): "
        f"sort mode {plan['sortMode']} ({plan['winningPlan'].get('direction')} index scan)"
    )

    # ----------------------------------------------------- denormalized model
    print("\nDenormalizing store_sales (EmbedDocuments, Figures 4.6/4.7)...")
    denormalization = denormalize_store_sales(database)
    print(
        f"embedded {len(denormalization.embeddings)} dimension collections "
        f"into {denormalization.documents} documents "
        f"in {denormalization.seconds:.2f}s"
    )
    wide = database["store_sales_denormalized"].find_one({})
    print("The same sale after denormalization (the item is now embedded):")
    print({"ss_item_sk": wide["ss_item_sk"], "ss_quantity": wide["ss_quantity"]})

    # ------------------------------------------------------------- run Query 7
    print("\n" + query_definition(7).description)
    started = time.perf_counter()
    denormalized_rows = run_denormalized_query(database, 7)
    denormalized_seconds = time.perf_counter() - started

    started = time.perf_counter()
    normalized_report = run_normalized_query(database, 7)
    normalized_seconds = time.perf_counter() - started

    print(
        render_table(
            ["data model", "seconds", "result rows"],
            [
                ["denormalized (single pipeline)", f"{denormalized_seconds:.4f}", len(denormalized_rows)],
                ["normalized (client-side joins)", f"{normalized_seconds:.4f}", normalized_report.result_documents],
            ],
            title="Query 7 — embedded vs referenced data model",
        )
    )
    print("\nFirst result rows:")
    for row in denormalized_rows[:3]:
        print(" ", {k: round(v, 2) if isinstance(v, float) else v for k, v in row.items()})

    # ----------------------------------------------------------------- serving
    # The same database can be served over a real TCP socket: the server
    # speaks a length-prefixed binary wire protocol, and RemoteClient
    # re-speaks the Collection API — the lazy FindSpec crosses the wire whole,
    # so sort+limit pushdown and batched getMore cursors survive serving.
    print("\nServing the loaded database over a socket (repro.server)...")
    with DocumentStoreServer(client, port=0) as server:
        host, port = server.address
        with RemoteClient((host, port)) as remote:
            remote_sales = remote[profile.database_name]["store_sales"]
            count = remote_sales.count_documents({})
            top = (
                remote_sales.find({}, {"_id": 0, "ss_sales_price": 1})
                .sort("ss_sales_price", -1)
                .limit(1)
                .to_list()
            )
            status = remote.server_status()
        print(
            f"  {host}:{port} answered count={count}, top price={top[0]['ss_sales_price']}  "
            f"(opcounters: {status['opcounters']}, "
            f"wire bytes out: {status['wire']['bytes_out']:,})"
        )


if __name__ == "__main__":
    main()
