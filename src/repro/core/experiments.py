"""The six experimental setups of Table 4.1 and the harness that runs them.

=============  ===========  ============  ============
Experiment     dataset      data model    environment
=============  ===========  ============  ============
Experiment 1   small (1GB)  normalized    sharded
Experiment 2   small (1GB)  normalized    stand-alone
Experiment 3   small (1GB)  denormalized  stand-alone
Experiment 4   large (5GB)  normalized    sharded
Experiment 5   large (5GB)  normalized    stand-alone
Experiment 6   large (5GB)  denormalized  stand-alone
=============  ===========  ============  ============

Two extension experiments (7 and 8) deploy the *denormalized* model on the
sharded cluster — the future-work configuration of Section 5.2.

Timing model
------------
Stand-alone experiments report measured wall time.  Sharded experiments run
the shards in one process (see :mod:`repro.sharding.executor`); their
measured wall time is corrected by the router's cost model (see
:class:`repro.sharding.router.RouterMetrics`): the **observed** execution
window of each fan-out (``parallel_shard_seconds``, a measured wall-clock
makespan) is replaced by the **modelled** cluster makespan — the slowest
branch's execute time, as if the shards ran truly in parallel on hardware
like the process's — and every routed message adds simulated network
latency and transfer time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..documentstore.client import DocumentStoreClient
from ..sharding.cluster import ShardedCluster
from ..tpcds.generator import TPCDSGenerator
from ..tpcds.queries import QUERY_IDS
from ..tpcds.scaling import SCALE_LARGE, SCALE_SMALL, ScaleProfile
from ..tpcds.schema import QUERY_TABLES
from .denormalize import denormalize_all_facts
from .migration import DatasetLoadReport, migrate_generated_dataset
from .translate_denormalized import run_denormalized_query
from .translate_normalized import run_normalized_query

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "QueryRunResult",
    "ExperimentResult",
    "ExperimentHarness",
    "SHARD_KEYS",
    "tiny_profile",
]

#: Shard keys used when the collections are sharded (Experiments 1/4).  Data
#: is partitioned at the collection level, as in the paper: every collection
#: the queries touch is sharded.  ``store_returns`` is range-partitioned on
#: its return date, so Query 50's month filter targets a subset of the
#: shards; the other facts use hashed keys that none of the queries
#: constrain, so their scans broadcast (Section 4.3).  Dimensions are hashed
#: on their primary keys for even distribution.
SHARD_KEYS: dict[str, Mapping[str, Any]] = {
    "store_sales": {"ss_item_sk": "hashed"},
    "store_returns": {"sr_returned_date_sk": 1},
    "inventory": {"inv_item_sk": "hashed"},
    "date_dim": {"d_date_sk": "hashed"},
    "item": {"i_item_sk": "hashed"},
    "customer_demographics": {"cd_demo_sk": "hashed"},
    "promotion": {"p_promo_sk": "hashed"},
    "store": {"s_store_sk": "hashed"},
    "household_demographics": {"hd_demo_sk": "hashed"},
    "customer_address": {"ca_address_sk": "hashed"},
    "customer": {"c_customer_sk": "hashed"},
    "warehouse": {"w_warehouse_sk": "hashed"},
}

#: Chunk size used by the sharded experiments.  The paper uses the 64 MB
#: default against multi-GB collections; the reproduction's collections are
#: three orders of magnitude smaller, so the chunk size is reduced by the
#: same ratio to keep range-partitioned collections split across shards.
EXPERIMENT_CHUNK_SIZE_BYTES = 64 * 1024

#: Shard keys for the denormalized-on-sharded extension experiments
#: (Section 5.2 future work).  The embedded dimensions make most original
#: foreign keys documents, so the keys use either the remaining scalar fields
#: or dotted paths into the embedded documents.
DENORMALIZED_SHARD_KEYS: dict[str, Mapping[str, Any]] = {
    "store_sales_denormalized": {"ss_ticket_number": "hashed"},
    "store_returns_denormalized": {"sr_ticket_number": "hashed"},
    "inventory_denormalized": {"inv_item_sk.i_item_sk": "hashed"},
}

def tiny_profile(reduction: float = 1.0 / 20000.0) -> ScaleProfile:
    """A very small profile used by tests and the quickstart example."""
    return ScaleProfile(name="tiny", paper_gb=1, reduction=reduction)


@dataclass(frozen=True)
class ExperimentConfig:
    """One row of Table 4.1."""

    number: int
    scale: ScaleProfile
    data_model: str  # "normalized" | "denormalized"
    environment: str  # "standalone" | "sharded"

    @property
    def label(self) -> str:
        """Human-readable description used in reports."""
        return (
            f"Experiment {self.number} — {self.scale.name} dataset / "
            f"{self.data_model} data model / {self.environment} system"
        )


#: Table 4.1 (experiments 1-6) plus the Section 5.2 extensions (7-8).
EXPERIMENTS: dict[int, ExperimentConfig] = {
    1: ExperimentConfig(1, SCALE_SMALL, "normalized", "sharded"),
    2: ExperimentConfig(2, SCALE_SMALL, "normalized", "standalone"),
    3: ExperimentConfig(3, SCALE_SMALL, "denormalized", "standalone"),
    4: ExperimentConfig(4, SCALE_LARGE, "normalized", "sharded"),
    5: ExperimentConfig(5, SCALE_LARGE, "normalized", "standalone"),
    6: ExperimentConfig(6, SCALE_LARGE, "denormalized", "standalone"),
    7: ExperimentConfig(7, SCALE_SMALL, "denormalized", "sharded"),
    8: ExperimentConfig(8, SCALE_LARGE, "denormalized", "sharded"),
}


@dataclass
class QueryRunResult:
    """Outcome of running one query in one experiment."""

    experiment: int
    query_id: int
    wall_seconds: float
    simulated_seconds: float
    result_documents: int
    runs: int = 1
    router_metrics: dict[str, Any] | None = None
    network: dict[str, Any] | None = None


@dataclass
class ExperimentResult:
    """Every query result of one experimental setup."""

    config: ExperimentConfig
    query_runs: dict[int, QueryRunResult] = field(default_factory=dict)
    load_report: DatasetLoadReport | None = None


class ExperimentHarness:
    """Builds the deployments of Table 4.1 and runs queries against them.

    Environments are built lazily and cached, so running all four queries
    against one experiment loads the data exactly once — mirroring the
    paper's procedure of loading each dataset and then executing the query
    set repeatedly (with the data cached in memory).  Every deployment holds
    the 12 tables the queries read (:data:`~repro.tpcds.schema.QUERY_TABLES`)
    from the generator's default seed; a sharded one is the default
    :class:`~repro.sharding.cluster.ShardedCluster` (3 shards, the default
    network model).
    """

    def __init__(self, *, scale_overrides: Mapping[str, ScaleProfile] | None = None) -> None:
        self._scales: dict[str, ScaleProfile] = {
            SCALE_SMALL.name: SCALE_SMALL,
            SCALE_LARGE.name: SCALE_LARGE,
        }
        if scale_overrides:
            self._scales.update(scale_overrides)
        self._generators: dict[str, TPCDSGenerator] = {}
        self._standalone: dict[str, tuple[DocumentStoreClient, Any]] = {}
        self._standalone_denormalized: set[str] = set()
        self._sharded: dict[str, tuple[ShardedCluster, Any]] = {}
        self._sharded_denormalized: dict[str, tuple[ShardedCluster, Any]] = {}
        self._load_reports: dict[str, DatasetLoadReport] = {}

    # ----------------------------------------------------------- infrastructure

    def scale(self, config: ExperimentConfig) -> ScaleProfile:
        """The (possibly overridden) scale profile for an experiment."""
        return self._scales.get(config.scale.name, config.scale)

    def generator(self, profile: ScaleProfile) -> TPCDSGenerator:
        """The (cached) data generator for *profile*."""
        if profile.name not in self._generators:
            self._generators[profile.name] = TPCDSGenerator(profile)
        return self._generators[profile.name]

    def load_report(self, profile: ScaleProfile) -> DatasetLoadReport | None:
        """The stand-alone load report recorded for *profile*, if loaded."""
        return self._load_reports.get(profile.name)

    # -------------------------------------------------------------- stand-alone

    def standalone_database(self, profile: ScaleProfile):
        """The stand-alone deployment loaded with normalized collections."""
        if profile.name not in self._standalone:
            client = DocumentStoreClient(name=f"standalone-{profile.name}")
            database = client[profile.database_name]
            report = migrate_generated_dataset(
                database, self.generator(profile), tables=QUERY_TABLES
            )
            self._load_reports[profile.name] = report
            self._standalone[profile.name] = (client, database)
        return self._standalone[profile.name][1]

    def standalone_denormalized_database(self, profile: ScaleProfile):
        """The stand-alone deployment with denormalized fact collections."""
        database = self.standalone_database(profile)
        if profile.name not in self._standalone_denormalized:
            denormalize_all_facts(database)
            self._standalone_denormalized.add(profile.name)
        return database

    # ------------------------------------------------------------------ sharded

    def sharded_database(self, profile: ScaleProfile):
        """The sharded deployment loaded with normalized collections."""
        if profile.name not in self._sharded:
            cluster = ShardedCluster()
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
            migrate_generated_dataset(routed, self.generator(profile), tables=QUERY_TABLES)
            cluster.balance()
            cluster.reset_metrics()
            self._sharded[profile.name] = (cluster, routed)
        return self._sharded[profile.name]

    def sharded_denormalized_database(self, profile: ScaleProfile):
        """The sharded deployment with denormalized collections (extension).

        The denormalized collections are built once on the stand-alone
        deployment (denormalization itself is not what Experiments 7/8
        measure) and then loaded into a fresh cluster, sharded on the keys of
        :data:`DENORMALIZED_SHARD_KEYS`.  Dimension collections are loaded
        too so the ``$out`` result collections and ad-hoc lookups still work.
        """
        if profile.name not in self._sharded_denormalized:
            source = self.standalone_denormalized_database(profile)
            cluster = ShardedCluster()
            database_name = profile.database_name
            cluster.enable_sharding(database_name)
            for collection_name, shard_key in DENORMALIZED_SHARD_KEYS.items():
                cluster.shard_collection(
                    database_name,
                    collection_name,
                    shard_key,
                    chunk_size_bytes=EXPERIMENT_CHUNK_SIZE_BYTES,
                )
            routed = cluster.get_database(database_name)
            for collection_name in source.list_collection_names():
                documents = source[collection_name].find({}, {"_id": 0}).to_list()
                if documents:
                    routed[collection_name].insert_many(documents)
            cluster.balance()
            cluster.reset_metrics()
            self._sharded_denormalized[profile.name] = (cluster, routed)
        return self._sharded_denormalized[profile.name]

    # ------------------------------------------------------------------- running

    def run_query(
        self,
        experiment_number: int,
        query_id: int,
        *,
        repetitions: int = 1,
    ) -> QueryRunResult:
        """Run one query in one experiment and return its best-of-N timing.

        The paper runs every query five times with the data cached and
        reports the best run (Section 4.2); ``repetitions`` reproduces that
        protocol.
        """
        config = EXPERIMENTS[experiment_number]
        profile = self.scale(config)
        best: QueryRunResult | None = None
        for _attempt in range(max(1, repetitions)):
            run = self._run_once(config, profile, query_id)
            if best is None or run.simulated_seconds < best.simulated_seconds:
                best = run
        assert best is not None
        best.runs = max(1, repetitions)
        return best

    def _run_once(
        self, config: ExperimentConfig, profile: ScaleProfile, query_id: int
    ) -> QueryRunResult:
        denormalized = config.data_model == "denormalized"
        cluster = None
        if config.environment == "standalone":
            if denormalized:
                database = self.standalone_denormalized_database(profile)
            else:
                database = self.standalone_database(profile)
        else:
            if denormalized:
                cluster, database = self.sharded_denormalized_database(profile)
            else:
                cluster, database = self.sharded_database(profile)
            cluster.reset_metrics()
        run = run_denormalized_query if denormalized else run_normalized_query
        started = time.perf_counter()
        answer = run(database, query_id)
        wall = time.perf_counter() - started
        result = QueryRunResult(
            experiment=config.number,
            query_id=query_id,
            wall_seconds=wall,
            simulated_seconds=wall,
            result_documents=len(answer) if denormalized else answer.result_documents,
        )
        if cluster is not None:
            metrics = cluster.router.metrics
            result.simulated_seconds = max(0.0, wall + metrics.simulated_overhead_seconds())
            result.router_metrics = metrics.snapshot()
            result.network = cluster.network.stats.snapshot()
        return result

    def run_experiment(
        self,
        experiment_number: int,
        *,
        repetitions: int = 1,
    ) -> ExperimentResult:
        """Run every query of one experiment (one Table 4.5 row)."""
        config = EXPERIMENTS[experiment_number]
        result = ExperimentResult(config=config)
        for query_id in QUERY_IDS:
            result.query_runs[query_id] = self.run_query(
                experiment_number, query_id, repetitions=repetitions
            )
        result.load_report = self.load_report(self.scale(config))
        return result
