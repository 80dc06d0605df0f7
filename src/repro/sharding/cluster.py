"""Sharded cluster facade.

Wires together the pieces of Figure 3.1: data-bearing shards, one config
server, and one query router, all connected by a simulated network.  The
default topology matches the paper's deployment (3 shards, 1 config server,
1 ``mongos``); the shard count, chunk size and network model can be varied.
Shards are named ``shard1`` .. ``shardN`` and run on the process's own
hardware.
"""

from __future__ import annotations

import pathlib
from typing import Any, Mapping, Sequence

from ..documentstore.bson import decode_document, encode_document
from ..documentstore.snapshot import atomic_writer
from .balancer import Balancer
from .chunks import ChunkManager
from .config_server import ConfigServer
from .executor import ScatterPolicy
from .network import NetworkModel, SimulatedNetwork
from .router import QueryRouter, RoutedDatabase
from .shard import Shard

__all__ = ["ShardedCluster", "CLUSTER_METADATA_FILE"]

#: File inside a cluster data directory holding the config-server catalogue.
CLUSTER_METADATA_FILE = "cluster_metadata.json"


class ShardedCluster:
    """A complete sharded deployment (shards + config server + router).

    The router runs the branches of a fan-out on a worker-thread pool when
    they can overlap, else on the caller's thread (:mod:`repro.sharding.
    executor`); ``scatter_policy`` sets the per-operation deadline of every
    routed operation.

    With a ``data_dir`` the cluster is durable: each shard keeps its own
    WAL/snapshot generation under ``<data_dir>/<shard_id>/`` (recovered when
    the shard is constructed), and the config-server catalogue — shard
    registry, database primaries, chunk tables — is persisted atomically to
    ``<data_dir>/cluster_metadata.json`` at every metadata-changing step
    (``enable_sharding``, ``shard_collection``, ``balance``) and on
    ``close``.  Reopening the same directory with the same topology restores
    routing and per-shard data to the acknowledged state.  A crash *during*
    a balancer round can leave metadata one round behind; that is safe for
    routing (chunk splits never move documents, and migrations re-run from
    the previous metadata), just not for balance evenness.
    """

    def __init__(
        self,
        shard_count: int = 3,
        *,
        network_model: NetworkModel | None = None,
        name: str = "cluster",
        scatter_policy: ScatterPolicy | None = None,
        data_dir: str | pathlib.Path | None = None,
        fsync: str = "batch",
    ) -> None:
        if shard_count < 1:
            raise ValueError("a cluster needs at least one shard")

        self.name = name
        self.data_dir = pathlib.Path(data_dir) if data_dir is not None else None
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
        self.network = SimulatedNetwork(network_model)
        self.config_server = ConfigServer()
        self.shards: list[Shard] = []
        for number in range(1, shard_count + 1):
            shard_id = f"shard{number}"
            shard_dir = self.data_dir / shard_id if self.data_dir else None
            shard = Shard(shard_id, data_dir=shard_dir, fsync=fsync)
            self.shards.append(shard)
            self.config_server.add_shard(shard.shard_id)
        self._restore_metadata()
        self.router = QueryRouter(
            self.config_server,
            self.shards,
            self.network,
            scatter_policy=scatter_policy,
        )
        self.balancer = Balancer(
            self.config_server,
            {shard.shard_id: shard for shard in self.shards},
            self.network,
        )

    # ---------------------------------------------------------------- durability

    @property
    def metadata_path(self) -> pathlib.Path | None:
        """Where the config-server catalogue is persisted (``None`` in-memory)."""
        if self.data_dir is None:
            return None
        return self.data_dir / CLUSTER_METADATA_FILE

    def _restore_metadata(self) -> None:
        path = self.metadata_path
        if path is None or not path.exists():
            return
        metadata = decode_document(path.read_bytes())
        self.config_server.restore_metadata(metadata)

    def save_metadata(self) -> None:
        """Persist the config-server catalogue atomically (no-op in-memory)."""
        path = self.metadata_path
        if path is None:
            return
        with atomic_writer(path) as handle:
            handle.write(encode_document(self.config_server.to_metadata()))

    def flush_durability(self) -> None:
        """Flush every shard's WAL and the cluster metadata."""
        for shard in self.shards:
            shard.flush_durability()
        self.save_metadata()

    def checkpoint(self) -> dict[str, int | None]:
        """Checkpoint every shard's store; returns shard id → new generation."""
        generations = {shard.shard_id: shard.checkpoint() for shard in self.shards}
        self.save_metadata()
        return generations

    def durability_status(self) -> dict[str, Any]:
        """Durability counters for the whole cluster, per shard."""
        return {
            "active": self.data_dir is not None,
            "data_dir": str(self.data_dir) if self.data_dir is not None else None,
            "shards": {
                shard.shard_id: shard.durability_status() for shard in self.shards
            },
        }

    # ------------------------------------------------------------------ topology

    @property
    def shard_count(self) -> int:
        """Number of data-bearing shards."""
        return len(self.shards)

    def shard(self, shard_id: str) -> Shard:
        """Return a shard by id."""
        return self.router.shard(shard_id)

    # -------------------------------------------------------------------- admin

    def enable_sharding(self, database_name: str, primary_shard: str | None = None) -> None:
        """Enable sharding for a database (``sh.enableSharding`` analogue)."""
        self.config_server.enable_sharding(database_name, primary_shard)
        self.save_metadata()

    def shard_collection(
        self,
        database_name: str,
        collection_name: str,
        shard_key: str | Sequence[str] | Mapping[str, Any],
        *,
        chunk_size_bytes: int | None = None,
    ) -> ChunkManager:
        """Shard a collection (``sh.shardCollection`` analogue).

        A supporting index on the shard key is created on every shard, as the
        original system requires the shard key to be indexed.
        """
        if not self.config_server.is_sharding_enabled(database_name):
            self.enable_sharding(database_name)
        manager = self.config_server.shard_collection(
            database_name,
            collection_name,
            shard_key,
            chunk_size_bytes=chunk_size_bytes,
        )
        index_keys = [
            (field, "hashed" if manager.shard_key.hashed else 1)
            for field in manager.shard_key.fields
        ]
        self.get_database(database_name)[collection_name].create_index(index_keys)
        self.save_metadata()
        return manager

    def get_database(self, name: str) -> RoutedDatabase:
        """Return a routed database handle (what the application connects to)."""
        return self.router.get_database(name)

    def __getitem__(self, name: str) -> RoutedDatabase:
        return self.get_database(name)

    def balance(self) -> None:
        """Run the balancer until every sharded collection is even."""
        self.balancer.balance_all()
        self.save_metadata()

    def reset_metrics(self) -> None:
        """Clear router and network accounting before a measurement."""
        self.router.reset_metrics()

    def close(self) -> None:
        """Shut down the scatter pool, flush/close every shard and release its store.

        Routed operations then refuse (``OperationFailure``); ``status`` and
        ``durability_status`` still answer.
        """
        self.router.close()
        self.save_metadata()
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------- reports

    def status(self) -> dict[str, Any]:
        """``sh.status()`` analogue: topology, chunks, per-shard data sizes."""
        return {
            "cluster": self.name,
            "shard_count": self.shard_count,
            "config": self.config_server.describe(),
            "shards": [shard.stats() for shard in self.shards],
            "network": self.network.stats.snapshot(),
            "router": self.router.metrics.snapshot(),
        }

    def data_distribution(self, database_name: str, collection_name: str) -> dict[str, int]:
        """Documents per shard for one collection (even-distribution checks)."""
        distribution = {}
        for shard in self.shards:
            distribution[shard.shard_id] = len(shard.collection(database_name, collection_name))
        return distribution

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedCluster({self.name!r}, shards={self.shard_count})"
