"""Chunk balancer.

The balancer keeps the number of chunks per shard even.  When a migration is
decided, the documents belonging to the chunk really move between the shard
stores (and across the simulated network), so post-balance data distribution
— and therefore per-shard query cost — matches the chunk table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..documentstore.bson import document_size
from ..documentstore.errors import ShardKeyError
from .chunks import Chunk, ChunkManager
from .config_server import ConfigServer
from .network import SimulatedNetwork
from .shard import Shard

__all__ = ["Balancer", "MigrationRecord"]

#: A shard pair is rebalanced when the chunk-count difference reaches this.
MIGRATION_THRESHOLD = 2

#: The most chunks one balancing pass moves per collection.
MAX_MIGRATIONS = 100


@dataclass(frozen=True)
class MigrationRecord:
    """One chunk migration performed by the balancer."""

    namespace: str
    source_shard: str
    destination_shard: str
    documents_moved: int
    bytes_moved: int


class Balancer:
    """Evens out chunk counts across shards, one migration at a time."""

    def __init__(
        self,
        config_server: ConfigServer,
        shards: dict[str, Shard],
        network: SimulatedNetwork | None = None,
    ) -> None:
        self.config = config_server
        self._shards = shards
        self.network = network or SimulatedNetwork()
        self.history: list[MigrationRecord] = []

    # ------------------------------------------------------------------ policy

    def _imbalance(self, manager: ChunkManager) -> tuple[str, str] | None:
        """Return (overloaded shard, underloaded shard) or None if balanced."""
        counts: dict[str, int] = {shard_id: 0 for shard_id in self.config.shard_ids}
        for chunk in manager.chunks:
            counts[chunk.shard_id] = counts.get(chunk.shard_id, 0) + 1
        most_loaded = max(counts, key=lambda shard_id: counts[shard_id])
        least_loaded = min(counts, key=lambda shard_id: counts[shard_id])
        if counts[most_loaded] - counts[least_loaded] >= MIGRATION_THRESHOLD:
            return most_loaded, least_loaded
        return None

    def needs_balancing(self, database_name: str, collection_name: str) -> bool:
        """True if the collection's chunks are unevenly spread."""
        manager = self.config.chunk_manager(database_name, collection_name)
        return self._imbalance(manager) is not None

    # -------------------------------------------------------------- migrations

    def _documents_in_chunk(
        self, manager: ChunkManager, chunk: Chunk, shard: Shard, *namespace: str
    ) -> tuple[list[Mapping[str, Any]], int]:
        """The stored documents of *chunk* on *shard*, uncopied, and their bytes.

        One pass over the shard's slice keeps each document whose routing
        value the chunk contains — the test inserts are routed by, whatever
        the types of the chunk's bounds.  A document without the shard key
        lies in no chunk and stays.  Only the selected documents are sized:
        the ones that stay are not walked.
        """
        route = manager.router()
        selected = []
        for document in shard.collection(*namespace).raw_documents():
            try:
                value = route(document)[0]
            except ShardKeyError:
                continue
            if chunk.contains(value):
                selected.append(document)
        return selected, sum(map(document_size, selected))

    def migrate_chunk(
        self,
        database_name: str,
        collection_name: str,
        chunk: Chunk,
        destination_shard_id: str,
    ) -> MigrationRecord:
        """Move *chunk* (metadata and documents) to *destination_shard_id*."""
        manager = self.config.chunk_manager(database_name, collection_name)
        source = self._shards[chunk.shard_id]
        destination = self._shards[destination_shard_id]

        documents, bytes_moved = self._documents_in_chunk(
            manager, chunk, source, database_name, collection_name
        )
        self.network.send("moveChunk", bytes_moved)
        if documents:
            # The destination's insert_many makes the one copy of the stored documents.
            destination.collection(database_name, collection_name).insert_many(documents)
            ids = [document["_id"] for document in documents]
            source.collection(database_name, collection_name).delete_many({"_id": {"$in": ids}})
        record = MigrationRecord(
            namespace=manager.namespace,
            source_shard=chunk.shard_id,
            destination_shard=destination_shard_id,
            documents_moved=len(documents),
            bytes_moved=bytes_moved,
        )
        manager.move_chunk(chunk, destination_shard_id)
        self.history.append(record)
        return record

    def balance_collection(
        self, database_name: str, collection_name: str
    ) -> list[MigrationRecord]:
        """Run balancing rounds for one collection until it is even."""
        manager = self.config.chunk_manager(database_name, collection_name)
        migrations: list[MigrationRecord] = []
        for _round in range(MAX_MIGRATIONS):
            imbalance = self._imbalance(manager)
            if imbalance is None:
                break
            overloaded, underloaded = imbalance
            candidate = next(
                (chunk for chunk in manager.chunks if chunk.shard_id == overloaded and not chunk.jumbo),
                None,
            )
            if candidate is None:
                break
            migrations.append(
                self.migrate_chunk(database_name, collection_name, candidate, underloaded)
            )
        return migrations

    def balance_all(self) -> list[MigrationRecord]:
        """Balance every sharded collection in the cluster."""
        migrations: list[MigrationRecord] = []
        for namespace in self.config.sharded_namespaces():
            database_name, collection_name = namespace.split(".", 1)
            migrations.extend(self.balance_collection(database_name, collection_name))
        return migrations
