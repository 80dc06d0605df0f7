"""Config server.

The config server stores the cluster metadata: which shards exist, which
databases are sharding-enabled and where their unsharded collections live
(the *primary shard*), and — for every sharded collection — the shard key and
the chunk table mapping key ranges to shards (Section 2.1.3.1).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..documentstore.errors import ShardingError, ShardKeyError
from .chunks import ChunkManager, ShardKeyPattern

__all__ = ["ConfigServer"]


class ConfigServer:
    """Cluster metadata catalogue."""

    def __init__(self) -> None:
        self._shard_ids: list[str] = []
        self._databases: dict[str, dict[str, Any]] = {}
        self._collections: dict[str, ChunkManager] = {}

    # -- shard registry ---------------------------------------------------------

    def add_shard(self, shard_id: str) -> None:
        """Register a shard with the cluster."""
        if shard_id in self._shard_ids:
            raise ShardingError(f"shard {shard_id!r} is already registered")
        self._shard_ids.append(shard_id)

    @property
    def shard_ids(self) -> list[str]:
        """Every registered shard id, in registration order."""
        return list(self._shard_ids)

    # -- databases --------------------------------------------------------------

    def enable_sharding(self, database_name: str, primary_shard: str | None = None) -> None:
        """Enable sharding for a database and pick its primary shard."""
        if not self._shard_ids:
            raise ShardingError("cannot enable sharding before adding shards")
        if primary_shard is None:
            primary_shard = self._shard_ids[0]
        if primary_shard not in self._shard_ids:
            raise ShardingError(f"unknown primary shard {primary_shard!r}")
        self._databases[database_name] = {"primary": primary_shard, "partitioned": True}

    def is_sharding_enabled(self, database_name: str) -> bool:
        """True if ``enable_sharding`` was called for *database_name*."""
        return database_name in self._databases

    def primary_shard(self, database_name: str) -> str:
        """The shard holding the unsharded collections of *database_name*."""
        if database_name in self._databases:
            return self._databases[database_name]["primary"]
        if not self._shard_ids:
            raise ShardingError("the cluster has no shards")
        return self._shard_ids[0]

    # -- sharded collections ------------------------------------------------------

    @staticmethod
    def namespace(database_name: str, collection_name: str) -> str:
        """Build the namespaced collection name ``database.collection``."""
        return f"{database_name}.{collection_name}"

    def shard_collection(
        self,
        database_name: str,
        collection_name: str,
        shard_key: str | Sequence[str] | Mapping[str, Any],
        *,
        chunk_size_bytes: int | None = None,
    ) -> ChunkManager:
        """Shard a collection with *shard_key* and create its chunk table."""
        if database_name not in self._databases:
            raise ShardingError(
                f"sharding is not enabled for database {database_name!r}"
            )
        namespace = self.namespace(database_name, collection_name)
        if namespace in self._collections:
            raise ShardingError(f"collection {namespace!r} is already sharded")
        pattern = ShardKeyPattern.create(shard_key)
        kwargs: dict[str, Any] = {}
        if chunk_size_bytes is not None:
            kwargs["chunk_size_bytes"] = chunk_size_bytes
        manager = ChunkManager(namespace, pattern, self._shard_ids, **kwargs)
        self._collections[namespace] = manager
        return manager

    def is_sharded(self, database_name: str, collection_name: str) -> bool:
        """True if the collection has a chunk table."""
        return self.namespace(database_name, collection_name) in self._collections

    def chunk_manager(self, database_name: str, collection_name: str) -> ChunkManager:
        """Return the chunk table of a sharded collection."""
        namespace = self.namespace(database_name, collection_name)
        try:
            return self._collections[namespace]
        except KeyError:
            raise ShardKeyError(f"collection {namespace!r} is not sharded") from None

    def sharded_namespaces(self) -> list[str]:
        """Every sharded collection namespace."""
        return sorted(self._collections)

    def drop_collection_metadata(self, database_name: str, collection_name: str) -> None:
        """Forget the sharding metadata of a collection (used by drop)."""
        self._collections.pop(self.namespace(database_name, collection_name), None)

    # -- persistence -------------------------------------------------------------

    def to_metadata(self) -> dict[str, Any]:
        """The whole catalogue as one serializable document."""
        return {
            "shards": list(self._shard_ids),
            "databases": {name: dict(info) for name, info in self._databases.items()},
            "collections": {
                namespace: manager.to_metadata()
                for namespace, manager in self._collections.items()
            },
        }

    def restore_metadata(self, data: Mapping[str, Any]) -> None:
        """Restore the catalogue from :meth:`to_metadata` output.

        The shard registry must already contain every shard the metadata
        references — the cluster registers its shards before restoring, and
        metadata naming an unknown shard means the topology changed under
        the data directory.
        """
        known = set(self._shard_ids)
        missing = [shard_id for shard_id in data.get("shards", []) if shard_id not in known]
        if missing:
            raise ShardingError(
                f"persisted metadata references unknown shards {missing!r}; "
                "reopen the data directory with the original topology"
            )
        self._databases = {
            str(name): dict(info) for name, info in (data.get("databases") or {}).items()
        }
        self._collections = {
            str(namespace): ChunkManager.from_metadata(manager)
            for namespace, manager in (data.get("collections") or {}).items()
        }

    # -- reporting ---------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Cluster metadata summary (``sh.status()`` analogue)."""
        return {
            "shards": list(self._shard_ids),
            "databases": {
                name: dict(info) for name, info in sorted(self._databases.items())
            },
            "collections": {
                namespace: manager.describe()
                for namespace, manager in sorted(self._collections.items())
            },
        }

    def chunk_distribution(self) -> dict[str, dict[str, int]]:
        """Chunk counts per shard per namespace (balancer input)."""
        distribution: dict[str, dict[str, int]] = {}
        for namespace, manager in self._collections.items():
            counts: dict[str, int] = {shard_id: 0 for shard_id in self._shard_ids}
            for chunk in manager.chunks:
                counts[chunk.shard_id] = counts.get(chunk.shard_id, 0) + 1
            distribution[namespace] = counts
        return distribution
