"""Databases: named groups of collections.

The thesis stores each TPC-DS scale in its own database (``Dataset_1GB`` and
``Dataset_5GB``, Section 4.1.2); a :class:`Database` provides the collection
namespace, creation/dropping, and aggregate statistics used by the load-time
benchmarks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from .collection import Collection

if TYPE_CHECKING:  # pragma: no cover
    from .client import DocumentStoreClient

__all__ = ["Database"]


class Database:
    """A named collection namespace."""

    def __init__(self, client: "DocumentStoreClient | None", name: str) -> None:
        self._client = client
        self.name = name
        self._collections: dict[str, Collection] = {}

    @property
    def storage_engine(self):
        """The owning client's durable storage engine, if one is attached."""
        return None if self._client is None else self._client.engine

    # ----------------------------------------------------------- collections

    def __getitem__(self, name: str) -> Collection:
        """Return the collection called *name*, creating it lazily."""
        if name not in self._collections:
            self._collections[name] = Collection(self, name)
        return self._collections[name]

    def __getattr__(self, name: str) -> Collection:
        if name.startswith("_"):
            raise AttributeError(name)
        return self[name]

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def __iter__(self) -> Iterator[Collection]:
        return iter(list(self._collections.values()))

    def drop_collection(self, name: str) -> None:
        """Drop the collection called *name* (a no-op if absent)."""
        collection = self._collections.pop(name, None)
        if collection is not None:
            collection.drop()

    def list_collection_names(self) -> list[str]:
        """Names of every collection in the database, sorted."""
        return sorted(self._collections)

    # ----------------------------------------------------------------- stats

    def stats(self) -> dict[str, Any]:
        """Database-wide size statistics (``dbStats`` analogue)."""
        collections = list(self._collections.values())
        data_size = sum(collection.data_size() for collection in collections)
        index_size = sum(collection.index_size() for collection in collections)
        return {
            "db": self.name,
            "collections": len(collections),
            "objects": sum(len(collection) for collection in collections),
            "dataSize": data_size,
            "indexSize": index_size,
            "storageSize": data_size,
            "totalSize": data_size + index_size,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, collections={len(self._collections)})"
