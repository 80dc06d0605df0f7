"""Chunks and shard-key space partitioning.

Section 2.1.3.3 of the paper describes how a sharded collection is divided
into non-overlapping ranges of shard-key values called chunks (64 MB by
default), how range-based partitioning keeps nearby keys together (good for
range queries, bad for skewed inserts), how hash-based partitioning spreads
keys evenly, and how a chunk whose keys are all identical cannot be split and
becomes a *jumbo* chunk (Figure 2.7).  This module implements those concepts.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..documentstore.errors import ChunkSplitError, ShardKeyError
from ..documentstore.indexes import hashed_value
from ..documentstore.matching import collation_key, resolve_path_single

__all__ = [
    "MinKey",
    "MaxKey",
    "MIN_KEY",
    "MAX_KEY",
    "DEFAULT_CHUNK_SIZE_BYTES",
    "ShardKeyPattern",
    "Chunk",
    "ChunkManager",
    "encode_boundary",
    "decode_boundary",
]

#: Default maximum chunk size (64 MB), as in the paper.
DEFAULT_CHUNK_SIZE_BYTES = 64 * 1024 * 1024


class MinKey:
    """Sentinel smaller than every shard-key value."""

    def __repr__(self) -> str:
        return "MinKey"


class MaxKey:
    """Sentinel larger than every shard-key value."""

    def __repr__(self) -> str:
        return "MaxKey"


MIN_KEY = MinKey()
MAX_KEY = MaxKey()


def encode_boundary(value: Any) -> Any:
    """Encode a chunk-boundary value for the persisted cluster metadata.

    The sentinels and tuple boundaries (compound shard keys) have no JSON
    shape of their own, so they travel under ``$``-prefixed markers; every
    other value rides the store's extended-JSON encoding unchanged.
    """
    if isinstance(value, MinKey):
        return {"$minKey": 1}
    if isinstance(value, MaxKey):
        return {"$maxKey": 1}
    if isinstance(value, tuple):
        return {"$tuple": [encode_boundary(item) for item in value]}
    return value


def decode_boundary(value: Any) -> Any:
    """Invert :func:`encode_boundary`."""
    if isinstance(value, Mapping):
        if "$minKey" in value:
            return MIN_KEY
        if "$maxKey" in value:
            return MAX_KEY
        if "$tuple" in value:
            return tuple(decode_boundary(item) for item in value["$tuple"])
    return value


def boundary_key(value: Any) -> tuple[Any, ...]:
    """The collation key of a chunk boundary; MinKey/MaxKey rank below/above every value."""
    if isinstance(value, MinKey):
        return (-math.inf,)
    if isinstance(value, MaxKey):
        return (math.inf,)
    return collation_key(value)


@dataclass(frozen=True)
class ShardKeyPattern:
    """A shard key: an indexed field (or fields) plus the partitioning mode."""

    fields: tuple[str, ...]
    hashed: bool = False

    def __post_init__(self) -> None:
        if not self.fields:
            raise ShardKeyError("a shard key requires at least one field")
        if self.hashed and len(self.fields) > 1:
            raise ShardKeyError("hashed shard keys must be single-field")

    @classmethod
    def create(cls, key: str | Sequence[str] | Mapping[str, Any]) -> "ShardKeyPattern":
        """Build a pattern from ``"field"``, ``["a", "b"]`` or ``{"f": "hashed"}``."""
        if isinstance(key, str):
            return cls(fields=(key,))
        if isinstance(key, Mapping):
            fields = tuple(key.keys())
            hashed = any(value == "hashed" for value in key.values())
            return cls(fields=fields, hashed=hashed)
        return cls(fields=tuple(key))

    def extract(self, document: Mapping[str, Any]) -> Any:
        """Return the routing value of *document* under this shard key.

        Hashed keys return the hash of the field value; compound keys return a
        tuple.  A missing shard-key field raises :class:`ShardKeyError`, as the
        original system refuses such inserts into a sharded collection.
        """
        values = []
        for field_path in self.fields:
            value = resolve_path_single(document, field_path, default=None)
            if value is None:
                raise ShardKeyError(
                    f"document is missing shard key field {field_path!r}"
                )
            values.append(value)
        if self.hashed:
            return hashed_value(values[0])
        if len(values) == 1:
            return values[0]
        return tuple(values)

    def routing_value(self, raw_value: Any) -> Any:
        """Map a raw shard-key value to routing space (hash it if hashed)."""
        return hashed_value(raw_value) if self.hashed else raw_value

    def as_dict(self) -> dict[str, Any]:
        """Describe the pattern like ``shardCollection`` output."""
        return {field_path: ("hashed" if self.hashed else 1) for field_path in self.fields}


@dataclass
class Chunk:
    """A non-overlapping shard-key range assigned to one shard."""

    lower: Any
    upper: Any
    shard_id: str
    document_count: int = 0
    size_bytes: int = 0
    jumbo: bool = False
    key_samples: list[Any] = field(default_factory=list, repr=False)

    _MAX_SAMPLES = 512

    def __post_init__(self) -> None:
        # Boundaries never change (a split replaces the chunk), so their keys are built once.
        self.lower_key = boundary_key(self.lower)
        self.upper_key = boundary_key(self.upper)

    def contains(self, key_value: Any) -> bool:
        """Return True if *key_value* falls inside ``[lower, upper)``."""
        return self.lower_key <= collation_key(key_value) < self.upper_key

    def record_insert(self, key_value: Any, document_bytes: int) -> None:
        """Account for a newly routed document."""
        self.document_count += 1
        self.size_bytes += document_bytes
        if len(self.key_samples) < self._MAX_SAMPLES:
            self.key_samples.append(key_value)

    def record_inserts(self, key_values: Sequence[Any], total_bytes: int) -> None:
        """Batch version of :meth:`record_insert`: one size/count update."""
        self.document_count += len(key_values)
        self.size_bytes += total_bytes
        room = self._MAX_SAMPLES - len(self.key_samples)
        if room > 0:
            self.key_samples.extend(key_values[:room])

    def median_key(self) -> Any:
        """Return a split point candidate (median of sampled keys)."""
        if not self.key_samples:
            raise ChunkSplitError("chunk has no key samples to split on")
        ordered = sorted(self.key_samples, key=collation_key)
        return ordered[len(ordered) // 2]

    def describe(self) -> dict[str, Any]:
        """Chunk metadata as stored on the config server."""
        return {
            "min": self.lower,
            "max": self.upper,
            "shard": self.shard_id,
            "count": self.document_count,
            "size": self.size_bytes,
            "jumbo": self.jumbo,
        }

    def to_metadata(self) -> dict[str, Any]:
        """Serializable chunk state, including sampled split-point keys."""
        return {
            "min": encode_boundary(self.lower),
            "max": encode_boundary(self.upper),
            "shard": self.shard_id,
            "count": self.document_count,
            "size": self.size_bytes,
            "jumbo": self.jumbo,
            "samples": [encode_boundary(sample) for sample in self.key_samples],
        }

    @classmethod
    def from_metadata(cls, data: Mapping[str, Any]) -> "Chunk":
        """Rebuild a chunk from :meth:`to_metadata` output."""
        return cls(
            lower=decode_boundary(data["min"]),
            upper=decode_boundary(data["max"]),
            shard_id=str(data["shard"]),
            document_count=int(data.get("count") or 0),
            size_bytes=int(data.get("size") or 0),
            jumbo=bool(data.get("jumbo")),
            key_samples=[decode_boundary(sample) for sample in data.get("samples") or []],
        )


class ChunkManager:
    """The chunk table of one sharded collection.

    Splitting behaviour mirrors the paper: a chunk whose size exceeds the
    configured maximum is split at the median sampled key; if every sampled
    key is identical the chunk cannot be split and is marked *jumbo*.
    """

    def __init__(
        self,
        namespace: str,
        shard_key: ShardKeyPattern,
        shard_ids: Sequence[str],
        *,
        chunk_size_bytes: int = DEFAULT_CHUNK_SIZE_BYTES,
        initial_chunks_per_shard: int = 2,
    ) -> None:
        if not shard_ids:
            raise ShardKeyError("cannot create chunks without shards")
        self.namespace = namespace
        self.shard_key = shard_key
        self.chunk_size_bytes = chunk_size_bytes
        self._shard_ids = list(shard_ids)
        self.chunks: list[Chunk] = []
        if shard_key.hashed:
            self._create_initial_hashed_chunks(initial_chunks_per_shard)
        else:
            # Range sharding starts with a single full-range chunk on the
            # first shard; splits and the balancer spread it out as data grows.
            self.chunks.append(Chunk(lower=MIN_KEY, upper=MAX_KEY, shard_id=self._shard_ids[0]))

    def _create_initial_hashed_chunks(self, chunks_per_shard: int) -> None:
        """Pre-split the 64-bit hash space evenly across shards."""
        total_chunks = max(1, chunks_per_shard) * len(self._shard_ids)
        hash_space = 2 ** 64
        step = hash_space // total_chunks
        boundaries: list[Any] = [MIN_KEY]
        boundaries.extend(step * index for index in range(1, total_chunks))
        boundaries.append(MAX_KEY)
        for index in range(total_chunks):
            shard_id = self._shard_ids[index % len(self._shard_ids)]
            self.chunks.append(
                Chunk(lower=boundaries[index], upper=boundaries[index + 1], shard_id=shard_id)
            )

    # -- lookups --------------------------------------------------------------

    def chunk_for(self, routing_value: Any) -> Chunk:
        """Return the chunk owning *routing_value*."""
        key = collation_key(routing_value)
        for chunk in self.chunks:
            if chunk.lower_key <= key < chunk.upper_key:
                return chunk
        raise ShardKeyError(
            f"no chunk covers shard key value {routing_value!r} in {self.namespace}"
        )

    def route_batch(self, routing_values: Sequence[Any]) -> list[Chunk]:
        """Map every routing value to its owning chunk in a single pass.

        The chunk table is kept sorted by lower bound (splits replace a
        chunk in place, migrations only change ownership), so each value's
        collation key is located among the lower bounds' keys with one
        ``bisect`` — O(n log c) for a batch of n documents over c chunks,
        instead of the O(n·c) linear :meth:`chunk_for` scans the
        per-document path pays.  Statistics are *not* recorded; callers
        account the batch with :meth:`record_inserts` after the owning
        shards acknowledged the inserts.
        """
        chunks = self.chunks
        lower_keys = [chunk.lower_key for chunk in chunks]
        resolved: list[Chunk] = []
        for value in routing_values:
            key = collation_key(value)
            position = bisect.bisect_right(lower_keys, key) - 1
            if position < 0:
                raise ShardKeyError(
                    f"no chunk covers shard key value {value!r} in {self.namespace}"
                )
            chunk = chunks[position]
            if not key < chunk.upper_key:  # pragma: no cover - contiguity guard
                chunk = self.chunk_for(value)
            resolved.append(chunk)
        return resolved

    def shard_for_value(self, raw_value: Any) -> str:
        """Return the shard owning the document with shard-key *raw_value*."""
        return self.chunk_for(self.shard_key.routing_value(raw_value)).shard_id

    def shards_for_values(self, raw_values: Iterable[Any]) -> set[str]:
        """Return every shard owning at least one of *raw_values*."""
        return {self.shard_for_value(value) for value in raw_values}

    def shards_for_range(self, lower: Any, upper: Any) -> set[str]:
        """Return the shards owning any chunk overlapping ``[lower, upper]``.

        Only meaningful for range-partitioned collections; hashed collections
        always answer with every shard (range queries broadcast), which is the
        trade-off called out in Section 2.1.3.3.
        """
        if self.shard_key.hashed:
            return set(self.all_shards())
        low, high = boundary_key(lower), boundary_key(upper)
        return {
            chunk.shard_id
            for chunk in self.chunks
            if chunk.upper_key > low and chunk.lower_key <= high
        }

    def all_shards(self) -> list[str]:
        """Every shard that currently owns at least one chunk."""
        return sorted({chunk.shard_id for chunk in self.chunks})

    # -- maintenance -----------------------------------------------------------

    def record_insert(self, routing_value: Any, document_bytes: int) -> Chunk:
        """Account a routed insert and split the chunk if it grew too large."""
        chunk = self.chunk_for(routing_value)
        chunk.record_insert(routing_value, document_bytes)
        if chunk.size_bytes > self.chunk_size_bytes and not chunk.jumbo:
            try:
                self.split_chunk(chunk)
            except ChunkSplitError:
                chunk.jumbo = True
        return chunk

    def record_inserts(
        self, chunk: Chunk, routing_values: Sequence[Any], total_bytes: int
    ) -> None:
        """Account a batch of inserts routed to *chunk* with one size update.

        A batch can push a chunk far past the split threshold in one go, so
        splitting recurses until every resulting chunk fits (or is jumbo) —
        matching what repeated per-document ``record_insert`` calls produce.
        """
        chunk.record_inserts(routing_values, total_bytes)
        oversized = [chunk]
        while oversized:
            candidate = oversized.pop()
            if candidate.size_bytes > self.chunk_size_bytes and not candidate.jumbo:
                try:
                    oversized.extend(self.split_chunk(candidate))
                except ChunkSplitError:
                    candidate.jumbo = True

    def split_chunk(self, chunk: Chunk, split_point: Any | None = None) -> tuple[Chunk, Chunk]:
        """Split *chunk* at *split_point* (default: median sampled key)."""
        if split_point is None:
            split_point = chunk.median_key()
        point = boundary_key(split_point)
        if not chunk.lower_key < point < chunk.upper_key:
            raise ChunkSplitError(
                f"split point {split_point!r} does not strictly divide the chunk; "
                "all documents may share one shard key value (jumbo chunk)"
            )
        left_samples = [k for k in chunk.key_samples if collation_key(k) < point]
        right_samples = [k for k in chunk.key_samples if collation_key(k) >= point]
        ratio = len(left_samples) / max(1, len(chunk.key_samples))
        left = Chunk(
            lower=chunk.lower,
            upper=split_point,
            shard_id=chunk.shard_id,
            document_count=int(chunk.document_count * ratio),
            size_bytes=int(chunk.size_bytes * ratio),
            key_samples=left_samples,
        )
        right = Chunk(
            lower=split_point,
            upper=chunk.upper,
            shard_id=chunk.shard_id,
            document_count=chunk.document_count - left.document_count,
            size_bytes=chunk.size_bytes - left.size_bytes,
            key_samples=right_samples,
        )
        position = self.chunks.index(chunk)
        self.chunks[position:position + 1] = [left, right]
        return left, right

    def move_chunk(self, chunk: Chunk, destination_shard: str) -> None:
        """Reassign *chunk* to *destination_shard* (balancer migration)."""
        chunk.shard_id = destination_shard

    def describe(self) -> dict[str, Any]:
        """Collection sharding metadata, as the config server stores it."""
        return {
            "ns": self.namespace,
            "key": self.shard_key.as_dict(),
            "unique": False,
            "chunks": [chunk.describe() for chunk in self.chunks],
        }

    # -- persistence -----------------------------------------------------------

    def to_metadata(self) -> dict[str, Any]:
        """The full chunk table as a serializable document."""
        return {
            "ns": self.namespace,
            "key": {"fields": list(self.shard_key.fields), "hashed": self.shard_key.hashed},
            "chunk_size_bytes": self.chunk_size_bytes,
            "shard_ids": list(self._shard_ids),
            "chunks": [chunk.to_metadata() for chunk in self.chunks],
        }

    @classmethod
    def from_metadata(cls, data: Mapping[str, Any]) -> "ChunkManager":
        """Rebuild a chunk table from :meth:`to_metadata` output."""
        key = data["key"]
        manager = cls.__new__(cls)
        manager.namespace = str(data["ns"])
        manager.shard_key = ShardKeyPattern(
            fields=tuple(key["fields"]), hashed=bool(key["hashed"])
        )
        manager.chunk_size_bytes = int(data["chunk_size_bytes"])
        manager._shard_ids = [str(shard_id) for shard_id in data["shard_ids"]]
        manager.chunks = [Chunk.from_metadata(chunk) for chunk in data["chunks"]]
        return manager
