"""Error hierarchy for the document store.

The exception names deliberately mirror the driver-facing errors of the
document database benchmarked in the paper (duplicate keys, oversized
documents, bad pipelines, ...), so that user code and tests read naturally.
"""

from __future__ import annotations


class DocumentStoreError(Exception):
    """Base class for every error raised by :mod:`repro.documentstore`."""


class InvalidDocumentError(DocumentStoreError):
    """A document is malformed (non-string keys, unsupported value types)."""


class DocumentTooLargeError(InvalidDocumentError):
    """A document exceeds the maximum BSON document size (16 MB)."""

    def __init__(self, size: int, limit: int) -> None:
        super().__init__(
            f"document size {size} bytes exceeds the maximum of {limit} bytes"
        )
        self.size = size
        self.limit = limit


class DuplicateKeyError(DocumentStoreError):
    """An insert or update would violate a unique index."""

    def __init__(self, index_name: str, key: object) -> None:
        super().__init__(f"duplicate key {key!r} for unique index {index_name!r}")
        self.index_name = index_name
        self.key = key


class OperationFailure(DocumentStoreError):
    """A query, update, or aggregation could not be executed."""


class InvalidOperator(OperationFailure):
    """A query filter or pipeline used an unknown operator."""


class InvalidPipelineError(OperationFailure):
    """An aggregation pipeline is structurally invalid."""


class InvalidUpdateError(OperationFailure):
    """An update document mixes operators and plain fields, or is empty."""


class IndexNotFoundError(DocumentStoreError):
    """An index name was referenced that does not exist on the collection."""


class DurabilityError(DocumentStoreError):
    """Base class for storage-engine (WAL/snapshot/recovery) errors."""


class SnapshotCorruptError(DurabilityError):
    """A snapshot file is unreadable, truncated, or missing its footer."""


class RecoveryError(DurabilityError):
    """A data directory could not be recovered into a consistent state."""


class ShardingError(DocumentStoreError):
    """Base class for sharded-cluster errors."""


class ChunkSplitError(ShardingError):
    """A chunk could not be split (for example, a jumbo chunk)."""


class ShardKeyError(ShardingError):
    """A document is missing its shard key, or the key is invalid."""
