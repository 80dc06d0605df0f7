"""An in-process document store.

This package is the reproduction's substitute for the document database
benchmarked in the paper.  It provides:

* a BSON-like document model with :class:`ObjectId` primary keys and the
  16 MB document-size limit (``repro.documentstore.bson``);
* collections with CRUD, cursors, secondary indexes (single-field, compound,
  hashed, multikey) and an index-aware query planner;
* an aggregation pipeline with the stages and accumulators used by the
  thesis queries (Appendix B) and more;
* databases and a stand-alone client.

The sharded deployment environment lives in :mod:`repro.sharding` and builds
on the same collection engine.
"""

from .aggregation import (
    CompiledPipeline,
    StageStats,
    compile_pipeline,
    optimize_pipeline,
    run_pipeline,
    split_pipeline_for_shards,
)
from .bson import (
    MAX_DOCUMENT_SIZE,
    decode_document,
    document_size,
    encode_document,
    validate_document,
)
from .bulk import (
    BulkWriteError,
    BulkWriteResult,
    DeleteMany,
    DeleteOne,
    InsertOne,
    UpdateMany,
    UpdateOne,
)
from .client import DocumentStoreClient
from .collection import Collection, CollectionStats
from .cursor import Cursor, DeleteResult, InsertManyResult, InsertOneResult, UpdateResult
from .database import Database
from .errors import (
    ChunkSplitError,
    CollectionDoesNotExist,
    CollectionInvalid,
    DocumentStoreError,
    DocumentTooLargeError,
    DuplicateKeyError,
    DurabilityError,
    IndexNotFoundError,
    InvalidDocumentError,
    InvalidOperator,
    InvalidPipelineError,
    InvalidUpdateError,
    OperationFailure,
    RecoveryError,
    ShardingError,
    ShardKeyError,
    SnapshotCorruptError,
)
from .explain import (
    EXECUTION_KEYS,
    EXPLAIN_VERSION,
    PLANNER_KEYS,
    TOP_LEVEL_KEYS,
    VERBOSITIES,
    build_execution_stats,
    build_explain,
    validate_verbosity,
)
from .expressions import compile_expression, evaluate_expression
from .findspec import FindSpec, projection_preserves_fields
from .indexes import ASCENDING, DESCENDING, HASHED, VECTOR, Index, IndexSpec, hashed_value
from .matching import (
    collation_key,
    compare_values,
    compile_matcher,
    matches,
    resolve_path,
    resolve_path_single,
)
from .objectid import ObjectId
from .ordering import document_sort_key
from .planner import QueryPlan, plan_find, plan_query
from .recovery import RecoveryReport, recover
from .snapshot import load_snapshot, write_snapshot
from .storage import (
    StorageEngine,
    dump_collection,
    dump_database,
    load_collection,
    load_database,
)
from .vector import VectorIndex, vector_score
from .wal import WriteAheadLog, decode_records, encode_record

__all__ = [
    "ASCENDING",
    "DESCENDING",
    "EXECUTION_KEYS",
    "EXPLAIN_VERSION",
    "HASHED",
    "PLANNER_KEYS",
    "TOP_LEVEL_KEYS",
    "VECTOR",
    "VERBOSITIES",
    "MAX_DOCUMENT_SIZE",
    "BulkWriteError",
    "BulkWriteResult",
    "ChunkSplitError",
    "Collection",
    "CollectionDoesNotExist",
    "CollectionInvalid",
    "CollectionStats",
    "Cursor",
    "Database",
    "DeleteMany",
    "DeleteOne",
    "DeleteResult",
    "DocumentStoreClient",
    "DocumentStoreError",
    "DocumentTooLargeError",
    "DuplicateKeyError",
    "DurabilityError",
    "FindSpec",
    "Index",
    "IndexNotFoundError",
    "IndexSpec",
    "InsertManyResult",
    "InsertOne",
    "InsertOneResult",
    "InvalidDocumentError",
    "InvalidOperator",
    "InvalidPipelineError",
    "InvalidUpdateError",
    "ObjectId",
    "OperationFailure",
    "QueryPlan",
    "RecoveryError",
    "RecoveryReport",
    "ShardKeyError",
    "ShardingError",
    "SnapshotCorruptError",
    "CompiledPipeline",
    "StageStats",
    "StorageEngine",
    "UpdateMany",
    "UpdateOne",
    "UpdateResult",
    "VectorIndex",
    "WriteAheadLog",
    "build_execution_stats",
    "build_explain",
    "collation_key",
    "compare_values",
    "compile_expression",
    "compile_matcher",
    "compile_pipeline",
    "decode_document",
    "decode_records",
    "document_size",
    "document_sort_key",
    "dump_collection",
    "dump_database",
    "encode_document",
    "encode_record",
    "evaluate_expression",
    "hashed_value",
    "load_collection",
    "load_database",
    "load_snapshot",
    "matches",
    "optimize_pipeline",
    "plan_find",
    "plan_query",
    "projection_preserves_fields",
    "recover",
    "resolve_path",
    "resolve_path_single",
    "run_pipeline",
    "split_pipeline_for_shards",
    "validate_document",
    "validate_verbosity",
    "vector_score",
    "write_snapshot",
]
